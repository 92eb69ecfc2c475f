import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from orbitmm.constructions import lattice_decomposition, orbit_decomposition, orbit_spec_for, strassen_theta
from orbitmm.frames import FIXTURE_NAMES, fixture_frame, simplex_frame
from orbitmm.tensor import Decomposition, RefusedInput, mm_tensor, tensor_of
from orbitmm.verify import _trace_cube, invariants_report, verify_exact_gram, verify_float

from conftest import random_exact_matrix

DELETED_TERM_RESIDUAL = 0.8660254037844382  # sqrt(3)/2, pinned
PERTURBED_GRAM_VALUE = Fraction(10370589409215729, 256000000000000000)


def perturbed_gram_frame():
    frame = simplex_frame(3)
    g = frame.gram.copy()
    g[0, 1] = Fraction(-1, 3) + Fraction(1, 1000)
    g[1, 0] = g[0, 1]
    return replace(frame, gram=g, label="perturbed")


def perturbed_frame(n, i, j, delta):
    frame = simplex_frame(n)
    g = frame.gram.copy()
    g[i, j] += delta
    g[j, i] = g[i, j]
    return replace(frame, gram=g)


def _reference_exact_gram(frame):
    """verify_exact_gram as a direct double loop over the lattice terms'
    slot inner products: the definition the traces of cubes must match."""
    n = frame.n
    k = frame.size
    G = frame.gram
    c = Fraction(n, n + 1)

    L = 1
    for i in range(k):
        for j in range(k):
            L = L * G[i, j].denominator // math.gcd(L, G[i, j].denominator)
    Gi = [[int(G[i, j] * L) for j in range(k)] for i in range(k)]

    # slot (i, j) encodes c |w_i><w_j - w_i|; P[s][s'] * c^2 / L^2 = <s, s'>
    slots = [(i, j) for i in range(k) for j in range(k) if i != j]
    slot_id = {s: t for t, s in enumerate(slots)}
    P = [[0] * len(slots) for _ in slots]
    for (i, j), si in slot_id.items():
        for (i2, j2), si2 in slot_id.items():
            e = Gi[j][j2] - Gi[j][i2] - Gi[i][j2] + Gi[i][i2]
            P[si][si2] = Gi[i][i2] * e

    triples = [
        (slot_id[(i, j)], slot_id[(j, kk)], slot_id[(kk, i)])
        for i in range(k)
        for j in range(k)
        for kk in range(k)
        if i != j and j != kk and kk != i
    ]
    pair_sum = 0
    for s1, s2, s3 in triples:
        r1, r2, r3 = P[s1], P[s2], P[s3]
        pair_sum += sum(r1[u1] * r2[u2] * r3[u3] for u1, u2, u3 in triples)
    dd_terms = c**6 * Fraction(pair_sum, L**6)

    id_cross = Fraction(0)
    mm_cross = Fraction(0)
    for i in range(k):
        for j in range(k):
            for kk in range(k):
                if i == j or j == kk or kk == i:
                    continue
                id_cross += (G[j, i] - G[i, i]) * (G[kk, j] - G[j, j]) * (G[i, kk] - G[kk, kk])
                mm_cross += (G[j, j] - G[i, j]) * (G[kk, kk] - G[j, kk]) * (G[i, i] - G[kk, i])
    id_cross *= c**3
    mm_cross *= c**3

    n3 = Fraction(n**3)
    dd = n3 + 2 * id_cross + dd_terms
    dmm = Fraction(n) + mm_cross
    return dd - 2 * dmm + n3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_float_lattice(n):
    dec = lattice_decomposition(simplex_frame(n))
    rep = verify_float(dec)
    assert rep.valid
    assert rep.max_residual < 1e-12
    inv = invariants_report(dec)
    assert abs(inv.operator_trace - n) < 1e-9
    assert abs(inv.frobenius_sq - n**3) < 1e-8


def _random_exact_dec(seed, n, rank):
    rng = random.Random(seed)
    return Decomposition(*(np.array([random_exact_matrix(rng, n) for _ in range(rank)]) for _ in range(3)))


DENSE_CHECK_DECS = {
    **{f"lattice{n}": lattice_decomposition(simplex_frame(n)) for n in range(2, 8)},
    **{f"orbit{n}": orbit_decomposition(orbit_spec_for(n)) for n in (2, 3, 4)},
    "theta-pi/12": strassen_theta(math.pi / 12),
    "random-exact": _random_exact_dec(5, 3, 11),
    "rank0": Decomposition(*np.zeros((3, 0, 3, 3))),
}


@pytest.mark.parametrize("dec", DENSE_CHECK_DECS.values(), ids=DENSE_CHECK_DECS.keys())
def test_dense_checks_match_their_definitions(dec):
    # the residual and the invariants as they were defined before they were
    # read through mm_support: against a second dense MM_n, and a loop
    n, d = dec.n, dec.to_float()
    T, mm = tensor_of(d), mm_tensor(n)
    assert verify_float(dec).max_residual == np.abs(T - mm).max()
    inv = invariants_report(dec)
    assert inv.frobenius_sq == (T * T).sum()
    trace = sum(T[a, b, c, a, b, c] for a, b, c in product(range(n), repeat=3))
    assert abs(inv.operator_trace - trace) <= 1e-12 * n**3
    assert abs(inv.inner_with_mm - (T * mm).sum()) <= 1e-12 * n**3


def test_verify_float_reports_failure():
    dec = lattice_decomposition(simplex_frame(2))
    broken = Decomposition(dec.U[:-1], dec.V[:-1], dec.W[:-1], scheme="broken")
    rep = verify_float(broken)
    assert not rep.valid
    assert abs(rep.max_residual - DELETED_TERM_RESIDUAL) < 1e-12


def test_verify_float_strassen_angles():
    assert verify_float(strassen_theta(math.pi / 6)).valid
    assert not verify_float(strassen_theta(math.pi / 12)).valid


def test_verify_float_tolerance_knob():
    dec = lattice_decomposition(simplex_frame(3))
    assert verify_float(dec, tol=1e-13).valid
    assert not verify_float(dec, tol=1e-17).valid


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1e-9])
def test_verify_float_refuses_bad_tol(tol, monkeypatch):
    # an infinite tol would call the zero decomposition valid
    import orbitmm.verify as verify

    monkeypatch.setattr(verify, "tensor_of", lambda d: pytest.fail("refusal must come before any work"))
    with pytest.raises(RefusedInput, match="tol"):
        verify_float(Decomposition(*np.zeros((3, 1, 2, 2))), tol=tol)


def test_verify_report_lines():
    rep = verify_float(lattice_decomposition(simplex_frame(2)))
    text = "\n".join(rep.lines())
    # the entrywise check only: n and the rank are printed by the invariants
    assert "max residual" in text and "True" in text and "rank" not in text


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_gram_is_zero(n):
    assert verify_exact_gram(simplex_frame(n)) == 0


def test_exact_gram_returns_fraction():
    assert isinstance(verify_exact_gram(simplex_frame(2)), Fraction)


def test_exact_gram_detects_perturbation():
    val = verify_exact_gram(perturbed_gram_frame())
    assert val > 0
    assert val == PERTURBED_GRAM_VALUE


@pytest.mark.parametrize("num,den", [(1, 7), (-1, 100), (3, 1000)])
def test_exact_gram_nonzero_under_perturbation(num, den):
    # a perturbed gram need not be realizable by vectors, so the rational
    # value can drop below zero; it just must move off zero
    frame = simplex_frame(4)
    g = frame.gram.copy()
    g[2, 3] += Fraction(num, den)
    g[3, 2] = g[2, 3]
    assert verify_exact_gram(replace(frame, gram=g)) != 0


REFERENCE_FRAMES = (
    [simplex_frame(n) for n in range(2, 8)]
    + [fixture_frame(name) for name in FIXTURE_NAMES]
    + [
        perturbed_gram_frame(),
        perturbed_frame(4, 2, 3, Fraction(1, 7)),
        perturbed_frame(4, 2, 3, Fraction(-1, 100)),
        perturbed_frame(4, 2, 3, Fraction(3, 1000)),
        perturbed_frame(5, 0, 4, Fraction(1, 10**9)),
    ]
)


@pytest.mark.parametrize("frame", REFERENCE_FRAMES, ids=lambda f: f"{f.label}-{f.n}")
def test_exact_gram_matches_reference_loop(frame):
    value = verify_exact_gram(frame)
    assert isinstance(value, Fraction) and value == _reference_exact_gram(frame)


def _loop_trace_cube(X):
    d = len(X)
    X = [[int(x) for x in row] for row in X]
    return sum(X[a][b] * X[b][c] * X[c][a] for a in range(d) for b in range(d) for c in range(d))


def test_trace_cube_is_exact_on_both_sides_of_2_53():
    # an all-m 3x3 matrix sums 27 terms of m^3: tr = d^3 m^3, the rule's bound.
    # With odd entries the trace is odd, which float64 cannot hold above 2^53.
    m = int((2**53 / 27) ** (1 / 3)) | 1
    while 27 * m**3 >= 2**53:
        m -= 2
    below = np.full((3, 3), m, dtype=np.int64)
    below[0, 1] -= 2
    above = below + 2
    assert 27 * m**3 < 2**53 <= 27 * (m + 2) ** 3
    for X in (below, above, -above):
        assert _trace_cube(X) == _loop_trace_cube(X)
    # float64 arithmetic is inexact above the bound, which is why it is refused there
    F = above.astype(np.float64)
    assert int(((F @ F) * F.T).sum()) != _loop_trace_cube(above)


def test_trace_cube_takes_python_ints_for_large_entries():
    X = np.array([[3**40, -(2**70)], [5, 7**30]], dtype=object)
    assert _trace_cube(X) == _loop_trace_cube(X)


@pytest.mark.parametrize("d", [1, 2, 5, 12, 30])
@pytest.mark.parametrize("bits", [4, 16, 30, 52, 62, 100, 200])
def test_trace_cube_matches_python_ints(d, bits):
    # random signed entries of up to `bits` bits, on both sides of the
    # float64 bound d^3 max|X|^3 < 2^53; int64 where they fit, Python ints above
    rnd = random.Random(bits * 100 + d)
    X = np.array([[rnd.choice((-1, 1)) * rnd.getrandbits(bits) for _ in range(d)] for _ in range(d)], dtype=object)
    X[0, 0] = 2**bits - 1  # the largest entry of that width
    if bits <= 62:
        X = X.astype(np.int64)
    expected = _loop_trace_cube(X)
    assert _trace_cube(X) == expected and _trace_cube(-X) == -expected
    m = int(abs(X).max())
    if d**3 * m**3 < 2**53:  # one limb: the plain float64 product, exact
        F = X.astype(np.float64)
        assert int(((F @ F) * F.T).sum()) == expected


def test_exact_gram_n22_is_fast():
    t0 = time.process_time()
    assert verify_exact_gram(simplex_frame(22)) == 0
    assert time.process_time() - t0 < 1.0


def test_exact_gram_n16_is_fast():
    t0 = time.process_time()
    assert verify_exact_gram(simplex_frame(16)) == 0
    assert time.process_time() - t0 < 1.0


@pytest.mark.parametrize("n", range(2, 7))
def test_verifiers_agree(n):
    frame = simplex_frame(n)
    assert verify_exact_gram(frame) == 0
    assert verify_float(lattice_decomposition(frame)).valid


def test_verifiers_agree_on_corrupted_frame():
    # rescale one vector and patch the gram to match: both checkers see it
    frame = simplex_frame(3)
    vecs, g = frame.vectors.copy(), frame.gram.copy()
    vecs[0] *= 1.01
    s = Fraction(101, 100)
    g[0, 0] *= s * s
    for j in range(1, 4):
        g[0, j] *= s
        g[j, 0] *= s
    bad = replace(frame, vectors=vecs, gram=g)
    exact = verify_exact_gram(bad)
    rep = verify_float(lattice_decomposition(bad), tol=1e-9)
    assert exact > 0 and not rep.valid
    # float |D - MM|^2 should approximate the exact rational value
    inv = invariants_report(lattice_decomposition(bad))
    resid_sq = inv.frobenius_sq - 2 * inv.inner_with_mm + 27
    assert abs(resid_sq - float(exact)) < 1e-6


def test_invariants_report_lattice():
    rep = invariants_report(lattice_decomposition(simplex_frame(3)))
    assert rep.rank == 25
    assert abs(rep.operator_trace - 3) < 1e-9
    assert abs(rep.frobenius_sq - 27) < 1e-8
    assert abs(rep.inner_with_mm - 27) < 1e-8
    assert all(r == (1, 1, 1) for r in rep.factor_ranks[1:])
    assert rep.factor_ranks[0] == (3, 3, 3)  # identity term leads


def _rational_repeats():
    """A Fraction decomposition whose 6 terms share 4 distinct factors per
    side, of ranks 3 (twice), 1 and 0."""
    rng = random.Random(5)
    full, other = random_exact_matrix(rng, 3), random_exact_matrix(rng, 3)
    one = np.outer([Fraction(1, 2), Fraction(-3), Fraction(2, 7)], [Fraction(1), Fraction(0), Fraction(5, 3)])
    zero = np.full((3, 3), Fraction(0), dtype=object)
    U = np.array([full, other, full, one, zero, other], dtype=object)
    return Decomposition(U, U[::-1].copy(), -U)


@pytest.mark.parametrize(
    "make, distinct",
    [
        (lambda: lattice_decomposition(simplex_frame(7)), 57),
        (lambda: orbit_decomposition(orbit_spec_for(4)), 61),  # 21 rows up to round-off, which must stay apart
        (_rational_repeats, 4),
    ],
    ids=["lattice-7", "orbit-4", "rational"],
)
def test_factor_ranks_take_one_svd_per_distinct_factor(monkeypatch, make, distinct):
    # equal to the per-term matrix_rank, from one batch of the distinct factors per side
    dec = make()
    f = dec.to_float()
    per_term = tuple(zip(*(np.linalg.matrix_rank(X, tol=1e-9).tolist() for X in (f.U, f.V, f.W))))
    real, batches = np.linalg.matrix_rank, []

    def counted(X, tol):
        batches.append(len(X))
        return real(X, tol=tol)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    assert invariants_report(dec).factor_ranks == per_term
    assert batches == [distinct] * 3
    if dec.exact:
        assert per_term[:5] == ((3, 3, 3), (3, 0, 3), (3, 1, 3), (1, 3, 1), (0, 3, 0))


def test_invariants_report_lines():
    rep = invariants_report(lattice_decomposition(simplex_frame(2)))
    text = "\n".join(rep.lines())
    assert "expect n^3 = 8" in text
