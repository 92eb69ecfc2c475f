import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from orbitmm.constructions import lattice_decomposition, strassen_theta
from orbitmm.frames import FIXTURE_NAMES, corrupt, fixture_frame, simplex_frame
from orbitmm.tensor import Decomposition
from orbitmm.verify import _trace_cube, invariants_report, verify_exact_gram, verify_float

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
    bad = corrupt(simplex_frame(3), index=0, scale=1.01)
    g = bad.gram.copy()
    s = Fraction(101, 100)
    g[0, 0] *= s * s
    for j in range(1, 4):
        g[0, j] *= s
        g[j, 0] *= s
    bad = replace(bad, gram=g)
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


def test_invariants_report_lines():
    rep = invariants_report(lattice_decomposition(simplex_frame(2)))
    text = "\n".join(rep.lines())
    assert "expect n^3 = 8" in text
