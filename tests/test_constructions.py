import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from orbitmm.constructions import (
    OrbitSpec,
    alternating_group,
    lattice_decomposition,
    orbit_decomposition,
    orbit_spec_for,
    s4_family_spec,
    s5_fixture,
    standard_sigma_perm,
    strassen_theta,
    strassen_theta_sixths,
    strassen_theta_sixths_spec,
    strassen_theta_spec,
    symmetric_group,
    _y_of,
)
from orbitmm.frames import lift_permutation, simplex_frame
from orbitmm.tensor import Decomposition, RefusedInput, mm_tensor, tensor_of
from orbitmm.verify import verify_float

from conftest import integer_lattice

# entrywise residual of strassen_theta(pi/12) against MM_2, pinned via the
# float verifier; analytically 1/(2 sqrt 3)
PI_12_RESIDUAL = 0.28867513459481386


@pytest.mark.parametrize(
    "n,expected", [(2, 7), (3, 25), (4, 61), (5, 121), (8, 505)]
)
def test_lattice_rank(n, expected):
    assert lattice_decomposition(simplex_frame(n)).rank == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lattice_verifies(n):
    rep = verify_float(lattice_decomposition(simplex_frame(n)), tol=1e-10)
    assert rep.valid


def test_lattice_factors_are_rank_one():
    dec = lattice_decomposition(simplex_frame(3))
    for t in dec.terms[1:]:
        for m in (t.a, t.b, t.c):
            assert np.linalg.matrix_rank(m, tol=1e-10) == 1


@pytest.mark.parametrize("n, nnz", [(2, 12), (3, 51), (4, 136)])
def test_integer_lattice_is_an_exact_certificate(n, nnz):
    # the lattice in its integer frame basis: rank n^3 - n + 1, entries in
    # {-1, 0, 1}, (n-1)(3n^2-n)+n nonzeros per side, and in Fractions its
    # tensor is MM_n exactly
    stacks = integer_lattice(n)
    assert stacks.shape == (3, n**3 - n + 1, n, n) and set(np.unique(stacks)) <= {-1, 0, 1}
    assert [np.count_nonzero(X) for X in stacks] == [nnz] * 3 == [(n - 1) * (3 * n * n - n) + n] * 3
    exact = Decomposition(*(np.vectorize(Fraction, otypes=[object])(X) for X in stacks))
    assert np.array_equal(tensor_of(exact), mm_tensor(n, exact=True))


def test_group_sizes():
    assert len(symmetric_group(3)) == 6
    assert len(symmetric_group(4)) == 24
    assert len(alternating_group(5)) == 60
    assert orbit_spec_for(2).group == symmetric_group(3)
    assert orbit_spec_for(3).group == symmetric_group(4)
    assert orbit_spec_for(4).group == alternating_group(5)


def _cycle_walk_parity(perm) -> int:
    # the sign of a permutation from its cycle lengths: the reference for alternating_group
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


@pytest.mark.parametrize("k", range(1, 7))
def test_alternating_group_matches_cycle_walk_parity(k):
    expected = tuple(p for p in permutations(range(k)) if _cycle_walk_parity(p) == 1)
    assert alternating_group(k) == expected


def test_orbit_spec_validates_group_size():
    f = simplex_frame(2)
    with pytest.raises(ValueError):
        OrbitSpec(f, symmetric_group(3)[:5], standard_sigma_perm(3), f.vectors[0], f.vectors[1])


def test_orbit_spec_validates_sigma_order():
    f = simplex_frame(2)
    with pytest.raises(ValueError):
        OrbitSpec(f, symmetric_group(3), (1, 0, 2), f.vectors[0], f.vectors[1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_on_fixture_verifies(n):
    dec = orbit_decomposition(orbit_spec_for(n))
    assert verify_float(dec, tol=1e-10).valid
    assert dec.rank == n**3 - n + 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_equals_lattice_entrywise(n):
    spec = orbit_spec_for(n)
    T_orbit = tensor_of(orbit_decomposition(spec))
    T_lattice = tensor_of(lattice_decomposition(spec.frame))
    assert np.abs(T_orbit - T_lattice).max() < 1e-9


def test_orbit_invariant_under_group_reordering():
    spec = orbit_spec_for(3)
    shuffled = list(spec.group)
    random.Random(3).shuffle(shuffled)
    spec2 = OrbitSpec(spec.frame, tuple(shuffled), spec.sigma_perm, spec.u, spec.v)
    T1 = tensor_of(orbit_decomposition(spec))
    T2 = tensor_of(orbit_decomposition(spec2))
    assert np.abs(T1 - T2).max() < 1e-9


def test_standard_uv_products():
    for n in (2, 3, 4):
        spec = orbit_spec_for(n)
        u, v, w = spec.u, spec.v, spec.frame.vectors
        # u = alpha w1, v = beta (w2 - w1) with alpha * beta = n/(n+1)
        alpha = u @ w[0]
        assert np.abs(u - alpha * w[0]).max() < 1e-12
        d = w[1] - w[0]
        beta = (v @ d) / (d @ d)
        assert np.abs(v - beta * d).max() < 1e-12
        assert abs(alpha * beta - n / (n + 1)) < 1e-12


def test_standard_orbit_refuses_other_n():
    with pytest.raises(RefusedInput, match="n=5"):
        orbit_spec_for(5)


def _reference_seed_v(spec):
    # the seed rule v = (2/3)(sigma y - y) written out, as the builders wrote it
    # before they took it from constraints.z_from_y; the "v" variants add b*w4
    sigma = lift_permutation(spec.frame, spec.sigma_perm)
    if spec.scheme == "strassen-theta":
        return 2.0 / 3.0 * (sigma @ spec.u - spec.u)
    which, sign, theta = (spec.params[k] for k in ("which", "sign", "theta"))
    y = _y_of(theta)
    z = 2.0 / 3.0 * (sigma @ y - y)
    return z + sign / (3 * math.sqrt(2)) * np.array([-1.0, -1.0, -1.0]) if which == "v" else z


@pytest.mark.parametrize(
    "spec",
    [strassen_theta_spec(t) for t in (0.0, 0.3, math.pi / 12, 1.0, -2.5)]
    + [strassen_theta_sixths_spec(k) for k in (0, 1, 5, 7, 11)]
    + [s4_family_spec(w, sign, t) for w in "uv" for sign in (-1, 1) for t in (0.0, 0.7, math.pi / 2)],
)
def test_seed_v_matches_written_out_rule(spec):
    assert np.array_equal(spec.v, _reference_seed_v(spec))


def test_specs_carry_scheme_and_params():
    # the parameters follow the frame label, in the order the files record them
    cases = [
        (orbit_spec_for(3), "orbit", {"frame": "tetrahedron-3"}),
        (strassen_theta_spec(0.3), "strassen-theta", {"frame": "triangle-2", "theta": 0.3}),
        (strassen_theta_sixths_spec(1), "strassen-theta", {"frame": "triangle-2", "theta_sixths": 1}),
        (s4_family_spec("v", 1, 0.5), "s4-family", {"frame": "tetrahedron-3", "which": "v", "sign": 1, "theta": 0.5}),
    ]
    for spec, scheme, params in cases:
        dec = orbit_decomposition(spec)
        assert (dec.scheme, list(dec.params.items())) == (scheme, list(params.items()))


def test_strassen_theta_zero_vectors():
    dec = strassen_theta(0.0)
    assert dec.rank == 7
    assert verify_float(dec, tol=1e-10).valid


@pytest.mark.parametrize("k", range(12))
def test_strassen_theta_sixths_valid(k):
    assert verify_float(strassen_theta_sixths(k), tol=1e-10).valid


def test_strassen_theta_pi_over_12_invalid():
    rep = verify_float(strassen_theta(math.pi / 12))
    assert not rep.valid
    assert rep.max_residual > 0.05
    assert rep.max_residual == pytest.approx(PI_12_RESIDUAL, abs=1e-9)


def test_s4_family_first_matches_known_seed():
    dec = orbit_decomposition(s4_family_spec("u", -1, 0.0))
    assert verify_float(dec, tol=1e-10).valid
    # the seed rank-1 matrix appears as the first non-identity term
    m = np.array([[-1.0, 1, 0], [1, -1, 0], [1, -1, 0]]) / 2
    first = dec.terms[1]
    assert np.abs(first.a - m).max() < 1e-10


def test_s4_family_second_valid():
    dec = orbit_decomposition(s4_family_spec("v", -1, 2 * math.pi / 3 * 0.75))
    assert verify_float(dec, tol=1e-10).valid


@pytest.mark.parametrize(
    "which,sign,theta",
    [
        ("u", 1, 2 * math.pi / 3 * 0.5),
        ("v", 1, 2 * math.pi / 3 * 0.25),
    ],
)
def test_s4_family_other_branches_valid(which, sign, theta):
    assert verify_float(orbit_decomposition(s4_family_spec(which, sign, theta)), tol=1e-10).valid


def test_s4_family_invalid_theta():
    rep = verify_float(orbit_decomposition(s4_family_spec("u", -1, 2 * math.pi / 9)))
    assert not rep.valid
    assert rep.max_residual > 0.01


def test_s4_family_validates_arguments():
    with pytest.raises(ValueError):
        s4_family_spec("w", -1, 0.0)
    with pytest.raises(ValueError):
        s4_family_spec("u", 2, 0.0)


def test_specs_refuse_nan_theta():
    # a NaN theta gives a NaN seed; the seed rule's unit-norm bound refuses it
    with pytest.raises(ValueError, match="unit"):
        strassen_theta_spec(math.nan)
    with pytest.raises(ValueError, match="unit"):
        s4_family_spec("u", -1, math.nan)


def test_s5_fixture_values():
    fx = s5_fixture()
    assert np.abs(np.linalg.matrix_power(fx.sigma, 3) - np.eye(5)).max() < 1e-12
    expected_v = math.sqrt(5 / 6) * np.array(
        [0.0, -math.sqrt(3) / 2, 0.5, -0.5, -math.sqrt(3) / 2]
    )
    assert np.abs(fx.v - expected_v).max() < 1e-12
    assert abs(fx.v @ fx.u + 1.0) < 1e-12


def test_s5_fixture_seed_pair():
    # w1 is u and w2 = sigma w1
    fx = s5_fixture()
    w1, w2 = fx.u, fx.sigma @ fx.u
    expected_w1 = np.array([1.0, math.sqrt(2), 0.0, 0.0, math.sqrt(2)]) / math.sqrt(5)
    assert np.abs(w1 - expected_w1).max() < 1e-12
    expected_w2 = np.array([math.sqrt(2), -1.0, math.sqrt(3), -math.sqrt(3), -1.0]) / math.sqrt(10)
    assert np.abs(w2 - expected_w2).max() < 1e-12
    assert abs(w1 @ w2 + 1 / 5) < 1e-12


def test_term_enumeration_is_reproducible():
    d1 = lattice_decomposition(simplex_frame(3))
    d2 = lattice_decomposition(simplex_frame(3))
    for t1, t2 in zip(d1.terms, d2.terms):
        assert np.array_equal(t1.a, t2.a)
        assert np.array_equal(t1.b, t2.b)
        assert np.array_equal(t1.c, t2.c)


def _reference_lattice(frame):
    """The per-term lattice construction the stacked builder replaced."""
    n, w = frame.n, frame.vectors
    c = n / (n + 1)
    eye = np.eye(n)
    terms = [(eye, eye, eye)]
    for i in range(frame.size):
        for j in range(frame.size):
            for k in range(frame.size):
                if i == j or j == k or k == i:
                    continue
                terms.append(
                    (
                        c * np.outer(w[i], w[j] - w[i]),
                        c * np.outer(w[j], w[k] - w[j]),
                        c * np.outer(w[k], w[i] - w[k]),
                    )
                )
    return terms


def _reference_orbit(spec):
    """The per-term orbit construction the stacked builder replaced."""
    frame = spec.frame
    sigma = lift_permutation(frame, spec.sigma_perm)
    m1 = np.outer(spec.u, spec.v)
    m2 = sigma @ m1 @ sigma.T
    m3 = sigma @ m2 @ sigma.T
    eye = np.eye(frame.n)
    terms = [(eye, eye, eye)]
    for g in spec.group:
        rho = lift_permutation(frame, g)
        terms.append((rho @ m1 @ rho.T, rho @ m2 @ rho.T, rho @ m3 @ rho.T))
    return terms


def _assert_bitwise_equal(dec, terms):
    assert dec.rank == len(terms)
    for X, side in zip((dec.U, dec.V, dec.W), zip(*terms)):
        ref = np.array(side)
        # bytes, not values: -0.0 and 0.0 would serialize differently
        assert X.dtype == ref.dtype and X.shape == ref.shape and X.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_lattice_matches_per_term_reference(n):
    frame = simplex_frame(n)
    _assert_bitwise_equal(lattice_decomposition(frame), _reference_lattice(frame))


@pytest.mark.parametrize(
    "dec, spec",
    [
        *((orbit_decomposition(orbit_spec_for(n)), orbit_spec_for(n)) for n in (2, 3, 4)),
        (strassen_theta(math.pi / 12), strassen_theta_spec(math.pi / 12)),
        (strassen_theta_sixths(1), strassen_theta_sixths_spec(1)),
        (orbit_decomposition(s4_family_spec("u", -1, 0.0)), s4_family_spec("u", -1, 0.0)),
        (orbit_decomposition(s4_family_spec("v", -1, math.pi / 2)), s4_family_spec("v", -1, math.pi / 2)),
    ],
    ids=["orbit2", "orbit3", "orbit4", "strassen-pi12", "strassen-sixths1", "s4-first", "s4-second"],
)
def test_orbit_matches_per_term_reference(dec, spec):
    _assert_bitwise_equal(dec, _reference_orbit(spec))


@pytest.mark.parametrize(
    "dec, nnz, tiny",
    [
        (orbit_decomposition(orbit_spec_for(2)), (22, 26, 26), (4, 8, 8)),
        (lattice_decomposition(simplex_frame(3)), (127, 127, 127), (12, 12, 12)),
    ],
    ids=["orbit2", "lattice3"],
)
def test_executor_nonzeros(dec, nnz, tiny):
    # nonzero coefficients per side, and those below 1e-12 (round-off that
    # still costs the executor a block operation); the benchmark predicts both
    stacks = (dec.U, dec.V, dec.W)
    assert tuple(int((X != 0.0).sum()) for X in stacks) == nnz
    assert tuple(int(((X != 0.0) & (np.abs(X) < 1e-12)).sum()) for X in stacks) == tiny
