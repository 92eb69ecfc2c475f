import math
import random

import numpy as np
import pytest

from orbitmm.constructions import (
    OrbitSpec,
    alternating_group,
    lattice_decomposition,
    orbit_decomposition,
    orbit_spec_for,
    standard_uv,
    s4_family,
    s4_family_spec,
    s5_fixture,
    standard_group,
    standard_sigma_perm,
    strassen_theta,
    strassen_theta_sixths,
    strassen_theta_sixths_spec,
    strassen_theta_spec,
    symmetric_group,
)
from orbitmm.frames import lift_permutation, simplex_frame
from orbitmm.tensor import RefusedInput, tensor_of
from orbitmm.verify import verify_float

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


def test_group_sizes():
    assert len(symmetric_group(3)) == 6
    assert len(symmetric_group(4)) == 24
    assert len(alternating_group(5)) == 60
    assert standard_group(2) == symmetric_group(3)


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
    frame = orbit_spec_for(n).frame
    T_orbit = tensor_of(orbit_decomposition(orbit_spec_for(n, frame)))
    T_lattice = tensor_of(lattice_decomposition(frame))
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
        f = simplex_frame(n)
        u, v = standard_uv(f)
        # u = alpha w1, v = beta (w2 - w1) with alpha * beta = n/(n+1)
        alpha = u @ f.vectors[0]
        assert np.abs(u - alpha * f.vectors[0]).max() < 1e-12
        beta = (v @ (f.vectors[1] - f.vectors[0])) / (
            (f.vectors[1] - f.vectors[0]) @ (f.vectors[1] - f.vectors[0])
        )
        assert abs(alpha * beta - n / (n + 1)) < 1e-12
    with pytest.raises(ValueError):
        standard_uv(simplex_frame(5))


def test_standard_orbit_refuses_other_n():
    for build in (orbit_spec_for, standard_group, lambda n: standard_uv(simplex_frame(n))):
        with pytest.raises(RefusedInput, match="n=5"):
            build(5)


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
    dec = s4_family("u", -1, 0.0)
    assert verify_float(dec, tol=1e-10).valid
    # the seed rank-1 matrix appears as the first non-identity term
    m = np.array([[-1.0, 1, 0], [1, -1, 0], [1, -1, 0]]) / 2
    first = dec.terms[1]
    assert np.abs(first.a - m).max() < 1e-10


def test_s4_family_second_valid():
    dec = s4_family("v", -1, 2 * math.pi / 3 * 0.75)
    assert verify_float(dec, tol=1e-10).valid


@pytest.mark.parametrize(
    "which,sign,theta",
    [
        ("u", 1, 2 * math.pi / 3 * 0.5),
        ("v", 1, 2 * math.pi / 3 * 0.25),
    ],
)
def test_s4_family_other_branches_valid(which, sign, theta):
    assert verify_float(s4_family(which, sign, theta), tol=1e-10).valid


def test_s4_family_invalid_theta():
    rep = verify_float(s4_family("u", -1, 2 * math.pi / 9))
    assert not rep.valid
    assert rep.max_residual > 0.01


def test_s4_family_validates_arguments():
    with pytest.raises(ValueError):
        s4_family("w", -1, 0.0)
    with pytest.raises(ValueError):
        s4_family("u", 2, 0.0)


def test_s5_fixture_values():
    fx = s5_fixture()
    assert np.abs(np.linalg.matrix_power(fx.sigma, 3) - np.eye(5)).max() < 1e-12
    expected_v = math.sqrt(5 / 6) * np.array(
        [0.0, -math.sqrt(3) / 2, 0.5, -0.5, -math.sqrt(3) / 2]
    )
    assert np.abs(fx.v - expected_v).max() < 1e-12
    assert abs(fx.v @ fx.u + 1.0) < 1e-12


def test_s5_fixture_seed_pair():
    fx = s5_fixture()
    assert np.allclose(fx.w2, fx.sigma @ fx.w1)
    expected_w2 = np.array([math.sqrt(2), -1.0, math.sqrt(3), -math.sqrt(3), -1.0]) / math.sqrt(10)
    assert np.abs(fx.w2 - expected_w2).max() < 1e-12
    assert abs(fx.w1 @ fx.w2 + 1 / 5) < 1e-12
    assert np.array_equal(fx.u, fx.w1)


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
        (s4_family("u", -1, 0.0), s4_family_spec("u", -1, 0.0)),
        (s4_family("v", -1, math.pi / 2), s4_family_spec("v", -1, math.pi / 2)),
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
