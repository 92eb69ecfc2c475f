import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitmm.constructions import orbit_decomposition, orbit_spec_for, standard_sigma_perm
from orbitmm.fourier2 import (
    BASIS_NAMES,
    basis_matrices,
    det_identities,
    fourier_coefficients,
    reconstruct,
    strassen_equations,
)
from orbitmm.frames import fixture_frame, lift_permutation
from orbitmm.tensor import exact_matrix, frobenius_inner, is_exact, mm_tensor, tensor_of

from conftest import outer3, random_exact_matrix

QUARTER = Fraction(1, 4)

# sign pattern of the sixteen nonzero coefficients of MM_2
GOLDEN = {
    ("1", "1", "1"): QUARTER,
    ("1", "pi", "pi"): -QUARTER,
    ("pi", "1", "pi"): -QUARTER,
    ("pi", "pi", "1"): -QUARTER,
    ("1", "rho_x", "rho_x"): QUARTER,
    ("rho_x", "1", "rho_x"): QUARTER,
    ("rho_x", "rho_x", "1"): QUARTER,
    ("1", "rho_y", "rho_y"): QUARTER,
    ("rho_y", "1", "rho_y"): QUARTER,
    ("rho_y", "rho_y", "1"): QUARTER,
    ("pi", "rho_x", "rho_y"): -QUARTER,
    ("rho_y", "pi", "rho_x"): -QUARTER,
    ("rho_x", "rho_y", "pi"): -QUARTER,
    ("pi", "rho_y", "rho_x"): QUARTER,
    ("rho_x", "pi", "rho_y"): QUARTER,
    ("rho_y", "rho_x", "pi"): QUARTER,
}


def _reference_fourier_coefficients(T):
    """The 64-term loop that fourier_coefficients replaced: one dense inner
    product with a (x) b (x) c per basis triple."""
    exact = is_exact(T)
    basis = basis_matrices(exact=exact)
    eighth = Fraction(1, 8) if exact else 0.125
    out = {}
    for na in BASIS_NAMES:
        for nb in BASIS_NAMES:
            for nc in BASIS_NAMES:
                out[(na, nb, nc)] = frobenius_inner(T, outer3(basis[na], basis[nb], basis[nc])) * eighth
    return out


def test_fourier_matches_reference_exact(rng):
    tensors = [mm_tensor(2, exact=True)]
    tensors += [outer3(*(random_exact_matrix(rng, 2) for _ in range(3))) for _ in range(5)]
    for T in tensors:
        got = fourier_coefficients(T)
        assert list(got) == list(_reference_fourier_coefficients(T))
        assert all(isinstance(v, Fraction) for v in got.values())
        assert got == _reference_fourier_coefficients(T)


def test_fourier_matches_reference_float_orbit():
    T = tensor_of(orbit_decomposition(orbit_spec_for(2)))
    got, want = fourier_coefficients(T), _reference_fourier_coefficients(T)
    assert list(got) == list(want)
    assert max(abs(got[key] - want[key]) for key in want) <= 1e-15


def test_roundtrip_float_orbit():
    T = tensor_of(orbit_decomposition(orbit_spec_for(2)))
    back = reconstruct(fourier_coefficients(T))
    assert back.dtype == np.float64
    assert np.abs(back - T).max() <= 1e-15


def test_basis_orthogonality():
    b = basis_matrices(exact=True)
    names = list(b)
    assert tuple(names) == BASIS_NAMES
    for i, x in enumerate(names):
        for j, y in enumerate(names):
            inner = (b[x] * b[y]).sum()
            assert inner == (2 if i == j else 0)


def test_golden_table_exact():
    coeffs = fourier_coefficients(mm_tensor(2, exact=True))
    assert len(coeffs) == 64
    for key, value in coeffs.items():
        assert value == GOLDEN.get(key, Fraction(0)), key


def test_rho_triples_vanish():
    coeffs = fourier_coefficients(mm_tensor(2, exact=True))
    assert coeffs[("rho_x", "rho_x", "rho_x")] == 0


def test_roundtrip_exact():
    T = mm_tensor(2, exact=True)
    assert np.array_equal(reconstruct(fourier_coefficients(T)), T)


def test_reconstruct_zero():
    zero = {(a, b, c): Fraction(0) for a in BASIS_NAMES for b in BASIS_NAMES for c in BASIS_NAMES}
    assert np.all(reconstruct(zero) == 0)


def test_reconstruct_identity_cube():
    coeffs = {(a, b, c): Fraction(0) for a in BASIS_NAMES for b in BASIS_NAMES for c in BASIS_NAMES}
    coeffs[("1", "1", "1")] = Fraction(1)
    b = basis_matrices(exact=True)
    assert np.array_equal(reconstruct(coeffs), outer3(b["1"], b["1"], b["1"]))


def test_reconstruct_requires_full_table():
    with pytest.raises(ValueError):
        reconstruct({("1", "1", "1"): Fraction(1)})


def test_fourier_rejects_wrong_size():
    with pytest.raises(ValueError):
        fourier_coefficients(mm_tensor(3))


def test_parseval_exact(rng):
    for _ in range(10):
        A, B, C = (random_exact_matrix(rng, 2) for _ in range(3))
        T = outer3(A, B, C)
        coeffs = fourier_coefficients(T)
        assert frobenius_inner(T, T) == 8 * sum(v * v for v in coeffs.values())


def _strassen_m(theta: float) -> np.ndarray:
    frame = fixture_frame("triangle-2")
    sigma = lift_permutation(frame, standard_sigma_perm(3))
    u = np.array([math.cos(theta), math.sin(theta)])
    v = 2.0 / 3.0 * (sigma @ u - u)
    return np.outer(u, v)


def test_strassen_equations_at_solution():
    residuals = strassen_equations(_strassen_m(0.0))
    assert max(abs(r) for r in residuals) < 1e-12


def test_strassen_equations_identity_matrix():
    residuals = strassen_equations(np.eye(2))
    assert residuals[0] == pytest.approx(9.0)


def test_strassen_equations_pi_over_12():
    residuals = strassen_equations(_strassen_m(math.pi / 12))
    assert max(abs(r) for r in residuals[:4]) < 1e-12
    assert residuals[4] == pytest.approx(-8.0 / (3.0 * math.sqrt(3.0)), abs=1e-9)


@pytest.mark.parametrize("k", range(12))
def test_strassen_equations_all_valid_multiples(k):
    residuals = strassen_equations(_strassen_m(k * math.pi / 6))
    assert max(abs(r) for r in residuals) < 1e-12


@pytest.mark.parametrize("k", range(6))
def test_strassen_equation_five_off_lattice(k):
    theta = math.pi / 12 + k * math.pi / 3
    residuals = strassen_equations(_strassen_m(theta))
    assert abs(abs(residuals[4]) - 8.0 / (3.0 * math.sqrt(3.0))) < 1e-9


def test_det_identities_zero_matrix():
    m = exact_matrix([[0, 0], [0, 0]])
    assert det_identities(m) == (0, 0)


def test_det_identities_fixed_matrix():
    r1, r2 = det_identities(exact_matrix([[1, 2], [3, 4]]))
    assert r1 == 0 and r2 == 0


def test_det_identities_random_exact(rng):
    for _ in range(1000):
        r1, r2 = det_identities(random_exact_matrix(rng, 2))
        assert r1 == 0 and r2 == 0


fraction_strategy = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*(fraction_strategy for _ in range(4))))
def test_det_identities_property(entries):
    m = exact_matrix([[entries[0], entries[1]], [entries[2], entries[3]]])
    assert det_identities(m) == (0, 0)
