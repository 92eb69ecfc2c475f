import math

import numpy as np
import pytest

from orbitmm.constraints import (
    S4_SIGMA,
    necessary_conditions,
    s4_basis,
    s4_constraints,
    transpose_transform,
    z_from_y,
)
from orbitmm.constructions import (
    OrbitSpec,
    _y_of,
    orbit_decomposition,
    orbit_spec_for,
    s5_fixture,
    standard_sigma_perm,
    symmetric_group,
)
from orbitmm.frames import fixture_frame, lift_permutation, simplex_frame
from orbitmm.verify import verify_float

SQ2, SQ3, SQ6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)

S4_TARGET = (-0.25, 0.25, 1.0 / 32.0)


def triangle_sigma():
    return lift_permutation(fixture_frame("triangle-2"), standard_sigma_perm(3))


def first_family_uv():
    u = 0.5 * math.sqrt(1.5) * np.array([-1.0, 1.0, 1.0])
    v = math.sqrt(2.0 / 3.0) * np.array([1.0, -1.0, 0.0])
    return u, v


def second_family_uv():
    theta = 2 * math.pi / 3 * 0.75
    y = _y_of(theta)
    u = y
    v = z_from_y(y, S4_SIGMA) - 1.0 / (3.0 * SQ2) * np.array([-1.0, -1.0, -1.0])
    return u, v


def test_s4_basis_orthogonality():
    b = s4_basis()
    names = list(b)
    assert len(names) == 9  # 1, beta_x, beta_y, s1..s3, a1..a3 span rho (x) rho*
    for i, x in enumerate(names):
        for j, y in enumerate(names):
            if i != j:
                assert abs((b[x] * b[y]).sum()) < 1e-12
    for i in (1, 2, 3):
        assert np.allclose(b[f"s{i}"], b[f"s{i}"].T)
        assert np.allclose(b[f"a{i}"], -b[f"a{i}"].T)
    assert abs(np.trace(b["beta_x"])) < 1e-12
    assert abs(np.trace(b["beta_y"])) < 1e-12


def test_necessary_conditions_strassen():
    u = np.array([1.0, 0.0])
    v = np.array([-1.0, 1.0 / SQ3])
    triple = necessary_conditions(u, v, triangle_sigma())
    assert np.abs(np.array(triple) - (-1.0, 1.0, 0.0)).max() < 1e-12


def test_necessary_conditions_failing_pair():
    e1 = np.array([1.0, 0.0])
    triple = necessary_conditions(e1, e1, triangle_sigma())
    assert np.abs(np.array(triple) - (1.0, -0.5, -0.5)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_necessary_conditions_standard_solutions(n):
    spec = orbit_spec_for(n)
    sigma = lift_permutation(spec.frame, spec.sigma_perm)
    triple = necessary_conditions(spec.u, spec.v, sigma)
    assert np.abs(np.array(triple) - (-1.0, 1.0, 0.0)).max() < 1e-10


def test_necessary_conditions_s5_fixture():
    fx = s5_fixture()
    triple = necessary_conditions(fx.u, fx.v, fx.sigma)
    assert np.abs(np.array(triple) - (-1.0, 1.0, 0.0)).max() < 1e-10


def test_necessary_conditions_rejects_bad_sigma():
    with pytest.raises(ValueError):
        necessary_conditions(np.ones(2), np.ones(2), np.array([[1.0, 0], [0, -1]]))
    with pytest.raises(ValueError):
        necessary_conditions(np.ones(2), np.ones(2), 2 * np.eye(2))
    # every comparison with NaN is False, so a NaN must fail the bounds, not pass them
    sigma = triangle_sigma()
    sigma[0, 0] = math.nan
    with pytest.raises(ValueError, match="orthogonal"):
        necessary_conditions(np.ones(2), np.ones(2), sigma)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_conditions_from_orbit(n):
    # n^3 + |G| <v,u>^3 = n and n + |G| <v,su>^3 = n^3 for valid seeds
    spec = orbit_spec_for(n)
    sigma = lift_permutation(spec.frame, spec.sigma_perm)
    vu, vsu, vs2u = necessary_conditions(spec.u, spec.v, sigma)
    size = n**3 - n
    assert abs(n**3 + size * vu**3 - n) < 1e-8
    assert abs(n + size * vsu**3 - n**3) < 1e-8
    assert abs(vs2u) < 1e-8


def test_z_from_y_strassen():
    z = z_from_y(np.array([1.0, 0.0]), triangle_sigma())
    assert np.abs(z - np.array([-1.0, 1.0 / SQ3])).max() < 1e-12


def test_z_from_y_s4():
    y = _y_of(0.0)
    z = z_from_y(y, S4_SIGMA)
    assert np.abs(z - (2.0 / SQ3) * _y_of(5 * math.pi / 6)).max() < 1e-12


def test_z_from_y_fixed_vector():
    # the S4 sigma fixes (1,1,1)/sqrt(3)
    y = np.ones(3) / SQ3
    assert np.abs(z_from_y(y, S4_SIGMA)).max() < 1e-12


def test_z_from_y_requires_unit():
    with pytest.raises(ValueError):
        z_from_y(np.array([2.0, 0.0]), triangle_sigma())
    with pytest.raises(ValueError, match="unit"):
        z_from_y(np.array([math.nan, 0.0]), triangle_sigma())


def test_s4_constraints_first_family():
    vals = s4_constraints(*first_family_uv())
    assert np.abs(np.array(vals) - S4_TARGET).max() < 1e-12


def test_s4_constraints_second_family():
    vals = s4_constraints(*second_family_uv())
    assert np.abs(np.array(vals) - S4_TARGET).max() < 1e-12


def test_s4_constraints_failing_pair():
    e1 = np.array([1.0, 0.0, 0.0])
    vals = s4_constraints(e1, e1)
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert abs(vals[2] - S4_TARGET[2]) > 1e-3


def test_s4_constraints_conjugation_invariant():
    # invariant under the lifted stabilizer of the fourth frame vector,
    # which is where the sigma used by the constraint basis lives
    frame = fixture_frame("tetrahedron-3")
    u, v = first_family_uv()
    base = np.array(s4_constraints(u, v))
    stab = [g for g in symmetric_group(4) if g[3] == 3]
    assert len(stab) == 6
    for g in stab:
        rho = lift_permutation(frame, g)
        conj = np.array(s4_constraints(rho @ u, rho @ v))
        assert np.abs(conj - base).max() < 1e-10


def test_s4_constraints_not_invariant_off_stabilizer():
    frame = fixture_frame("tetrahedron-3")
    u, v = first_family_uv()
    base = np.array(s4_constraints(u, v))
    rho = lift_permutation(frame, (0, 3, 1, 2))
    conj = np.array(s4_constraints(rho @ u, rho @ v))
    assert np.abs(conj - base).max() > 1e-3


def test_s4_constraints_rejects_wrong_dim():
    with pytest.raises(ValueError):
        s4_constraints(np.ones(2), np.ones(2))


def test_transpose_transform_first_to_second_family():
    u, v = first_family_uv()
    m = np.outer(u, v)
    tau = lift_permutation(fixture_frame("tetrahedron-3"), (0, 2, 1, 3))
    expected = np.array([[-1.0, 1, 1], [0, 0, 0], [1, -1, -1]]) / 2
    assert np.abs(transpose_transform(m, tau) - expected).max() < 1e-12


def test_transpose_transform_symmetric_identity():
    m = np.array([[1.0, 2], [2, 3]])
    assert np.array_equal(transpose_transform(m, np.eye(2)), m)


def test_transpose_transform_involution():
    m = np.outer(*first_family_uv())
    tau = lift_permutation(fixture_frame("tetrahedron-3"), (0, 2, 1, 3))
    twice = transpose_transform(transpose_transform(m, tau), tau)
    assert np.abs(twice - m).max() < 1e-12


def test_transpose_transform_rejects_singular():
    with pytest.raises(ValueError):
        transpose_transform(np.eye(2), np.zeros((2, 2)))
    tau = np.eye(3)
    tau[0, 0] = np.nan  # a NaN determinant fails the bound too
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="invertible"):
        transpose_transform(np.eye(3), tau)


@pytest.mark.parametrize("n", [2, 3])
def test_transpose_symmetry_end_to_end(n):
    # building the orbit from tau^-1 m^T tau still decomposes MM
    spec = orbit_spec_for(n)
    frame = spec.frame
    tau_perm = (0, 2, 1) if n == 2 else (0, 2, 1, 3)
    tau = lift_permutation(frame, tau_perm)
    m = np.outer(spec.u, spec.v)
    mt = transpose_transform(m, tau)
    # decompose m' = |u'><v'| again (rank 1)
    uu, ss, vv = np.linalg.svd(mt)
    u2 = uu[:, 0] * ss[0]
    v2 = vv[0]
    spec2 = OrbitSpec(frame, spec.group, spec.sigma_perm, u2, v2)
    rep = verify_float(orbit_decomposition(spec2), tol=1e-9)
    assert rep.max_residual < 1e-9
