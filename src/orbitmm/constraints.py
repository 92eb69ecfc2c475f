"""Necessary conditions on the seed vectors of an orbit decomposition, the
S4-specific constraint values for n=3, and the transpose-symmetry transform.

Every representation in scope is real orthogonal, so all daggers specialize
to transposes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "s4_basis",
    "necessary_conditions",
    "z_from_y",
    "s4_constraints",
    "transpose_transform",
    "S4_SIGMA",
]

SQ3 = math.sqrt(3)

# Order-3 signed-permutation element rho((123)) used by the n=3 constraints.
S4_SIGMA = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def s4_basis() -> dict[str, np.ndarray]:
    """The nine pairwise-orthogonal 3x3 basis matrices: identity, the two
    trace-zero diagonals beta_x/beta_y, the hollow symmetric s1..s3, and the
    antisymmetric a1..a3."""
    return {
        "1": np.eye(3),
        "beta_x": np.diag([1.0, -0.5, -0.5]),
        "beta_y": np.diag([0.0, SQ3 / 2, -SQ3 / 2]),
        "s1": np.array([[0.0, 0, 0], [0, 0, 1], [0, 1, 0]]),
        "s2": np.array([[0.0, 0, 1], [0, 0, 0], [1, 0, 0]]),
        "s3": np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        "a1": np.array([[0.0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        "a2": np.array([[0.0, 0, -1], [0, 0, 0], [1, 0, 0]]),
        "a3": np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
    }


def _check_order3(sigma: np.ndarray, tol: float = 1e-10):
    n = sigma.shape[0]
    # written as "not <=" so that NaN entries fail the bounds too
    if not np.abs(sigma.T @ sigma - np.eye(n)).max() <= tol:
        raise ValueError("sigma is not orthogonal")
    if not np.abs(np.linalg.matrix_power(sigma, 3) - np.eye(n)).max() <= tol:
        raise ValueError("sigma is not of order dividing 3")


def necessary_conditions(
    u: np.ndarray, v: np.ndarray, sigma: np.ndarray
) -> tuple[float, float, float]:
    """The triple (<v,u>, <v,sigma u>, <v,sigma^2 u>).  A valid orbit seed
    satisfies (-1, +1, 0); comparison is the caller's job."""
    _check_order3(sigma)
    su = sigma @ u
    ssu = sigma @ su
    return float(v @ u), float(v @ su), float(v @ ssu)


def z_from_y(y: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The unique z in the rotation plane of sigma pairing correctly with a
    unit vector y: z = (2/3)(sigma y - y)."""
    _check_order3(sigma)
    if not abs(float(y @ y) - 1.0) <= 1e-10:  # NaN fails it too
        raise ValueError("y must be a unit vector")
    return 2.0 / 3.0 * (sigma @ y - y)


def s4_constraints(u: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """The three n=3 constraint values; valid seeds give (-1/4, 1/4, 1/32).

    Returns (sum over cyclic pairs of <v|s_i|u><v|s_j|u>, the same with the
    antisymmetric a_i, and the product of <v|beta_x^{sigma^k}|u> for k=0,1,2
    where beta^sigma = sigma^T beta sigma).
    """
    if u.shape != (3,) or v.shape != (3,):
        raise ValueError("s4_constraints requires 3-vectors")
    b = s4_basis()
    sv = [float(v @ b[f"s{i}"] @ u) for i in (1, 2, 3)]
    av = [float(v @ b[f"a{i}"] @ u) for i in (1, 2, 3)]
    cyc = lambda x: x[0] * x[1] + x[1] * x[2] + x[2] * x[0]
    bx = b["beta_x"]
    bx1 = S4_SIGMA.T @ bx @ S4_SIGMA
    bx2 = S4_SIGMA.T @ bx1 @ S4_SIGMA
    box = float(v @ bx @ u) * float(v @ bx1 @ u) * float(v @ bx2 @ u)
    return cyc(sv), cyc(av), box


def transpose_transform(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """tau^{-1} m^T tau.  If m seeds a valid orbit decomposition and
    tau^{-1} sigma tau = sigma^{-1}, the transformed matrix does too."""
    if not (abs(np.linalg.det(tau)) >= 1e-12):  # NaN fails too
        raise ValueError("tau must be invertible")
    return np.linalg.solve(tau, m.T) @ tau
