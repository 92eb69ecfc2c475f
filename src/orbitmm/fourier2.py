"""The complete n=2 harmonic analysis: basis, coefficients, reconstruction,
and the five constraint equations on the seed matrix m.

Basis elements are enumerated in the fixed order ("1", "pi", "rho_x",
"rho_y"); the 64-entry coefficient table is keyed by name triples in that
order, which is also the export order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

__all__ = [
    "BASIS_NAMES",
    "BASIS",
    "fourier_coefficients",
    "reconstruct",
    "strassen_equations",
    "det_identities",
]

BASIS_NAMES = ("1", "pi", "rho_x", "rho_y")

# The four pairwise-orthogonal basis matrices, each with <a, a> = 2, in
# BASIS_NAMES order.  Integer entries keep every product in its operand's
# scalar kind: exact with Fraction operands, float64 with float64 ones.
BASIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, -1], [1, 0]],
        [[1, 0], [0, -1]],
        [[0, -1], [-1, 0]],
    ]
)


def fourier_coefficients(T: np.ndarray) -> dict[tuple[str, str, str], Fraction]:
    """All 64 coefficients c(alpha, beta, gamma) = <T, a (x) b (x) c> / 8.

    One change of basis on each of T's three slots.  Exact for object-dtype
    tensors, float for float tensors.
    """
    if T.shape != (2,) * 6:
        raise ValueError("fourier_coefficients requires an n=2 tensor")
    # T over its slots (a,d), (b,e), (c,f); each tensordot contracts the
    # leading slot with the basis and appends that slot's coefficient axis
    C = T.transpose(0, 3, 1, 4, 2, 5).reshape(4, 4, 4)
    for _ in range(3):
        C = np.tensordot(C, BASIS.reshape(4, 4), axes=(0, 1))
    return dict(zip(product(BASIS_NAMES, repeat=3), (C / 8).flat))


def reconstruct(coeffs: dict[tuple[str, str, str], Fraction]) -> np.ndarray:
    """Sum c(a,b,c) * a (x) b (x) c over the full 64-entry table: the change
    of basis of fourier_coefficients run backwards (without its 1/8)."""
    keys = list(product(BASIS_NAMES, repeat=3))
    missing = [key for key in keys if key not in coeffs]
    if missing:
        raise ValueError(f"coefficient table incomplete, e.g. missing {missing[0]}")
    T = np.array([coeffs[key] for key in keys]).reshape(4, 4, 4)
    for _ in range(3):
        T = np.tensordot(T, BASIS.reshape(4, 4), axes=(0, 0))
    # slots (a,d), (b,e), (c,f) back to the index order (a,b,c,d,e,f)
    return T.reshape((2,) * 6).transpose(0, 2, 4, 1, 3, 5)


def _traces(m: np.ndarray):
    """(tr m, tr pi m, tr rho_x m, tr rho_y m)."""
    return tuple(np.trace(b @ m) for b in BASIS)


def strassen_equations(m: np.ndarray) -> tuple[float, float, float, float, float]:
    """Left-minus-right residuals of the five simplified constraint equations
    on a 2x2 seed matrix m.  All five vanish iff the S3 orbit of |u><v| = m
    completes the identity term to MM_2."""
    if m.shape != (2, 2):
        raise ValueError("strassen_equations requires a 2x2 matrix")
    t1, tpi, tx, ty = (float(x) for x in _traces(m))
    rr = tx * tx + ty * ty
    return (
        t1**3 + 1.0,
        t1 * tpi**2 + 1.0 / 3.0,
        t1 * (-0.5) * rr - 2.0 / 3.0,
        tpi * (-math.sqrt(3.0) / 2.0) * rr + 2.0 / 3.0,
        tx**3 - 3.0 * tx * ty**2,
    )


def det_identities(m: np.ndarray):
    """Residuals of the two algebraic identities
    (tr m)^2 + (tr pi m)^2 = |m|^2 + 2 det m  and
    (tr rho_x m)^2 + (tr rho_y m)^2 = |m|^2 - 2 det m.
    Both are exactly zero for every 2x2 matrix; exact when m is exact."""
    if m.shape != (2, 2):
        raise ValueError("det_identities requires a 2x2 matrix")
    t1, tpi, tx, ty = _traces(m)
    frob = (m * m).sum()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    r1 = t1 * t1 + tpi * tpi - (frob + 2 * det)
    r2 = tx * tx + ty * ty - (frob - 2 * det)
    return r1, r2
