"""Simplex frames: n+1 unit vectors in R^n at the corners of a regular simplex.

A simplex frame satisfies <w_i, w_j> = -1/n for i != j, sum_i w_i = 0, and the
tight-frame identity (n/(n+1)) sum_i |w_i><w_i| = 1.  Coordinates are float64
(they involve square roots); the Gram matrix is carried exactly as Fractions,
and every exactness claim in the package routes through the Gram, never
through coordinates.  Every Frame is a simplex frame; the n = 5 S5 data of
the source is a seed pair, not a frame, and lives in constructions.s5_fixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensor import RefusedInput

__all__ = [
    "Frame",
    "simplex_frame",
    "fixture_frame",
    "lift_permutation",
    "FIXTURE_NAMES",
]

SQ2, SQ3, SQ5 = math.sqrt(2), math.sqrt(3), math.sqrt(5)


@dataclass(frozen=True)
class Frame:
    """A simplex frame: n+1 unit vectors in R^n with their exact rational
    Gram matrix (diagonal 1, off-diagonal -1/n)."""

    n: int
    vectors: np.ndarray  # shape (n+1, n), float64, rows are the w_i
    gram: np.ndarray  # shape (n+1, n+1), object dtype of Fractions
    label: str

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def _simplex_gram(n: int) -> np.ndarray:
    g = np.full((n + 1, n + 1), Fraction(-1, n), dtype=object)
    np.fill_diagonal(g, Fraction(1))
    return g


def simplex_frame(n: int) -> Frame:
    """Corners of a regular simplex: project the n+1 standard basis vectors of
    R^{n+1} onto the hyperplane orthogonal to the all-ones vector, normalize."""
    if n < 1:
        raise RefusedInput(f"a simplex frame needs n >= 1, got n={n}")
    # orthonormal (Helmert) basis of the hyperplane 1^perp in R^{n+1}
    basis = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -k
        basis[k - 1] /= math.sqrt(k * (k + 1))
    proj = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1))
    vecs = (basis @ proj.T).T  # rows: images of e_i, squared norm n/(n+1)
    vecs *= math.sqrt((n + 1) / n)
    return Frame(n=n, vectors=vecs, gram=_simplex_gram(n), label=f"generic-{n}")


# Explicit coordinate fixtures.  The tetrahedron vertices (+-1,+-1,+-1) are
# normalized by 1/sqrt(3) so that all frames follow the unit-norm convention.

_S5P = math.sqrt(5 + SQ5)
_S5M = math.sqrt(5 - SQ5)

_FIXTURES = {
    "triangle-2": [
        (1.0, 0.0),
        (-0.5, SQ3 / 2),
        (-0.5, -SQ3 / 2),
    ],
    "tetrahedron-3": [
        (-1 / SQ3, 1 / SQ3, 1 / SQ3),
        (1 / SQ3, -1 / SQ3, 1 / SQ3),
        (1 / SQ3, 1 / SQ3, -1 / SQ3),
        (-1 / SQ3, -1 / SQ3, -1 / SQ3),
    ],
    "simplex-4": [
        (1 / SQ2, 0.0, 1 / SQ2, 0.0),
        ((SQ5 - 1) / (4 * SQ2), _S5P / 4, -(SQ5 + 1) / (4 * SQ2), _S5M / 4),
        (-(SQ5 + 1) / (4 * SQ2), _S5M / 4, (SQ5 - 1) / (4 * SQ2), -_S5P / 4),
        (-(SQ5 + 1) / (4 * SQ2), -_S5M / 4, (SQ5 - 1) / (4 * SQ2), _S5P / 4),
        ((SQ5 - 1) / (4 * SQ2), -_S5P / 4, -(SQ5 + 1) / (4 * SQ2), -_S5M / 4),
    ],
}

FIXTURE_NAMES = tuple(_FIXTURES)


def fixture_frame(name: str) -> Frame:
    """Explicit coordinate fixtures for n = 2, 3, 4."""
    if name not in _FIXTURES:
        raise RefusedInput(f"unknown fixture {name!r}; known: {FIXTURE_NAMES}")
    vecs = np.array(_FIXTURES[name])
    n = vecs.shape[1]
    return Frame(n=n, vectors=vecs, gram=_simplex_gram(n), label=name)


def lift_permutation(frame: Frame, perm) -> np.ndarray:
    """Orthogonal matrix rho with rho w_i = w_{perm(i)} for all frame indices.

    Uses the closed form rho = (n/(n+1)) sum_i |w_{perm(i)}><w_i| that follows
    from the tight-frame identity; perm is a 0-based tuple of images.
    """
    k = frame.size
    if sorted(perm) != list(range(k)):
        raise ValueError("perm must be a bijection on frame indices")
    w = frame.vectors
    n = frame.n
    rho = np.zeros((n, n))
    for i in range(k):
        rho += np.outer(w[perm[i]], w[i])
    return n / (n + 1) * rho

