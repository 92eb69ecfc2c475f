"""Two independent validity checkers for candidate decompositions.

verify_float materializes the dense tensor and compares entrywise with MM_n.
verify_exact_gram never touches coordinates: it evaluates the squared norm
|D - MM|^2 for the lattice construction purely from the frame's exact
rational Gram matrix, returning a Fraction that is 0 iff D = MM.  Its sums
over (pairs of) lattice terms are three traces of cubes of integer matrices,
tr(X^3) = ((X @ X) * X.T).sum(): float64 GEMMs when d^3 max|X|^3 < 2^53
(every partial sum is then an exactly held integer), Python ints otherwise.
invariants_report computes its factor ranks only when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .frames import Frame
from .tensor import (
    Decomposition,
    frobenius_inner,
    mm_tensor,
    operator_trace,
    tensor_of,
)

__all__ = ["VerifyReport", "InvariantsReport", "verify_float", "verify_exact_gram", "invariants_report"]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class VerifyReport:
    max_residual: float
    tol: float
    valid: bool

    def lines(self):
        yield f"max residual    : {self.max_residual:.3e}"
        yield f"valid (tol={self.tol:g}): {self.valid}"


def verify_float(dec: Decomposition, tol: float = DEFAULT_TOL) -> VerifyReport:
    """Entrywise check of tensor_of(dec) against mm_tensor(n)."""
    T = tensor_of(dec.to_float())
    residual = float(np.abs(T - mm_tensor(dec.n)).max())
    return VerifyReport(max_residual=residual, tol=tol, valid=residual < tol)


def _trace_cube(X: np.ndarray) -> int:
    """tr(X^3) = ((X @ X) * X.T).sum() of a square integer matrix, exactly:
    every partial sum is at most d^3 m^3 (d = len(X), m = max|X|), so below
    2^53 float64 BLAS holds them all; above it, Python ints in object arrays."""
    d, m = len(X), int(abs(X).max())
    X = X.astype(np.float64 if d**3 * m**3 < 2**53 else object)
    return int(((X @ X) * X.T).sum())


def verify_exact_gram(frame: Frame) -> Fraction:
    """|D - MM|^2 as an exact rational, where D is the lattice decomposition
    of the frame.  Expands to <D,D> - 2<D,MM> + n^3; every inner product
    reduces to Gram entries:

      <|x><y|, |x'><y'|>             = <x,x'> <y,y'>
      <MM, a (x) b (x) c>            = tr abc
      <1^(x)3, a (x) b (x) c>        = tr a * tr b * tr c

    Term (i, j, k), for distinct i, j, k, is the product of c |w_i><w_j - w_i|,
    c |w_j><w_k - w_j| and c |w_k><w_i - w_k| (c = n/(n+1)).  With G the Gram
    matrix over a common denominator L, the sums over (pairs of) terms are
    traces of cubes of integer matrices (see `_trace_cube`):

      pair double sum  tr(M^3) / L^6,  M[(i,i'),(j,j')] = G[i,i'] <w_j - w_i, w_j' - w_i'>
      <1^(x)3, terms>  tr(A^3) / L^3,  A[x,y] = G[y,x] - G[x,x]
      <MM, terms>      tr(B^3) / L^3,  B[x,y] = G[y,y] - G[x,y]

    M vanishes where i = j or i' = j', and A, B on their diagonals, so the
    traces run over distinct triples only.
    """
    n, k = frame.n, frame.size
    c = Fraction(n, n + 1)
    L = math.lcm(*(g.denominator for g in frame.gram.flat))
    Gi = np.array([int(g * L) for g in frame.gram.flat], dtype=object).reshape(k, k)
    # M's entries are at most 4 max|G|^2, so below 2^20 they fit int64
    Gi = Gi.astype(np.int64 if abs(Gi).max() < 2**20 else object)
    G4 = Gi[:, :, None, None]  # axes (i, i', j, j')
    inner = Gi[None, None] - Gi.T[None, :, :, None] - Gi[:, None, None, :] + G4
    pair_sum = _trace_cube((G4 * inner).reshape(k * k, k * k))
    diag = Gi.diagonal()
    id_cross = Fraction(_trace_cube(Gi.T - diag[:, None]), L**3)
    mm_cross = Fraction(_trace_cube(diag[None, :] - Gi), L**3)

    n3 = Fraction(n**3)
    dd = n3 + 2 * c**3 * id_cross + c**6 * Fraction(pair_sum, L**6)  # <D, D>; <1,1>^3 = n^3
    dmm = Fraction(n) + c**3 * mm_cross  # <D, MM>; <MM, 1^(x)3> = n
    return dd - 2 * dmm + n3


@dataclass(frozen=True)
class InvariantsReport:
    n: int
    rank: int
    operator_trace: float
    frobenius_sq: float
    inner_with_mm: float
    factors: Decomposition = field(repr=False, compare=False)

    @cached_property
    def factor_ranks(self) -> tuple:
        """Each term's (rank a, rank b, rank c), computed when first read."""
        d = self.factors
        return tuple(zip(*(np.linalg.matrix_rank(X, tol=1e-9).tolist() for X in (d.U, d.V, d.W))))

    def lines(self):
        yield f"n                 : {self.n}"
        yield f"terms             : {self.rank}"
        yield f"operator trace    : {self.operator_trace:.12g}  (expect n = {self.n})"
        yield f"<D, D>            : {self.frobenius_sq:.12g}  (expect n^3 = {self.n ** 3})"
        yield f"<D, MM>           : {self.inner_with_mm:.12g}  (expect n^3 = {self.n ** 3})"
        counts = {}
        for r in self.factor_ranks:
            counts[r] = counts.get(r, 0) + 1
        yield f"factor rank counts: {dict(sorted(counts.items()))}"


def invariants_report(dec: Decomposition) -> InvariantsReport:
    d = dec.to_float()
    T = tensor_of(d)
    return InvariantsReport(
        n=dec.n,
        rank=dec.rank,
        operator_trace=float(operator_trace(T)),
        frobenius_sq=float(frobenius_inner(T, T)),
        inner_with_mm=float(frobenius_inner(T, mm_tensor(dec.n))),
        factors=d,
    )
