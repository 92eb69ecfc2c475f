"""Two independent validity checkers for candidate decompositions.

verify_float materializes the dense tensor and compares entrywise with MM_n:
`tensor_of` returns a fresh array, so MM_n's ones are subtracted in place
through `mm_support` and no second n^6 tensor is built.
verify_exact_gram never touches coordinates: it evaluates the squared norm
|D - MM|^2 for the lattice construction purely from the frame's exact
rational Gram matrix, returning a Fraction that is 0 iff D = MM.  Its sums
over (pairs of) lattice terms are three traces of cubes of integer matrices,
tr(X^3) = ((X @ X) * X.T).sum(), all run as float64 GEMMs: X is split into
base-beta limbs small enough that every partial sum is an exactly held
integer (one limb when d^3 max|X|^3 < 2^53), and the limbs' traces are
combined as Python ints.
invariants_report reads its three invariants from one dense tensor T: the
operator trace as einsum("abcabc->", T), <D, MM> as the sum of
mm_support(T) and, last, <D, D> as the sum of T squared in T's own memory,
so it holds one n^6 array; it computes its factor ranks only when read.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .frames import Frame
from .tensor import Decomposition, RefusedInput, _row_groups, mm_support, tensor_of

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


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows in the residual, as inf or nan
def verify_float(dec: Decomposition, tol: float = DEFAULT_TOL) -> VerifyReport:
    """Entrywise check of tensor_of(dec) against MM_n: the largest
    |tensor_of(dec) - MM_n| entry, computed in the fresh tensor's own memory.
    A tol that is not finite and > 0 is refused before anything is built."""
    if not (math.isfinite(tol) and tol > 0):
        raise RefusedInput(f"tol must be finite and > 0, got {tol}")
    T = tensor_of(dec.to_float())
    mm_support(T)[...] -= 1.0
    residual = float(np.abs(T, out=T).max())
    return VerifyReport(max_residual=residual, tol=tol, valid=residual < tol)


def _trace_cube(X: np.ndarray) -> int:
    """tr(X^3) of a square integer matrix (int64 or Python ints), exactly, by
    float64 BLAS.  With beta - 1 the largest b with d^3 b^3 < 2^53 (d = len(X)),
    X = sum_i beta^i X_i: the lower limbs are X's base-beta digits (floor
    division) and the top limb the signed rest, each below beta in magnitude,
    so every partial sum of tr(X_i X_j X_k) = ((X_i @ X_j) * X_k.T).sum() is an
    exactly held integer; the terms beta^(i+j+k) tr(X_i X_j X_k) are summed as
    Python ints.  One limb, X itself, when d^3 max|X|^3 < 2^53."""
    beta = 208063 // len(X) + 1  # 208063^3 < 2^53 <= 208064^3
    limbs, rest = [], X
    while abs(rest).max() >= beta:
        limbs.append((rest % beta).astype(np.float64))
        rest = rest // beta
    limbs.append(rest.astype(np.float64))
    total = 0
    for (i, Xi), (j, Xj) in itertools.product(enumerate(limbs), repeat=2):
        P = Xi @ Xj
        total += sum(int((P * Xk.T).sum()) * beta ** (i + j + k) for k, Xk in enumerate(limbs))
    return total


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
        """Each term's (rank a, rank b, rank c), computed when first read: one
        SVD per distinct factor (`_row_groups`), indexed back to the terms."""
        ranks = []
        for X in (self.factors.U, self.factors.V, self.factors.W):
            where, first = _row_groups(X.reshape(self.rank, self.n**2))
            ranks.append(np.linalg.matrix_rank(X[first], tol=1e-9)[where].tolist())
        return tuple(zip(*ranks))

    def lines(self):
        yield f"n                 : {self.n}"
        yield f"terms             : {self.rank}"
        yield f"operator trace    : {self.operator_trace:.12g}  (expect n = {self.n})"
        yield f"<D, D>            : {self.frobenius_sq:.12g}  (expect n^3 = {self.n ** 3})"
        yield f"<D, MM>           : {self.inner_with_mm:.12g}  (expect n^3 = {self.n ** 3})"
        yield f"factor rank counts: {dict(sorted(Counter(self.factor_ranks).items()))}"


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows in the invariants, as inf or nan
def invariants_report(dec: Decomposition) -> InvariantsReport:
    d = dec.to_float()
    T = tensor_of(d)
    trace, dmm = float(np.einsum("abcabc->", T)), float(mm_support(T).sum())
    return InvariantsReport(
        n=dec.n,
        rank=dec.rank,
        operator_trace=trace,
        frobenius_sq=float(np.multiply(T, T, out=T).sum()),  # T is not read after this
        inner_with_mm=dmm,
        factors=d,
    )
