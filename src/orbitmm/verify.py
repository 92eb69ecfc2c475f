"""Two independent validity checkers for candidate decompositions.

verify_float materializes the dense tensor and compares entrywise with MM_n.
verify_exact_gram never touches coordinates: it evaluates the squared norm
|D - MM|^2 for the lattice construction purely from the frame's exact
rational Gram matrix, returning a Fraction that is 0 iff D = MM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    n: int
    rank: int
    max_residual: float
    operator_trace: float
    frobenius_sq: float
    tol: float
    valid: bool

    def lines(self):
        yield f"n               : {self.n}"
        yield f"rank            : {self.rank}"
        yield f"max residual    : {self.max_residual:.3e}"
        yield f"operator trace  : {self.operator_trace:.12g}"
        yield f"<D, D>          : {self.frobenius_sq:.12g}"
        yield f"valid (tol={self.tol:g}): {self.valid}"


def verify_float(dec: Decomposition, tol: float = DEFAULT_TOL) -> VerifyReport:
    """Entrywise check of tensor_of(dec) against mm_tensor(n)."""
    T = tensor_of(dec.to_float())
    residual = float(np.abs(T - mm_tensor(dec.n)).max())
    return VerifyReport(
        n=dec.n,
        rank=dec.rank,
        max_residual=residual,
        operator_trace=float(operator_trace(T)),
        frobenius_sq=float(frobenius_inner(T, T)),
        tol=tol,
        valid=residual < tol,
    )


def verify_exact_gram(frame: Frame) -> Fraction:
    """|D - MM|^2 as an exact rational, where D is the lattice decomposition
    of the frame.  Expands to <D,D> - 2<D,MM> + n^3; every inner product
    reduces to Gram entries:

      <|x><y|, |x'><y'|>             = <x,x'> <y,y'>
      <MM, a (x) b (x) c>            = tr abc
      <1^(x)3, a (x) b (x) c>        = tr a * tr b * tr c

    The pairwise double sum over the n^3 - n lattice terms is computed
    directly (no algebraic shortcuts) over a common integer denominator.
    """
    frame.require_simplex()
    n = frame.n
    k = frame.size
    G = frame.gram
    c = Fraction(n, n + 1)

    # common denominator: all arithmetic below is integer until the end
    L = 1
    for i in range(k):
        for j in range(k):
            L = L * G[i, j].denominator // math.gcd(L, G[i, j].denominator)
    Gi = [[int(G[i, j] * L) for j in range(k)] for i in range(k)]

    # per-slot inner products: slot (i, j) encodes c |w_i><w_j - w_i|
    # P[(i,j)][(i',j')] * c^2 / L^2 = <slot, slot'>
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

    # <t, t'> double sum (integer, denominator L^6, coefficient c^6)
    pair_sum = 0
    for s1, s2, s3 in triples:
        r1, r2, r3 = P[s1], P[s2], P[s3]
        pair_sum += sum(
            r1[u1] * r2[u2] * r3[u3] for u1, u2, u3 in triples
        )
    dd_terms = c**6 * Fraction(pair_sum, L**6)

    # traces: tr(c |w_i><w_j - w_i|) = c (<w_j, w_i> - <w_i, w_i>)
    # <MM, term> = c^3 <w_j - w_i, w_j> <w_k - w_j, w_k> <w_i - w_k, w_i>
    id_cross = Fraction(0)
    mm_cross = Fraction(0)
    for i in range(k):
        for j in range(k):
            for kk in range(k):
                if i == j or j == kk or kk == i:
                    continue
                id_cross += (
                    (G[j, i] - G[i, i]) * (G[kk, j] - G[j, j]) * (G[i, kk] - G[kk, kk])
                )
                mm_cross += (
                    (G[j, j] - G[i, j]) * (G[kk, kk] - G[j, kk]) * (G[i, i] - G[kk, i])
                )
    id_cross *= c**3
    mm_cross *= c**3

    n3 = Fraction(n**3)
    dd = n3 + 2 * id_cross + dd_terms  # <D, D>; <1,1>^3 = n^3
    dmm = Fraction(n) + mm_cross  # <D, MM>; <MM, 1^(x)3> = n
    return dd - 2 * dmm + n3


@dataclass(frozen=True)
class InvariantsReport:
    n: int
    rank: int
    operator_trace: float
    frobenius_sq: float
    inner_with_mm: float
    factor_ranks: tuple

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
    mm = mm_tensor(dec.n)
    ranks = (np.linalg.matrix_rank(X, tol=1e-9).tolist() for X in (d.U, d.V, d.W))
    factor_ranks = tuple(zip(*ranks))
    return InvariantsReport(
        n=dec.n,
        rank=dec.rank,
        operator_trace=float(operator_trace(T)),
        frobenius_sq=float(frobenius_inner(T, T)),
        inner_with_mm=float(frobenius_inner(T, mm)),
        factor_ranks=factor_ranks,
    )
