"""Dense order-3 tensors over n x n matrix slots, and separable-sum decompositions.

A Tensor3 over dimension n is a dense numpy array of shape (n,)*6.  The index
convention, fixed here once and for all, is

    T[a, b, c, d, e, f]

where (a, b, c) are the row indices of the three matrix slots and (d, e, f)
the column indices.  The matrix multiplication tensor chains the slots:
entry 1 exactly when d = b, e = c, f = a (the column index of each slot
equals the row index of the next, cyclically), which is what makes the
pairing <MM, A (x) B (x) C> = sum MM[a..f] A[a,d] B[b,e] C[c,f] equal
tr ABC.  This orientation is fixed here, in this one place.

A decomposition is stored once, as its CP (Kruskal) factor stacks U, V, W,
each of shape (r, n, n): term r is U[r] (x) V[r] (x) W[r].  Every module
reads the stacks; the derived `terms` property is a tuple of (a, b, c)
views into them, for callers that want one term at a time.

Two scalar kinds are supported: float64 stacks, and object stacks holding
`fractions.Fraction` values for exact work.  A decomposition is homogeneous
in scalar kind (mixing them raises ValueError); conversion is explicit
(`to_float`, which returns the decomposition itself when it is already
float64).

`tensor_of` builds the dense tensor from the stacks: the row-wise Kronecker
product KR[r] = a_r (x) b_r (r x n^4) times W (r x n^2) is one GEMM, taken
over chunks of n^2 terms so that no temporary exceeds the n^6 entries of the
result.  Every dense n^6 tensor (`tensor_of`, `mm_tensor`) is refused with
a RefusedInput (a ValueError), before anything is allocated, when its
float64 size would exceed MAX_DENSE_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

__all__ = [
    "RefusedInput",
    "Rank1Term",
    "Decomposition",
    "MAX_DENSE_BYTES",
    "exact_matrix",
    "is_exact",
    "mm_tensor",
    "tensor_of",
    "frobenius_inner",
    "operator_trace",
]


class RefusedInput(ValueError):
    """A documented refusal of an input the package does not handle (a dense
    tensor above MAX_DENSE_BYTES, a plan that cannot split, an unknown
    fixture frame), raised before any work is done."""


# Largest dense n^6 tensor built here: 1 GiB of float64 entries, so n <= 22.
MAX_DENSE_BYTES = 1 << 30


def is_exact(arr: np.ndarray) -> bool:
    """True if the array holds exact (Fraction/int) scalars rather than floats."""
    return arr.dtype == object


def exact_matrix(rows) -> np.ndarray:
    """Build an object-dtype matrix of Fractions from nested ints/Fractions/strings."""
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[i, j] = Fraction(x)
    return out


class Rank1Term(NamedTuple):
    """One separable summand a (x) b (x) c: a view of one row of each of a
    decomposition's factor stacks."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class Decomposition:
    """A sum of separable terms claimed to equal MM_n, stored as its factor
    stacks U, V, W of shape (rank, n, n): term r is U[r] (x) V[r] (x) W[r]."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    scheme: str = "imported"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        U, V, W = self.U, self.V, self.W
        if U.ndim != 3 or U.shape[1] != U.shape[2] or not U.shape == V.shape == W.shape:
            raise ValueError("U, V, W must be stacks of one shape (rank, n, n)")
        if len({is_exact(U), is_exact(V), is_exact(W)}) > 1:
            raise ValueError("decomposition mixes exact (Fraction) and float factors")

    @property
    def n(self) -> int:
        return self.U.shape[1]

    @property
    def rank(self) -> int:
        return self.U.shape[0]

    @property
    def exact(self) -> bool:
        return is_exact(self.U)

    @property
    def terms(self) -> tuple[Rank1Term, ...]:
        """The terms (U[r], V[r], W[r]), as views into the stacks."""
        return tuple(map(Rank1Term, self.U, self.V, self.W))

    def to_float(self) -> "Decomposition":
        """This decomposition with float64 stacks; itself if they already are."""
        if self.U.dtype == self.V.dtype == self.W.dtype == np.float64:
            return self
        U, V, W = (X.astype(np.float64) for X in (self.U, self.V, self.W))
        return Decomposition(U, V, W, self.scheme, dict(self.params))


def _require_dense_size(n: int) -> None:
    nbytes = 8 * n**6
    if nbytes > MAX_DENSE_BYTES:
        raise RefusedInput(
            f"a dense tensor for n={n} needs {nbytes} bytes ({n}^6 float64 entries), "
            f"above the limit of {MAX_DENSE_BYTES} bytes"
        )


def mm_tensor(n: int, exact: bool = False) -> np.ndarray:
    """The n x n matrix multiplication tensor: entry 1 iff d=b, e=c, f=a."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_dense_size(n)
    if exact:
        T = np.full((n,) * 6, Fraction(0), dtype=object)
        one = Fraction(1)
    else:
        T = np.zeros((n,) * 6)
        one = 1.0
    for a, b, c in product(range(n), repeat=3):
        T[a, b, c, b, c, a] = one
    return T


def tensor_of(dec: Decomposition) -> np.ndarray:
    """Materialize the dense sum of a decomposition's separable terms."""
    n = dec.n
    _require_dense_size(n)
    n2 = n * n
    U, V, W = (X.reshape(-1, n2) for X in (dec.U, dec.V, dec.W))
    # T = W^T KR, the transpose of KR^T W: rows (c, f), columns (a, d, b, e)
    if dec.exact:
        T = np.full((n2, n2 * n2), Fraction(0), dtype=object)
    else:
        T = np.zeros((n2, n2 * n2))
    # chunks of n^2 terms: the Khatri-Rao block and the product are n^6 each
    for s in range(0, len(U), n2):
        kr = (U[s : s + n2, :, None] * V[s : s + n2, None, :]).reshape(-1, n2 * n2)
        T += W[s : s + n2].T @ kr
    return T.reshape((n,) * 6).transpose(2, 4, 0, 3, 5, 1)


def frobenius_inner(T1: np.ndarray, T2: np.ndarray):
    """Entrywise inner product of two tensors (real case, no conjugation)."""
    if T1.shape != T2.shape:
        raise ValueError("tensor dimensions do not match")
    return (T1 * T2).sum()


def operator_trace(T: np.ndarray):
    """Trace of the tensor viewed as an operator: sum of T[a,b,c,a,b,c]."""
    n = T.shape[0]
    total = Fraction(0) if is_exact(T) else 0.0
    for a, b, c in product(range(n), repeat=3):
        total = total + T[a, b, c, a, b, c]
    return total
