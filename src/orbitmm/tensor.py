"""Dense order-3 tensors over n x n matrix slots, and separable-sum decompositions.

A Tensor3 over dimension n is a dense numpy array of shape (n,)*6.  The index
convention, fixed here once and for all, is

    T[a, b, c, d, e, f]

where (a, b, c) are the row indices of the three matrix slots and (d, e, f)
the column indices.  The matrix multiplication tensor chains the slots:
entry 1 exactly when d = b, e = c, f = a (the column index of each slot
equals the row index of the next, cyclically), which is what makes the
pairing <MM, A (x) B (x) C> = sum MM[a..f] A[a,d] B[b,e] C[c,f] equal
tr ABC.  This orientation is fixed here, in this one place: `mm_support`
names MM_n's n^3 ones as the (n, n, n) view T[a, b, c, b, c, a] of any
tensor T, and every reader of them goes through it (`mm_tensor` writes its
ones through the view; the verifiers read or subtract MM_n through it).

A decomposition is stored once, as its CP (Kruskal) factor stacks U, V, W,
each of shape (r, n, n): term r is U[r] (x) V[r] (x) W[r].  Every module
reads the stacks; the derived `terms` property is a tuple of (a, b, c)
views into them, for callers that want one term at a time.

Two scalar kinds are supported: float64 stacks, and object stacks holding
`fractions.Fraction` values for exact work.  A decomposition is homogeneous
in scalar kind (mixing them raises ValueError); conversion is explicit
(`to_float`, which returns the decomposition itself when it is already
float64).

`tensor_of` builds the dense tensor at the cost of the distinct A-side
factors (a lattice's n^3 - n + 1 terms share n^2 + n + 1 U rows).  With R_i
the terms whose U row is the distinct row Ud[i], one of d,
T[(a,d), (c,f), (b,e)] = sum_i Ud[i,ad] M_i[cf,be] with M_i = W[R_i]^T V[R_i].
The M_i of the groups of one size are one batched GEMM, built a chunk of
(c, f) slots at a time, and each chunk of T is one GEMM over the d rows
written straight into the result: r n^4 + d n^6 multiply-adds, where a sum
over the terms does r n^6, and nothing is zero-filled or accumulated.  The
fresh array it returns lets the verifiers write into it (subtract MM_n
through `mm_support`, take abs or square in place) instead of building a
second n^6 tensor.  Every dense n^6 tensor (`tensor_of`, `mm_tensor`) is
refused with a RefusedInput (a ValueError) before anything is allocated,
above MAX_DENSE_BYTES of float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = [
    "RefusedInput",
    "Rank1Term",
    "Decomposition",
    "MAX_DENSE_BYTES",
    "is_exact",
    "mm_support",
    "mm_tensor",
    "tensor_of",
]


class RefusedInput(ValueError):
    """A documented refusal of an input or argument the package does not
    handle: a dense tensor above MAX_DENSE_BYTES, a plan that cannot split,
    matrices not square and of one size, a rational entry outside float64's
    range, an unknown fixture frame, and (as serialize.SchemaError) a file
    that cannot be read or written or breaks its schema."""


# Largest dense n^6 tensor built here: 1 GiB of float64 entries, so n <= 22.
MAX_DENSE_BYTES = 1 << 30


def is_exact(arr: np.ndarray) -> bool:
    """True if the array holds exact (Fraction/int) scalars rather than floats."""
    return arr.dtype == object


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
        try:
            U, V, W = (X.astype(np.float64) for X in (self.U, self.V, self.W))
        except OverflowError:
            raise RefusedInput("a rational entry lies outside float64's range (magnitude above 1.8e308)") from None
        return Decomposition(U, V, W, self.scheme, dict(self.params))


def _require_dense_size(n: int) -> None:
    nbytes = 8 * n**6
    if nbytes > MAX_DENSE_BYTES:
        raise RefusedInput(
            f"a dense tensor for n={n} needs {nbytes} bytes ({n}^6 float64 entries), "
            f"above the limit of {MAX_DENSE_BYTES} bytes"
        )


def mm_support(T: np.ndarray) -> np.ndarray:
    """The entries T[a, b, c, b, c, a], where MM_n is 1, as a writeable
    (n, n, n) view of T.  einsum only takes a view here, so Fraction
    tensors are read and written through it as well."""
    return np.einsum("abcbca->abc", T)


def mm_tensor(n: int, exact: bool = False) -> np.ndarray:
    """The n x n matrix multiplication tensor: entry 1 iff d=b, e=c, f=a."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_dense_size(n)
    if exact:
        T = np.full((n,) * 6, Fraction(0), dtype=object)
    else:
        T = np.zeros((n,) * 6)
    mm_support(T)[...] = Fraction(1) if exact else 1.0
    return T


def _row_groups(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's index among the distinct rows of the 2-d stack X, in order
    of first appearance, and the first row that holds each: the one row key
    of the package.  Float and integer rows are told apart by their bytes at
    the stack's own itemsize (0.0 and -0.0 differ), Fraction rows by value."""
    if is_exact(X):
        keys = map(tuple, X.tolist())
    else:
        X = np.ascontiguousarray(X)
        keys = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel().tolist()
    distinct: dict = {}
    group = np.array([distinct.setdefault(k, len(distinct)) for k in keys], dtype=np.intp)
    return group, np.unique(group, return_index=True)[1]


def tensor_of(dec: Decomposition) -> np.ndarray:
    """Materialize the dense sum of a decomposition's separable terms.

    For float64 stacks the peak is the result plus O(r n^2) entries,
    8 (n^6 + 2 r n^2 + d n^2 + d k n^2) bytes and O(r) bytes of indices:
    the V and W stacks in group order, the d distinct U rows, and one chunk
    of M, d x k slots of n^2 entries with k = min(r // d, n^2), so d k <= r.
    The row keys (r n^2 entries) are freed before the result is allocated."""
    n = dec.n
    _require_dense_size(n)
    n2, r = n * n, dec.rank
    dtype = object if dec.exact else np.float64
    U, V, W = (X.reshape(r, n2) for X in (dec.U, dec.V, dec.W))
    group, first = _row_groups(U)
    d = len(first)
    # the distinct rows by size, then first appearance, and the terms in the
    # order of their rows: the groups of one size s are one (groups, s, n^2) batch
    size = np.bincount(group)
    by_size = np.argsort(size, kind="stable")
    terms = np.lexsort((group, size[group]))
    Ud, Vs, Ws = (np.asarray(X[rows], dtype) for X, rows in ((U, first[by_size]), (V, terms), (W, terms)))
    batches, i0, t0 = [], 0, 0
    for s, g in zip(*np.unique(size[by_size], return_counts=True)):
        Wg, Vg = (X[t0 : t0 + g * s].reshape(g, s, n2) for X in (Ws, Vs))
        batches.append((slice(i0, i0 + g), Wg, Vg))
        i0, t0 = i0 + g, t0 + g * s
    # k slots (c, f) of M at a time keep it at d k n^2 <= r n^2 entries
    k = min(r // d, n2) if d else n2
    buf = np.empty(d * k * n2, dtype)
    T = np.empty((n2, n2, n2), dtype)
    for c0 in range(0, n2, k):
        c1 = min(c0 + k, n2)
        M = buf[: d * (c1 - c0) * n2].reshape(d, c1 - c0, n2)
        for rows, Wg, Vg in batches:
            np.matmul(Wg[:, :, c0:c1].transpose(0, 2, 1), Vg, out=M[rows])
        np.matmul(Ud.T, M.reshape(d, (c1 - c0) * n2), out=T[:, c0:c1].reshape(n2, (c1 - c0) * n2))
    if dec.exact and not r:  # an empty object GEMM writes the int 0
        T.fill(Fraction(0))
    return T.reshape((n,) * 6).transpose(0, 4, 2, 1, 5, 3)
