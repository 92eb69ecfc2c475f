"""Execute a decomposition as a (recursive) matrix multiplication algorithm.

The combination rule is fixed once, derived from the pairing convention
<MM, A (x) B (x) C> = tr ABC:

    AB = sum_r <a_r, A> <b_r, B> c_r^T,   <X, Y> = tr(X^T Y).

Recursion replaces the scalar inner products by block-weighted sums and
switches to the plain product at or below the cutoff size.  Inputs whose size
is not a power of dec.n are padded with zeros to the next one.  Scalar
multiplication counts are exact: only the multiplications of the base-case
products are counted (s^3 for an s x s base block), giving
rank^depth * cutoff_cost overall.  There is one executor, multiply_recursive;
multiply_via is its one-level case (cutoff 1 at the decomposition's own
size).

multiply_recursive first copies B once into a recursive block layout (index
digits ordered i0, j0, i1, j1, ..., row, col), in which the n*n sub-blocks
of every node form one contiguous (n*n, h*h) stack.  A is only read, so the
top node gathers its A sides from the caller's A in place, whatever its
strides, one column panel at a time (only a padded or non-float64 A is
copied once, to float64).  Each node overwrites its B operand with the
product, writing every C block once: one GEMM of the B-side factors with
B's stack forms all rank B-side combinations, after which B's blocks are
free.  The children's stacks take the last ceil(rank/n^2) of them, and the
first g = n^2 - ceil(rank/n^2) hold A-side combinations: one GEMM of g
A-side factor rows with A's stack forms a group of g terms' A sides (g = 2,
6, 12 for the n = 2, 3, 4 schemes of rank n^3 - n + 1, so A's stack is read
ceil(rank/g) times, not rank times), and each child multiplies its block
into its row of the rank stack in place.  One GEMM of the C-side factors
with the finished stack then writes the node's n*n blocks.  These GEMMs have
an inner dimension of n*n or rank and rows of up to p^2/n^2 entries, so they
are bound by memory bandwidth; above PANEL columns each runs in column
panels of PANEL, on which BLAS runs them up to about twice as fast.  A leaf
multiplies into scratch by np.matmul and copies the product back.  Each
child's stack lives in its parent's free blocks, so the one workspace is the
top node's stack (rank*(p/n)^2 entries) whenever rank <= n^2(n^2-1), as for
every scheme of rank <= n^3; above that the stacks of all levels follow one
another in it, and each group is one term.  The result is copied back to
row-major order once.  So the temporaries of one product peak at B's copy,
the workspace and the gather buffer: p^2 + rank*(p/n)^2 + min(n^2*PANEL,
(p/n)^2) entries (2.75 p^2 and a little more for the n = 2 orbit).  The
factor rows come straight from the decomposition's stacks U, V and W
(transposed for c^T).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .tensor import Decomposition, RefusedInput

__all__ = [
    "MulReport",
    "BenchRow",
    "naive_multiply",
    "multiply_via",
    "multiply_recursive",
    "predicted_mult_count",
    "benchmark",
    "format_bench_table",
]

PANEL = 8192  # columns per panel of a block-combination GEMM


def naive_multiply(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Textbook triple loop; the reference oracle for all multiplication tests."""
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError("dimension mismatch")
    rows, inner, cols = A.shape[0], A.shape[1], B.shape[1]
    C = np.zeros((rows, cols), dtype=np.result_type(A.dtype, B.dtype, np.float64))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += A[i, k] * B[k, j]
            C[i, j] = acc
    return C


def multiply_via(dec: Decomposition, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """One application of the bilinear rule at the decomposition's own size:
    one level of multiply_recursive."""
    n = dec.n
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError(f"multiply_via needs {n}x{n} inputs")
    return multiply_recursive(dec, A, B, cutoff=1).result


@dataclass(frozen=True)
class MulReport:
    result: np.ndarray
    scalar_multiplications: int
    wall_time: float
    recursion_depth: int


def _plan(n: int, size: int, cutoff: int) -> tuple[int, int, int]:
    """The count law: (padded size, recursion depth, leaf block size).

    Inputs pad with zeros to the next power of n; the recursion splits
    while the block is larger than the cutoff, so the executor makes
    rank^depth leaf products of leaf^3 scalar multiplications each.
    """
    if cutoff < 1:
        raise RefusedInput("cutoff must be >= 1")
    if n < 2 and size > 1:
        raise RefusedInput("a 1x1 scheme cannot split a larger matrix")
    padded = 1
    while padded < size:
        padded *= n
    depth, leaf = 0, padded
    while leaf > cutoff and leaf % n == 0:
        leaf //= n
        depth += 1
    return padded, depth, leaf


def _interleave(depth: int) -> list[int]:
    """Axis order (i0, j0, i1, j1, ..., row, col) of a matrix reshaped to
    (i0, ..., i_{depth-1}, row, j0, ..., j_{depth-1}, col)."""
    return [a for k in range(depth + 1) for a in (k, depth + 1 + k)]


def _pad(M: np.ndarray, padded: int) -> np.ndarray:
    """M zero-padded to padded x padded (a float64 copy), or M itself."""
    if M.shape[0] == padded:
        return M
    P = np.zeros((padded, padded))
    P[: M.shape[0], : M.shape[1]] = M
    return P


def _layout_view(M: np.ndarray, n: int, depth: int, leaf: int) -> np.ndarray:
    """A view of the padded M with its axes in block layout order."""
    digits = (n,) * depth + (leaf,)
    return M.reshape(digits + digits).transpose(_interleave(depth))


def _to_blocks(M: np.ndarray, n: int, padded: int, depth: int, leaf: int) -> np.ndarray:
    """A fresh copy of M, zero-padded to padded x padded, as a flat float64
    array in the recursive block layout: each node's n*n sub-blocks are one
    contiguous (n*n, h*h) stack, itself in that layout, down to row-major
    leaves.  Always a copy: the executor overwrites it."""
    X = _layout_view(_pad(M, padded), n, depth, leaf)
    return np.array(X, dtype=np.float64, order="C").reshape(-1)


def _a_panels(A: np.ndarray, n: int, depth: int, leaf: int) -> list[np.ndarray]:
    """The top node's A stack, (n*n, (p/n)^2) in block layout, as column
    panels that are views of the padded A: each a slice of one
    digit axis, whole in every later axis, of at most PANEL and at most
    (p/n)^2/n^2 columns, so the buffer that gathers a panel never holds
    more than (p/n)^2 entries.  When a leaf has fewer entries than that
    limit a panel spans whole groups of leaves, so each copy and GEMM
    still moves a large panel."""
    view = _layout_view(A, n, depth, leaf)
    radices = view.shape[2:]
    limit = max(min(PANEL, A.size // n**4), 1)
    axis, width = len(radices) - 1, 1
    while axis and width * radices[axis] <= limit:
        width *= radices[axis]
        axis -= 1
    step = limit // width
    whole = (slice(None),) * 2
    return [
        view[whole + prefix + (slice(s, s + step),)]
        for prefix in itertools.product(*map(range, radices[:axis]))
        for s in range(0, radices[axis], step)
    ]


def _from_blocks(C: np.ndarray, n: int, size: int, padded: int, depth: int, leaf: int) -> np.ndarray:
    """Inverse of _to_blocks, cropped to size x size; owns its data."""
    out = np.empty((padded, padded))
    view = _layout_view(out, n, depth, leaf)
    np.copyto(view, C.reshape(view.shape))
    return out if padded == size else out[:size, :size].copy()


def _compile(dec: Decomposition):
    """The factor rows of the A and B sides, (rank, n*n), and the C side as
    (n*n, rank); c^T places block (i, j) of c at (j, i)."""
    d = dec.to_float()
    nn = d.n * d.n
    return d.U.reshape(-1, nn), d.V.reshape(-1, nn), d.W.transpose(0, 2, 1).reshape(-1, nn).T


def _panels(M, src, dst) -> None:
    """dst := M @ src.  Above PANEL columns the product runs panel by panel:
    these small-K GEMMs over long rows are bandwidth-bound, and BLAS runs
    them up to about twice as fast on cache-sized column panels."""
    cols = src.shape[1]
    if cols <= PANEL:
        np.dot(M, src, out=dst)
        return
    for c in range(0, cols, PANEL):
        np.matmul(M, src[:, c : c + PANEL], out=dst[:, c : c + PANEL])


def _gather(M, panels, dst) -> None:
    """dst := M @ src, src given by its column panels (see _a_panels): each
    is copied into one small buffer and multiplied from there."""
    nn = M.shape[1]
    buf = np.empty(panels[0].size)  # the first panel is a widest one
    c = 0
    for view in panels:
        w = view.size // nn
        G = buf[: view.size]
        np.copyto(G.reshape(view.shape), view)
        np.matmul(M, G.reshape(nn, w), out=dst[:, c : c + w])
        c += w


def _group_size(rank: int, nn: int) -> int:
    """How many A-side combinations one GEMM forms in Y's free blocks: all
    nn blocks but the ceil(rank/nn) that hold the children's stacks, or 1
    when those stacks spill (rank > nn(nn - 1))."""
    return max(nn + (-rank // nn), 1)


def _node(X, Y, S, level, depth, leaf, code, spill) -> int:
    """Y := X Y, Y flat in block layout and the flat S scratch.  X is only
    read: flat in block layout too, except at the top node of a product
    that splits (level 0 < depth), where it is the column panels of its
    stack in the caller's matrix (see _a_panels).  Returns the
    number of leaf products made."""
    if level == depth:
        T = S[: leaf * leaf]
        np.matmul(X.reshape(leaf, leaf), Y.reshape(leaf, leaf), out=T.reshape(leaf, leaf))
        Y[:] = T
        return 1
    U, V, Wt = code
    rank, nn = V.shape
    Ys = Y.reshape(nn, -1)
    hh = Ys.shape[1]
    St = S[: rank * hh].reshape(rank, hh)
    _panels(V, Ys, St)  # every term's B side; Y's blocks are free from here
    g = _group_size(rank, nn)
    child = S[rank * hh :] if spill else Ys[g:].reshape(-1)
    a_sides, Xs = (_panels, X.reshape(nn, -1)) if level else (_gather, X)
    leaves = 0
    for t0 in range(0, rank, g):
        k = min(g, rank - t0)
        a_sides(U[t0 : t0 + k], Xs, Ys[:k])  # A sides of k terms, one pass over X
        for j in range(k):
            leaves += _node(Ys[j], St[t0 + j], child, level + 1, depth, leaf, code, spill)
    _panels(Wt, St, Ys)  # each C block written once
    return leaves


def multiply_recursive(
    dec: Decomposition, A: np.ndarray, B: np.ndarray, cutoff: int = 1
) -> MulReport:
    """Recursive block multiplication driven by the decomposition."""
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("multiply_recursive needs square matrices of equal size")
    if np.iscomplexobj(A) or np.iscomplexobj(B):
        raise RefusedInput("multiply_recursive takes real matrices; a complex input would lose its imaginary part")
    n, size, rank = dec.n, A.shape[0], dec.rank
    padded, depth, leaf = _plan(n, size, cutoff)
    t0 = time.perf_counter()
    # A is only read: the caller's own matrix unless it must be padded or
    # converted, and the top node gathers its A sides from it in place
    A = np.asarray(_pad(A, padded), dtype=np.float64)
    X = _a_panels(A, n, depth, leaf) if depth else A
    Y = _to_blocks(B, n, padded, depth, leaf)
    # a child's stack fits in its parent's n*n - 1 free blocks unless
    # rank > n^2(n^2-1); then every level's stack and the leaf's scratch
    # follow one another in the workspace
    spill = rank > n * n * (n * n - 1)
    stacks = [rank * (padded // n ** (level + 1)) ** 2 for level in range(depth)]
    S = np.empty(sum(stacks) + leaf * leaf if spill or not depth else stacks[0])
    leaves = _node(X, Y, S, 0, depth, leaf, _compile(dec), spill)
    del A, X, S  # free any converted copy of A and the workspace before the copy back
    result = _from_blocks(Y, n, size, padded, depth, leaf)
    wall = time.perf_counter() - t0
    return MulReport(
        result=result,
        scalar_multiplications=leaves * leaf**3,
        wall_time=wall,
        recursion_depth=depth,
    )


def predicted_mult_count(n: int, rank: int, size: int, cutoff: int = 1) -> int:
    """Exact multiplication count of multiply_recursive for the given shape."""
    _, depth, leaf = _plan(n, size, cutoff)
    return rank**depth * leaf**3


@dataclass(frozen=True)
class BenchRow:
    size: int
    recursive_time: float
    naive_time: float
    scalar_multiplications: int
    count_at_cutoff_1: int
    exponent_estimate: float
    max_error: float


def benchmark(
    dec: Decomposition, sizes, cutoff: int = 1, rng=None
) -> list[BenchRow]:
    """Time the recursive algorithm against the plain product per size.

    Reports the executed multiplication count at the given cutoff, the exact
    count the recursion would use at cutoff 1, and the exponent estimate
    log_size(count at cutoff 1); the estimate is count-based, not time-based,
    and needs every size >= 2.
    """
    if any(size < 2 for size in sizes):
        raise RefusedInput(f"benchmark sizes must be >= 2, got {sizes}")
    rng = rng or np.random.default_rng(0)
    rows = []
    for size in sizes:
        A = rng.standard_normal((size, size))
        B = rng.standard_normal((size, size))
        rep = multiply_recursive(dec, A, B, cutoff=cutoff)
        t0 = time.perf_counter()
        ref = A @ B
        naive_time = time.perf_counter() - t0
        c1 = predicted_mult_count(dec.n, dec.rank, size, cutoff=1)
        scale = float(np.abs(ref).max()) or 1.0
        rows.append(
            BenchRow(
                size=size,
                recursive_time=rep.wall_time,
                naive_time=naive_time,
                scalar_multiplications=rep.scalar_multiplications,
                count_at_cutoff_1=c1,
                exponent_estimate=np.log(c1) / np.log(size),
                max_error=float(np.abs(rep.result - ref).max()) / scale,
            )
        )
    return rows


def format_bench_table(rows: list[BenchRow]) -> str:
    header = f"{'size':>6} {'rec time':>10} {'mat time':>10} {'mults':>14} {'mults@1':>14} {'exponent':>9} {'max err':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.size:>6} {r.recursive_time:>10.4f} {r.naive_time:>10.4f} "
            f"{r.scalar_multiplications:>14} {r.count_at_cutoff_1:>14} "
            f"{r.exponent_estimate:>9.4f} {r.max_error:>10.2e}"
        )
    return "\n".join(lines)
