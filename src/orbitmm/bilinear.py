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

multiply_recursive copies B once, row-major, into a fresh p x p array Y
(zero-filling only the pad when the size is not a power of n), and Y is
also the result.  A is only read (only a padded or non-float64 A is copied
once, to float64).  A product at or below the cutoff is one matmul, A @ Y,
where an unpadded B is read in place as Y.
Above it, each node overwrites its B operand with the product, its n*n
sub-blocks a stack in the recursive block layout (index digits ordered i0,
j0, i1, j1, ..., row, col).  Below the top node every stack is contiguous;
the top node reads A and B and writes C through one panel view (_a_panels),
a column panel at a time through a small buffer, whatever the strides.  One
GEMM of the B-side factors with B's stack forms all rank B sides, after
which B's blocks are free.  The one block rule: a node forms its A sides in
every block of its B operand that holds no child stack, g at a time by one
GEMM of g A-side factor rows, so it reads its A operand ceil(rank/g) times,
not rank times.  Those are all n^2 blocks at the leaf parent (the node
whose children are leaves) and when the children's stacks spill (below);
otherwise n^2 - ceil((rank+1)/n^2) blocks (g = 2, 6, 12 for the n = 2, 3, 4
schemes of rank n^3 - n + 1), the rest holding the children's stacks.  The
leaf parent's stack has one slack block ahead of its rank B sides, so leaf
t writes its product (np.matmul) straight into block t, the B side of term
t - 1, used by then.  One GEMM of the C-side factors with the finished
stack writes each C block once.  These GEMMs have an inner dimension of n*n
or rank and rows of up to p^2/n^2 entries, so they are bound by memory
bandwidth; above PANEL columns each runs in column panels of PANEL, on
which BLAS runs them up to about twice as fast.  Each child's stack lives
in its parent's free blocks, so the one workspace S is the top node's stack
whenever rank + 1 <= n^2(n^2-1), as for every scheme of rank <= n^3; above
that the stacks spill: those of all levels follow one another in S.  So
the temporaries of one product peak at p^2 + rank*(p/n)^2 +
min(n^2*PANEL, (p/n)^2) entries: Y (B's copy, the top node's free blocks,
then C), S, and the buffer of one panel; at depth 1, where the top node is
the leaf parent, S has rank + 1 blocks of (p/n)^2.  That is 2.75 p^2 and a
little more for the n = 2 orbit at depth >= 2, and a padded A adds its p^2
copy.  A padded result is cropped to a copy once S is freed.  The factor
rows come straight from the decomposition's stacks U, V and W (transposed
for c^T).
"""

from __future__ import annotations

import itertools
import math
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


def _padded_copy(M: np.ndarray, padded: int) -> np.ndarray:
    """A float64 copy of M in a fresh padded x padded array; only the pad
    is zero-filled."""
    P = np.empty((padded, padded))
    s = M.shape[0]
    P[s:] = 0.0
    P[:s, s:] = 0.0
    P[:s, :s] = M
    return P


def _a_panels(M: np.ndarray, n: int, depth: int, leaf: int) -> list[np.ndarray]:
    """The top node's stack of a padded p x p matrix M (A, or Y for B and
    C), (n*n, (p/n)^2) in block layout, as column panels that are views of
    M: each a slice of one digit axis, whole in every later axis, of at
    most PANEL and at most (p/n)^2/n^2 columns, so the buffer that stages a
    panel never holds more than (p/n)^2 entries.  When a leaf has fewer
    entries than that limit a panel spans whole groups of leaves, so each
    copy and GEMM still moves a large panel."""
    digits = (n,) * depth + (leaf,)  # M reshaped to (i0, ..., row, j0, ..., col)
    order = [a for k in range(depth + 1) for a in (k, depth + 1 + k)]
    view = M.reshape(digits + digits).transpose(order)  # (i0, j0, ..., row, col)
    radices = view.shape[2:]
    limit = max(min(PANEL, M.size // n**4), 1)
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


def _scatter(M, src, panels) -> None:
    """The mirror of _gather: dst := M @ src, dst given by its column
    panels, each multiplied into one small buffer and copied out from it."""
    nn = M.shape[0]
    buf = np.empty(panels[0].size)
    c = 0
    for view in panels:
        w = view.size // nn
        G = buf[: view.size]
        np.matmul(M, src[:, c : c + w], out=G.reshape(nn, w))
        np.copyto(view, G.reshape(view.shape))
        c += w


def _node(X, Y, S, level, depth, leaf, code, spill) -> int:
    """Y := X Y, X only read, Y flat in block layout and the flat S scratch;
    returns the number of leaf products made.  X is flat in block layout
    too, except at the top node (level 0), where X and Y are the padded A
    and B, row-major and seen through column panels (see _a_panels)."""
    U, V, Wt = code
    rank, nn = V.shape
    Ys = Y.reshape(nn, -1)
    hh = Ys.shape[1]
    slack = int(level == depth - 1)  # 1 at the leaf parent
    Sx = S[: (rank + slack) * hh].reshape(rank + slack, hh)
    if level:
        read, write, Xs, Yp = _panels, _panels, X.reshape(nn, -1), Ys
    else:
        n = math.isqrt(nn)
        read, write, Xs, Yp = _gather, _scatter, _a_panels(X, n, depth, leaf), _a_panels(Y, n, depth, leaf)
    read(V, Yp, Sx[slack:])  # every term's B side; Y's blocks are free from here
    g = nn if slack or spill else nn + (-(rank + 1) // nn)  # blocks no child stack takes
    child = S[rank * hh :] if spill else Ys[g:].reshape(-1)
    L = Sx.reshape(-1, leaf, leaf)  # the leaf parent's stack as leaf x leaf blocks
    leaves = 0
    for t0 in range(0, rank, g):
        k = min(g, rank - t0)
        read(U[t0 : t0 + k], Xs, Ys[:k])  # A sides of k terms, one pass over X
        for j in range(k):
            if slack:  # the product lands one block before its B side
                np.matmul(Ys[j].reshape(leaf, leaf), L[t0 + j + 1], out=L[t0 + j])
                leaves += 1
            else:
                leaves += _node(Ys[j], Sx[t0 + j], child, level + 1, depth, leaf, code, spill)
    write(Wt, Sx[:rank], Yp)  # each C block written once
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
    # converted.  Y is B's copy, the top node's free blocks and the result.
    A = np.asarray(A, dtype=np.float64) if padded == size else _padded_copy(A, padded)
    Y = np.asarray(B, dtype=np.float64) if padded == size and not depth else _padded_copy(B, padded)
    if depth:
        # a child's stack fits in its parent's n*n - 1 free blocks unless
        # rank + 1 > n^2(n^2-1); then every level's stack follows the one
        # above it in the workspace.  The leaf parent's stack has rank + 1 blocks.
        spill = rank + 1 > n * n * (n * n - 1)
        stacks = [(rank + (level == depth - 1)) * (padded // n ** (level + 1)) ** 2 for level in range(depth)]
        S = np.empty(sum(stacks) if spill else stacks[0])
        leaves = _node(A, Y.reshape(-1), S, 0, depth, leaf, _compile(dec), spill)
        del S  # free the workspace before cropping
    else:
        Y, leaves = A @ Y, 1
    del A  # free any converted copy of A before cropping
    result = Y if padded == size else Y[:size, :size].copy()
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


def benchmark(dec: Decomposition, sizes, cutoff: int = 1) -> list[BenchRow]:
    """Time the recursive algorithm against the plain product per size.

    Reports the executed multiplication count at the given cutoff, the exact
    count the recursion would use at cutoff 1, and the exponent estimate
    log_size(count at cutoff 1); the estimate is count-based, not time-based,
    and needs every size >= 2 and a rank >= 1.
    """
    if any(size < 2 for size in sizes):
        raise RefusedInput(f"benchmark sizes must be >= 2, got {sizes}")
    if dec.rank == 0:
        raise RefusedInput("benchmark needs a decomposition of rank >= 1, got rank 0")
    rng = np.random.default_rng(0)
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
