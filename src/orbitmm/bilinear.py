"""Execute a decomposition as a (recursive) matrix multiplication algorithm.

The combination rule is fixed once, derived from the pairing convention
<MM, A (x) B (x) C> = tr ABC:

    AB = sum_r <a_r, A> <b_r, B> c_r^T,   <X, Y> = tr(X^T Y).

Recursion replaces the scalar inner products by block-weighted sums and
switches to the plain product at or below the cutoff size.  Scalar
multiplication counts are exact: only the multiplications of the base-case
products are counted, summed over the leaves that run.  _plan works out
the executor's shape once (padding, depth, count law, A-side groups and
workspace).  There is one executor, multiply_recursive; multiply_via is its
one-level case (cutoff 1 at the decomposition's own size).

multiply_recursive refuses (RefusedInput) matrices not square and of one
size.  At or below the cutoff the product is one matmul, A @ B, on the
inputs as given: nothing is padded, copied or cropped.  Above it, B is
copied once, row-major, into a fresh p x p array Y by np.pad (only the pad
is zero-filled), which is also the result, and A is only read (a padded or
non-float64 A is copied once, to float64).  Each node overwrites its B
operand with the product, its n*n sub-blocks a stack in the recursive block
layout (index digits ordered i0, j0, i1, j1, ..., row, col).  Below the top
node every stack is contiguous; the top node reads A and B and writes C
through one panel view (_a_panels), a column panel at a time, whatever the
strides.  One GEMM of the B-side factors with B's stack forms all rank B
sides, after which B's blocks are free to take the A sides, a group at a
time, and the children's stacks; the children run depth-first, one after
another.  The leaf parent's stack has one slack block ahead of its rank B
sides, so leaf t writes its product (np.matmul) straight into block t, the
B side of term t - 1, used by then.  One GEMM of the C-side factors with
the finished stack writes each C block once.  These GEMMs have an inner
dimension of n*n or rank and rows of up to p^2/n^2 entries, so they are
bound by memory bandwidth; each runs in column panels of at most PANEL, on
which BLAS runs them up to about twice as fast.  A padded result is cropped
to a copy once the workspace is freed.  The factor rows come straight from
the decomposition's stacks U, V and W (transposed for c^T).
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
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


_Plan = namedtuple("_Plan", "n padded depth leaf count spill groups workspace")


def _plan(n: int, rank: int, size: int, cutoff: int) -> _Plan:
    """The executor's shape for a rank-`rank` n x n scheme on size x size
    inputs.  A matrix the recursion splits is padded with zeros to the next
    power of n, p = `padded`; the recursion splits while the block is larger
    than the cutoff, `depth` times, to `leaf` x `leaf` blocks: rank^depth
    leaf products of leaf^3 scalar multiplications each (`count`).  At depth
    0 nothing is padded: p = leaf = size, and the count is size^3.

    The one block rule: a node forms its A sides in every block of its B
    operand that holds no child stack, g at a time by one GEMM of g A-side
    factor rows, so it reads its A operand ceil(rank/g) times, not rank
    times.  `groups` holds each level's g: all n^2 blocks at the leaf parent
    (the node whose children are leaves) and when the stacks spill (below);
    otherwise n^2 - ceil((rank+1)/n^2) (g = 2, 6, 12 for the n = 2, 3, 4
    schemes of rank n^3 - n + 1), the rest holding the children's stacks.

    A level's stack is rank blocks of (p/n^(level+1))^2, rank + 1 at the
    leaf parent.  A child's stack fits in its parent's n^2 - 1 free blocks
    when rank + 1 <= n^2(n^2-1), as for every scheme of rank <= n^3, so the
    `workspace` S is the top node's stack; above that the stacks `spill`:
    those of all levels follow one another in S.  So one product's
    temporaries peak at p^2 + rank*(p/n)^2 + min(n^2*PANEL, (p/n)^2)
    entries: Y (B's copy, the top node's free blocks, then C, the result),
    S (the stacks), and numpy's temporary of one top-node panel; at depth 1,
    where the top node is the leaf parent, S has rank + 1 blocks of (p/n)^2.
    That is 2.75 p^2 and a little more for the n = 2 orbit at depth >= 2,
    and a padded A adds its p^2 copy.  A depth-0 product holds only its
    size^2 result.
    """
    if cutoff < 1:
        raise RefusedInput("cutoff must be >= 1")
    if n < 2 and size > 1:
        raise RefusedInput("a 1x1 scheme cannot split a larger matrix")
    padded = 1
    while padded < size:
        padded *= n
    padded = padded if padded > cutoff else size  # only a matrix the recursion splits is padded
    depth, leaf = 0, padded
    while leaf > cutoff:
        leaf //= n
        depth += 1
    nn = n * n
    spill = rank + 1 > nn * (nn - 1)
    groups = tuple(nn if spill or level == depth - 1 else nn + (-(rank + 1) // nn) for level in range(depth))
    stacks = [(rank + (level == depth - 1)) * (padded // n ** (level + 1)) ** 2 for level in range(depth)]
    return _Plan(n, padded, depth, leaf, rank**depth * leaf**3, spill, groups, sum(stacks if spill else stacks[:1]))


def _a_panels(M: np.ndarray, plan: _Plan) -> list[np.ndarray]:
    """The top node's stack of a padded p x p matrix M (A, or Y for B and
    C), (n*n, (p/n)^2) in block layout, as column panels that are views of
    M: each a slice of one digit axis, whole in every later axis, of at
    most PANEL and at most (p/n)^2/n^2 columns, so the temporary in which
    numpy stages a panel never holds more than (p/n)^2 entries.  When a
    leaf has fewer entries than that limit a panel spans whole groups of
    leaves, so each copy and GEMM still moves a large panel."""
    digits = (plan.n,) * plan.depth + (plan.leaf,)  # M reshaped to (i0, ..., row, j0, ..., col)
    order = [a for k in range(plan.depth + 1) for a in (k, plan.depth + 1 + k)]
    view = M.reshape(digits + digits).transpose(order)  # (i0, j0, ..., row, col)
    radices = view.shape[2:]
    limit = max(min(PANEL, M.size // plan.n**4), 1)
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
    """dst := M @ src, panel by panel of PANEL columns: these small-K GEMMs
    over long rows are bandwidth-bound, and BLAS runs them up to about twice
    as fast on cache-sized column panels."""
    for c in range(0, src.shape[1], PANEL):
        np.matmul(M, src[:, c : c + PANEL], out=dst[:, c : c + PANEL])


def _gather(M, panels, dst) -> None:
    """dst := M @ src, src given by its column panels (see _a_panels): numpy
    stages each panel in a temporary, as it reshapes it to n*n rows."""
    nn = M.shape[1]
    c = 0
    for view in panels:
        w = view.size // nn
        np.matmul(M, view.reshape(nn, w), out=dst[:, c : c + w])
        c += w


def _scatter(M, src, panels) -> None:
    """The mirror of _gather: dst := M @ src, dst given by its column
    panels, each assigned from the product of one panel of src."""
    nn = M.shape[0]
    c = 0
    for view in panels:
        w = view.size // nn
        view[...] = (M @ src[:, c : c + w]).reshape(view.shape)
        c += w


def _node(X, Y, S, level, plan, code) -> int:
    """Y := X Y, X only read, Y flat in block layout and the flat S scratch;
    returns the number of leaf products made.  X is flat in block layout
    too, except at the top node (level 0), where X and Y are the padded A
    and B, row-major and seen through column panels (see _a_panels).  code
    holds the factor rows."""
    U, V, Wt = code
    rank, nn = V.shape
    Ys = Y.reshape(nn, -1)
    hh = Ys.shape[1]
    slack = int(level == plan.depth - 1)  # 1 at the leaf parent
    Sx = S[: (rank + slack) * hh].reshape(rank + slack, hh)
    if level:
        read, write, Xs, Yp = _panels, _panels, X.reshape(nn, -1), Ys
    else:
        read, write, Xs, Yp = _gather, _scatter, _a_panels(X, plan), _a_panels(Y, plan)
    read(V, Yp, Sx[slack:])  # every term's B side; Y's blocks are free from here
    g = plan.groups[level]  # blocks no child stack takes
    child = S[rank * hh :] if plan.spill else Ys[g:].reshape(-1)
    L = Sx.reshape(-1, plan.leaf, plan.leaf)  # the leaf parent's stack as leaf x leaf blocks
    leaves = 0
    for t0 in range(0, rank, g):
        k = min(g, rank - t0)
        read(U[t0 : t0 + k], Xs, Ys[:k])  # A sides of k terms, one pass over X
        for j in range(k):
            if slack:  # the product lands one block before its B side
                np.matmul(Ys[j].reshape(plan.leaf, plan.leaf), L[t0 + j + 1], out=L[t0 + j])
                leaves += 1
            else:
                leaves += _node(Ys[j], Sx[t0 + j], child, level + 1, plan, code)
    write(Wt, Sx[:rank], Yp)  # each C block written once
    return leaves


def multiply_recursive(
    dec: Decomposition, A: np.ndarray, B: np.ndarray, cutoff: int = 1
) -> MulReport:
    """Recursive block multiplication driven by the decomposition."""
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise RefusedInput("A and B must be square and of equal size")
    if np.iscomplexobj(A) or np.iscomplexobj(B):
        raise RefusedInput("multiply_recursive takes real matrices; a complex input would lose its imaginary part")
    plan = _plan(dec.n, dec.rank, A.shape[0], cutoff)
    size, padded, depth = A.shape[0], plan.padded, plan.depth
    t0 = time.perf_counter()
    # A is only read, unless it must be padded or converted.  Y is B's copy, the top node's free blocks
    # and the result, C-ordered: np.pad keeps an F-ordered B's order, and Y.reshape(-1) would then copy.
    if depth:
        A = np.asarray(A, dtype=np.float64) if padded == size else np.pad(np.asarray(A, dtype=np.float64), (0, padded - size))
        Y = np.pad(np.ascontiguousarray(B, dtype=np.float64), (0, padded - size))
        leaves = _node(A, Y.reshape(-1), np.empty(plan.workspace), 0, plan, _compile(dec))
        del A  # any converted copy of A, freed with the workspace before cropping
        result = Y if padded == size else Y[:size, :size].copy()
    else:  # the plain product, on the inputs as given
        result, leaves = np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64), 1
    return MulReport(
        result=result,
        scalar_multiplications=leaves * plan.leaf**3,
        wall_time=time.perf_counter() - t0,
        recursion_depth=depth,
    )


def predicted_mult_count(n: int, rank: int, size: int, cutoff: int = 1) -> int:
    """Exact multiplication count of multiply_recursive for the given shape."""
    return _plan(n, rank, size, cutoff).count


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
