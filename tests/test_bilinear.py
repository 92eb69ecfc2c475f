import math
import tracemalloc

import numpy as np
import pytest

from orbitmm.bilinear import (
    PANEL,
    _plan,
    benchmark,
    format_bench_table,
    multiply_recursive,
    multiply_via,
    naive_multiply,
    predicted_mult_count,
)
from orbitmm.constructions import (
    lattice_decomposition,
    orbit_decomposition,
    orbit_spec_for,
    strassen_theta,
)
from orbitmm.frames import simplex_frame
from orbitmm.tensor import Decomposition, RefusedInput

from conftest import integer_lattice


def lattice(n):
    return lattice_decomposition(simplex_frame(n))


def _reference_recursive(dec, A, B, cutoff=1):
    """The per-term loop executor: splits the fewest times that bring a
    block to the cutoff, so it pads to leaf * n^depth with leaf =
    ceil(size / n^depth), and, at each node, forms every block combination
    and accumulates every product term by term.  A matrix at or below the
    cutoff is not split, so it is not padded either: its plain product costs
    size^3.  Returns (result, scalar multiplications, recursion depth)."""
    n = dec.n
    d = dec.to_float() if dec.exact else dec
    size = A.shape[0]
    leaf, scale = size, 1
    while leaf > cutoff:
        scale *= n
        leaf = -(-size // scale)
    padded = leaf * scale
    Ap = np.zeros((padded, padded))
    Bp = np.zeros((padded, padded))
    Ap[:size, :size] = A
    Bp[:size, :size] = B
    mults = 0
    depth = 0

    def rec(X, Y, level):
        nonlocal mults, depth
        depth = max(depth, level)
        s = X.shape[0]
        if s <= cutoff or s % n != 0:
            mults += s**3
            return X @ Y
        h = s // n
        Xb = [[X[i * h : (i + 1) * h, j * h : (j + 1) * h] for j in range(n)] for i in range(n)]
        Yb = [[Y[i * h : (i + 1) * h, j * h : (j + 1) * h] for j in range(n)] for i in range(n)]
        C = np.zeros((s, s))
        for t in d.terms:
            P = np.zeros((h, h))
            Q = np.zeros((h, h))
            for i in range(n):
                for j in range(n):
                    if t.a[i, j] != 0.0:
                        P += t.a[i, j] * Xb[i][j]
                    if t.b[i, j] != 0.0:
                        Q += t.b[i, j] * Yb[i][j]
            M = rec(P, Q, level + 1)
            for i in range(n):
                for j in range(n):
                    if t.c[i, j] != 0.0:
                        # c^T places block (i, j) of c at block position (j, i)
                        C[j * h : (j + 1) * h, i * h : (i + 1) * h] += t.c[i, j] * M
        return C

    return rec(Ap, Bp, 0)[:size, :size], mults, depth


def test_naive_multiply_example():
    A = np.array([[1.0, 2], [3, 4]])
    B = np.array([[5.0, 6], [7, 8]])
    assert np.array_equal(naive_multiply(A, B), [[19.0, 22], [43, 50]])


def test_naive_multiply_rectangular():
    A = np.arange(6.0).reshape(2, 3)
    B = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(naive_multiply(A, B), A @ B)


def test_naive_multiply_rejects_mismatch():
    with pytest.raises(ValueError):
        naive_multiply(np.zeros((2, 3)), np.zeros((2, 3)))


def test_multiply_via_example():
    A = np.array([[1.0, 2], [3, 4]])
    B = np.array([[5.0, 6], [7, 8]])
    C = multiply_via(lattice(2), A, B)
    assert np.abs(C - [[19.0, 22], [43, 50]]).max() < 1e-12


def test_multiply_via_wrong_size():
    with pytest.raises(ValueError):
        multiply_via(lattice(2), np.zeros((3, 3)), np.zeros((3, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_multiply_via_random_agreement(n, nprng):
    dec = lattice(n)
    for _ in range(5):
        A = nprng.standard_normal((n, n))
        B = nprng.standard_normal((n, n))
        assert np.abs(multiply_via(dec, A, B) - naive_multiply(A, B)).max() < 1e-10


@pytest.mark.parametrize("scheme", ["lattice", "orbit", "strassen"])
def test_recursive_agreement(scheme, nprng):
    if scheme == "lattice":
        dec = lattice(3)
    elif scheme == "orbit":
        dec = orbit_decomposition(orbit_spec_for(3))
    else:
        dec = strassen_theta(math.pi / 6)
    size = 9 if dec.n == 3 else 8
    A = nprng.standard_normal((size, size))
    B = nprng.standard_normal((size, size))
    rep = multiply_recursive(dec, A, B)
    assert np.abs(rep.result - naive_multiply(A, B)).max() < 1e-9


def test_recursive_count_law_strassen():
    # rank^k scalar multiplications at cutoff 1
    dec = lattice(2)
    A = np.eye(8)
    rep = multiply_recursive(dec, A, A, cutoff=1)
    assert rep.scalar_multiplications == 7**3
    assert rep.recursion_depth == 3


def test_recursive_count_law_n3():
    dec = lattice(3)
    A = np.ones((9, 9))
    rep = multiply_recursive(dec, A, A, cutoff=1)
    assert rep.scalar_multiplications == 25**2


def test_recursive_cutoff_switches_to_plain_product():
    dec = lattice(2)
    A = np.eye(8)
    rep = multiply_recursive(dec, A, A, cutoff=2)
    # two levels of rank-7 splitting, then 2x2 plain products (8 mults each)
    assert rep.scalar_multiplications == 7**2 * 8
    assert rep.recursion_depth == 2


def test_recursive_padding_transparent(nprng):
    dec = lattice(2)
    for size in (3, 5, 6, 7):
        A = nprng.standard_normal((size, size))
        B = nprng.standard_normal((size, size))
        rep = multiply_recursive(dec, A, B)
        assert rep.result.shape == (size, size)
        assert np.abs(rep.result - A @ B).max() < 1e-9


def test_recursive_rejects_bad_input():
    dec = lattice(2)
    with pytest.raises(RefusedInput, match="square and of equal size"):
        multiply_recursive(dec, np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(RefusedInput, match="cutoff must be >= 1"):
        multiply_recursive(dec, np.eye(2), np.eye(2), cutoff=0)


@pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 2), (3, 3))], ids=["non-square", "unequal-size"])
def test_recursive_refuses_shape_mismatch(shapes):
    A, B = map(np.ones, shapes)
    with pytest.raises(RefusedInput, match="square and of equal size"):
        multiply_recursive(lattice(2), A, B)


@pytest.mark.parametrize("side", ["A", "B"])
def test_recursive_refuses_complex_input(side, monkeypatch):
    # the float64 executor would drop the imaginary part: 1j*I @ I read as 0
    import orbitmm.bilinear as bilinear

    monkeypatch.setattr(bilinear, "_plan", lambda *a: pytest.fail("refusal must come before any work"))
    A, B = (1j * np.eye(4), np.eye(4)) if side == "A" else (np.eye(4), np.eye(4, dtype=np.complex128))
    with pytest.raises(RefusedInput, match="complex"):
        multiply_recursive(orbit_decomposition(orbit_spec_for(2)), A, B, cutoff=1)


# (size, cutoff, recursion depth): depths 0 to 4, padded sizes, and sizes at
# or below the cutoff; n=4 stops at depth 2, where rank 61 makes 3721 leaves.
# orbit2 at 384 (leaves of 48, unpadded) and lattice3 at 729 have top blocks
# of 36864 and 59049 entries, so their combination GEMMs run in several column panels
# of PANEL = 8192, lattice3's last one ragged; lattice4 at 256 runs 61 terms in A-side groups
# of 12, the last group of one.  orbit2's 256/16 and 200/16, lattice3's
# 243/9 and 17/1 and rank13's two shapes run small leaves at depth 3 or 4.
# orbit2's 31/31 and 260/200 and lattice3's 28/9 are shapes where the fewest
# splits (31/31 at depth 0) and the least padding (28/9 to 36) differ from
# padding to the next power of n.
EXECUTOR_CASES = {
    "orbit2": [
        (1, 1, 0), (4, 4, 0), (5, 8, 0), (5, 4, 1), (10, 4, 2), (17, 4, 3), (8, 1, 3), (384, 64, 3), (256, 16, 4),
        (200, 16, 4), (31, 31, 0), (260, 200, 1),
    ],
    "lattice3": [(3, 3, 0), (5, 9, 0), (5, 3, 1), (10, 3, 2), (17, 1, 3), (729, 81, 2), (243, 9, 3), (28, 9, 2)],
    "lattice4": [(4, 4, 0), (3, 16, 0), (5, 4, 1), (10, 1, 2), (256, 16, 2)],
    "rank9": [(256, 32, 3)],
    "rank13": [(32, 4, 3), (27, 4, 3)],
}


def naive2():
    """The rank-8 n=2 scheme a = E_ij, b = E_jk, c = E_ki, whose rank n^2
    divides."""
    E = np.eye(4).reshape(4, 2, 2)  # E[2i + j] = E_ij
    i, j, k = np.indices((2, 2, 2)).reshape(3, -1)
    return Decomposition(E[2 * i + j], E[2 * j + k], E[2 * k + i])


def _with_cancelling_pairs(dec, pairs, nprng):
    """dec plus the terms (a, b, c) and (a, b, -c) for `pairs` random
    triples: the same product at rank dec.rank + 2 * pairs."""
    a, b, c = nprng.standard_normal((3, pairs, dec.n, dec.n))
    return Decomposition(
        np.concatenate([dec.U, a, a]), np.concatenate([dec.V, b, b]), np.concatenate([dec.W, c, -c])
    )


# rank9 and rank13 are the n=2 orbit with one and three cancelling pairs;
# rank 13 > n^2(n^2 - 1) = 12, so its stacks spill into the workspace
EXECUTOR_DECS = {
    "naive2": naive2,
    "orbit2": lambda: orbit_decomposition(orbit_spec_for(2)),
    "lattice3": lambda: lattice(3),
    "lattice4": lambda: lattice(4),
    "rank9": lambda: _with_cancelling_pairs(EXECUTOR_DECS["orbit2"](), 1, np.random.default_rng(9)),
    "rank13": lambda: _with_cancelling_pairs(EXECUTOR_DECS["orbit2"](), 3, np.random.default_rng(13)),
}


@pytest.mark.parametrize("kind", ["float", "int"])
@pytest.mark.parametrize("name", sorted(EXECUTOR_CASES))
def test_recursive_matches_reference(name, kind, nprng):
    dec = EXECUTOR_DECS[name]()
    for size, cutoff, depth in EXECUTOR_CASES[name]:
        if kind == "int":
            A = nprng.integers(-9, 10, (size, size))
            B = nprng.integers(-9, 10, (size, size))
        else:
            A = nprng.standard_normal((size, size))
            B = nprng.standard_normal((size, size))
        rep = multiply_recursive(dec, A, B, cutoff=cutoff)
        ref, mults, ref_depth = _reference_recursive(dec, A, B, cutoff=cutoff)
        assert (rep.scalar_multiplications, rep.recursion_depth) == (mults, ref_depth)
        assert ref_depth == depth
        assert mults == predicted_mult_count(dec.n, dec.rank, size, cutoff)
        # the summation order differs from the reference's, so agreement is
        # to a tolerance relative to the product's scale, fixed in advance
        scale = float(np.abs(A @ B).max())
        assert rep.result.shape == (size, size)
        assert np.abs(rep.result - ref).max() <= 1e-12 * scale
        assert np.abs(rep.result - A @ B).max() <= 1e-12 * scale


# (size, cutoff, depth): depths 0 to 6, padded and unpadded sizes; the
# rank-12 scheme stops at depth 5, as its 12^6 leaves at depth 6 take
# seconds a product.  31/31, 260/200 and 40/8 run at depth 0, at depth 1 and
# on leaves of 5, unpadded, where padding to the next power of 2 would run
# depth 1, depth 2 and leaves of 8
EXACT_CASES = [
    (200, 256, 0), (5, 4, 1), (8, 2, 2), (6, 2, 2), (8, 1, 3), (37, 4, 4), (100, 8, 4), (32, 1, 5), (256, 16, 4),
    (200, 16, 4), (256, 32, 3), (31, 31, 0), (260, 200, 1), (40, 8, 3),
]
# the n = 3 cases: depths 1 to 4, 30 padded to 54, 28 to 36 and 10 to 27
EXACT_CASES_3 = [(27, 9, 1), (27, 3, 2), (81, 3, 3), (30, 3, 3), (10, 1, 3), (81, 1, 4), (28, 9, 2)]


@pytest.mark.parametrize("name", ["naive2", "spill12", "lattice2", "lattice3"])
def test_recursive_exact_on_integer_floats(name, nprng):
    # integer-valued inputs and integer coefficients of magnitude at most 1
    # keep every block sum and leaf product an integer below 2^53, so the
    # product equals A @ B bit for bit whatever the summation order.
    # spill12 is naive2 plus the integer pairs (a, b, c) and (a, b, -c):
    # rank 12, whose children's stacks spill into the workspace.  lattice2
    # and lattice3 are the paper's lattices in their integer frame basis
    dec, cases = naive2(), EXACT_CASES + [(64, 1, 6)]
    if name == "spill12":
        a, b, c = nprng.integers(-1, 2, (3, 2, 2, 2)).astype(np.float64)
        dec = Decomposition(np.concatenate([dec.U, a, a]), np.concatenate([dec.V, b, b]), np.concatenate([dec.W, c, -c]))
        cases = EXACT_CASES
    elif name.startswith("lattice"):
        n = int(name[-1])
        dec, cases = Decomposition(*integer_lattice(n).astype(np.float64)), EXACT_CASES if n == 2 else EXACT_CASES_3
    for size, cutoff, depth in cases:
        A, B = nprng.integers(-3, 4, (2, size, size)).astype(np.float64)
        for X, Y in ((A, B), (A.T, B.T)):
            rep = multiply_recursive(dec, X, Y, cutoff=cutoff)
            assert rep.recursion_depth == depth
            assert np.array_equal(rep.result, X @ Y)


# (scheme, cancelling pairs added, size, cutoff, g): a depth-first node
# above the leaf parent forms its A sides g at a time, in the n^2 blocks of
# Y less the ceil((rank + 1)/n^2) that hold its children's stacks (a leaf
# parent's stack has one slack block): g = 2, 6, 12 for the n = 2, 3, 4
# schemes of rank n^3 - n + 1 and 1 for rank 8, which n^2 divides.  The leaf
# parent, and every node of ranks 12 and 13, whose stacks spill into the
# workspace, fill all n^2 blocks.
@pytest.mark.parametrize("name,pairs,size,cutoff,g", [
    ("orbit2", 0, 512, 64, 2), ("naive2", 0, 512, 64, 1), ("lattice4", 0, 64, 4, 12),
    ("orbit2", 0, 8, 1, 2), ("orbit2", 0, 16, 1, 2), ("lattice3", 0, 27, 1, 6),
    ("naive2", 0, 8, 1, 1), ("naive2", 2, 40, 8, 4), ("orbit2", 3, 40, 8, 4),
])
def test_a_side_passes(name, pairs, size, cutoff, g, monkeypatch, nprng):
    # each A-side GEMM (factor rows a slice of U) is one pass over the
    # node's X; the nodes of a level of group g make ceil(rank/g) each
    import orbitmm.bilinear as bilinear

    dec = _with_cancelling_pairs(EXECUTOR_DECS[name]().to_float(), pairs, nprng)
    passes = {}  # columns of a node's stack -> A-side GEMMs of all its nodes

    def counted(gemm):
        def wrapped(M, src, dst):
            if np.shares_memory(M, dec.U):
                passes[dst.shape[1]] = passes.get(dst.shape[1], 0) + 1
            gemm(M, src, dst)

        return wrapped

    for gemm in ("_panels", "_gather"):
        monkeypatch.setattr(bilinear, gemm, counted(getattr(bilinear, gemm)))
    A, B = nprng.standard_normal((2, size, size))
    rep = multiply_recursive(dec, A, B, cutoff=cutoff)
    assert np.abs(rep.result - A @ B).max() <= 1e-12 * float(np.abs(A @ B).max())
    n, rank, depth = dec.n, dec.rank, rep.recursion_depth
    plan = _plan(n, rank, size, cutoff)
    p = plan.padded
    groups = [n * n if level == depth - 1 else g for level in range(depth)]
    assert list(plan.groups) == groups
    assert passes == {
        (p // n ** (level + 1)) ** 2: rank**level * math.ceil(rank / groups[level]) for level in range(depth)
    }


@pytest.mark.parametrize("size", [8, 5])
def test_recursive_result_owns_its_data(size, nprng):
    dec = orbit_decomposition(orbit_spec_for(2))
    A, B, A2, B2 = (nprng.standard_normal((size, size)) for _ in range(4))
    first = multiply_recursive(dec, A, B, cutoff=2).result
    kept = first.copy()
    multiply_recursive(dec, A2, B2, cutoff=2)
    assert np.array_equal(first, kept)
    assert first.flags.owndata and first.base is None


# (size, cutoff): depth 0, depth 1 at size == n, depth 3, padded sizes
@pytest.mark.parametrize("name,size,cutoff", [
    ("orbit2", 4, 4), ("orbit2", 2, 1), ("orbit2", 8, 1), ("orbit2", 5, 1), ("orbit2", 6, 2),
    ("orbit2", 100, 8), ("lattice3", 3, 1), ("lattice3", 10, 3),
])
def test_recursive_leaves_inputs_unchanged(name, size, cutoff, nprng):
    # the top node reads an unpadded float64 A in place, whatever its
    # strides (a transposed view, a strided slice); an int64 or object
    # matrix is converted, since the gather cannot cast objects to float64
    dec = EXECUTOR_DECS[name]()
    A, B = nprng.standard_normal((2, size, size))
    wide = nprng.standard_normal((2 * size, 3 * size))
    ints = nprng.integers(-9, 10, (size, size))
    for A in (A, A.T, wide[::2, 1::3], ints, ints.astype(object)):
        A0, B0 = A.copy(), B.copy()
        rep = multiply_recursive(dec, A, B, cutoff=cutoff)
        assert np.array_equal(A, A0) and np.array_equal(B, B0)
        assert np.abs(rep.result - A0 @ B0).max() <= 1e-12 * float(np.abs(A0 @ B0).max())


@pytest.mark.parametrize("size,cutoff", [(100, 8), (64, 8)], ids=["padded", "unpadded"])
def test_recursive_transposed_b(size, cutoff, nprng):
    # B's padded copy must be row-major whatever B's order: the product is
    # written through a flat view of it
    dec = EXECUTOR_DECS["orbit2"]()
    A, B = nprng.standard_normal((2, size, size))
    for X, Y in ((A, B.T), (A.T, B.T)):
        rep = multiply_recursive(dec, X, Y, cutoff=cutoff)
        assert rep.recursion_depth >= 1
        assert np.abs(rep.result - X @ Y).max() <= 1e-12 * float(np.abs(X @ Y).max())


def _peak_within_law(dec, A, B, cutoff):
    """Run one product under tracemalloc and check its peak against the
    law: the p x p copy of B that becomes the result, the workspace and
    numpy's temporary of one column panel of the top node's A, B or C, n^2
    rows of at most PANEL and (p/n)^2/n^2 entries.  The workspace is the top
    node's stack of rank (p/n)^2 entries (rank + 1 blocks at depth 1, where
    the top node is the leaf parent), every child's stack living in its
    parent's free blocks, or when the stacks spill, every level's stack.  p
    is the least size that the plan's splits divide evenly, and p > size
    adds one p^2: A is copied once, padded, since the top node's panels are
    views of a p x p matrix.  The product must also match A @ B and the
    count law."""
    multiply_recursive(dec, A, B, cutoff=cutoff)  # warm up numpy's caches
    tracemalloc.start()
    try:
        rep = multiply_recursive(dec, A, B, cutoff=cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, rank, depth = dec.n, dec.rank, rep.recursion_depth
    size = A.shape[0]
    p = _plan(n, rank, size, cutoff).padded
    assert depth >= 1 and rep.scalar_multiplications == predicted_mult_count(n, rank, size, cutoff)
    assert np.abs(rep.result - A @ B).max() <= 1e-12 * float(np.abs(A @ B).max())
    copies = 1 if p == size else 2
    stacks = [(rank + (level == depth - 1)) * (p // n ** (level + 1)) ** 2 for level in range(depth)]
    workspace = sum(stacks) if rank + 1 > n**2 * (n**2 - 1) else stacks[0]
    assert workspace == _plan(n, rank, size, cutoff).workspace
    assert peak <= 8 * (copies * p**2 + workspace + min(n**2 * PANEL, (p // n) ** 2)) + 64 * 1024


# small leaves at depth 3 or 4: orbit2 at 256/16 and 200/16, lattice3 at
# 243/9, lattice4 at 256/4 and rank13 (spilling) at 256/16; top-node panels
# that are ragged (lattice3 at 729/81) or padded (orbit2 at 500/64, to 504)
@pytest.mark.parametrize("name,size,cutoff", [
    ("orbit2", 512, 64), ("lattice3", 243, 27), ("lattice3", 729, 27), ("orbit2", 500, 64), ("lattice3", 244, 27),
    ("naive2", 512, 64), ("orbit2", 512, 256), ("lattice3", 243, 81), ("orbit2", 256, 16), ("orbit2", 200, 16),
    ("lattice3", 243, 9), ("lattice4", 256, 4), ("rank13", 256, 16), ("rank9", 256, 32), ("lattice3", 729, 81),
    ("orbit2", 384, 64),
])
def test_recursive_peak_memory(name, size, cutoff, nprng):
    # a copy of A would exceed the law at every unpadded size here
    A, B = nprng.standard_normal((2, size, size))
    _peak_within_law(EXECUTOR_DECS[name](), A, B, cutoff)


def test_depth0_product_reads_b_in_place(nprng):
    # at or below the cutoff the product, of a power of n (256) or not (200),
    # is A @ B on the inputs as given: it holds only its s x s result and
    # costs s^3
    dec, cutoff = EXECUTOR_DECS["orbit2"](), 256
    for s in (256, 200):
        A, B = nprng.standard_normal((2, s, s))
        multiply_recursive(dec, A, B, cutoff=cutoff)  # warm up numpy's caches
        tracemalloc.start()
        try:
            rep = multiply_recursive(dec, A, B, cutoff=cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.recursion_depth == 0 and np.array_equal(rep.result, A @ B)
        assert rep.scalar_multiplications == s**3 == predicted_mult_count(2, 7, s, cutoff)
        assert peak <= 8 * s**2 + 64 * 1024


def test_depth0_plan_is_not_padded():
    # 200 <= 256 is never split, so it is not padded to 256; 300 is split
    # once, to two blocks of 150, which that split divides unpadded
    plan = _plan(2, 7, 200, 256)
    assert (plan.padded, plan.depth, plan.leaf, plan.count, plan.workspace) == (200, 0, 200, 200**3, 0)
    plan = _plan(2, 7, 300, 256)
    assert (plan.padded, plan.depth, plan.leaf, plan.count) == (300, 1, 150, 7 * 150**3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plan_at_or_below_the_cutoff_is_the_plain_product(n):
    # whatever n, the n = 1 lattice included: depth 0, unpadded, size^3
    for size, cutoff in [(1, 1), (2, 2), (7, 9), (31, 31), (4096, 4096)]:
        plan = _plan(n, n**3 - n + 1, size, cutoff)
        assert (plan.padded, plan.depth, plan.leaf, plan.count, plan.workspace) == (size, 0, size, size**3, 0)


# (n, rank, size, cutoff) -> the whole plan, literal: power-of-n sizes, and
# any size at cutoff 1, padded to the next power of n
PINNED_PLANS = {
    (2, 7, 64, 8): (2, 64, 3, 8, 175616, False, (2, 2, 4), 7168),
    (2, 7, 64, 64): (2, 64, 0, 64, 262144, False, (), 0),
    (3, 25, 243, 9): (3, 243, 3, 9, 11390625, False, (6, 6, 9), 164025),
    (3, 25, 81, 80): (3, 81, 1, 27, 492075, False, (9,), 18954),
    (4, 61, 256, 16): (4, 256, 2, 16, 15241216, False, (12, 16), 249856),
    (2, 13, 32, 4): (2, 32, 3, 4, 140608, True, (4, 4, 4), 4384),
    (2, 7, 5, 1): (2, 8, 3, 1, 343, False, (2, 2, 4), 112),
    (2, 7, 31, 1): (2, 32, 5, 1, 16807, False, (2, 2, 2, 2, 4), 1792),
    (3, 25, 10, 1): (3, 27, 3, 1, 15625, False, (6, 6, 9), 2025),
    (4, 61, 17, 1): (4, 64, 3, 1, 226981, False, (12, 12, 16), 15616),
    (2, 13, 9, 1): (2, 16, 4, 1, 28561, True, (4, 4, 4, 4), 1106),
}


@pytest.mark.parametrize("args", sorted(PINNED_PLANS))
def test_plan_of_powers_of_n_and_cutoff_1(args):
    assert _plan(*args) == PINNED_PLANS[args]


# (n, rank, size, cutoff) -> (padded, depth, leaf, count): one split fewer
# than padding to the next power of n would make (31/31, 260/200), or a
# leaf that divides less padding (28/9: 36, not 81; 40/8: 40, not 64)
@pytest.mark.parametrize("args,shape", [
    ((2, 7, 31, 31), (31, 0, 31, 31**3)), ((2, 7, 260, 200), (260, 1, 130, 7 * 130**3)),
    ((3, 25, 28, 9), (36, 2, 4, 25**2 * 4**3)), ((2, 7, 40, 8), (40, 3, 5, 7**3 * 5**3)),
    ((3, 25, 244, 27), (270, 3, 10, 25**3 * 10**3)), ((3, 25, 500, 27), (513, 3, 19, 25**3 * 19**3)),
])
def test_plan_splits_the_fewest_times_and_pads_what_they_divide(args, shape):
    plan = _plan(*args)
    assert (plan.padded, plan.depth, plan.leaf, plan.count) == shape


def test_recursive_peak_memory_transposed_a(nprng):
    # a transposed A is gathered in place too, not copied to row-major first
    A, B = nprng.standard_normal((2, 512, 512))
    _peak_within_law(EXECUTOR_DECS["orbit2"](), A.T, B, 64)


def test_recursive_rank_above_free_blocks(nprng):
    # rank 13 > n^2(n^2 - 1) = 12: the children's stacks no longer fit in
    # their parents' free blocks and follow one another in the workspace
    orbit = EXECUTOR_DECS["orbit2"]()
    a, b, c = nprng.standard_normal((3, 3, 2, 2))
    dec = Decomposition(
        np.concatenate([orbit.U, a, a]), np.concatenate([orbit.V, b, b]), np.concatenate([orbit.W, c, -c])
    )
    assert dec.rank == 13
    for size, cutoff in [(8, 1), (40, 8)]:
        A, B = nprng.standard_normal((2, size, size))
        rep = multiply_recursive(dec, A, B, cutoff=cutoff)
        ref, mults, depth = _reference_recursive(dec, A, B, cutoff=cutoff)
        assert rep.recursion_depth == depth == 3
        assert rep.scalar_multiplications == mults == predicted_mult_count(2, 13, size, cutoff)
        scale = float(np.abs(A @ B).max())
        assert np.abs(rep.result - A @ B).max() <= 1e-12 * scale
        assert np.abs(rep.result - ref).max() <= 1e-12 * scale


def test_spilling_workspace_holds_every_level():
    # rank 13 splits 40 three times to leaves of 5 and 512 to leaves of 64,
    # neither padded; its stacks spill, so S holds every level's stack,
    # rank * (p / n^(level + 1))^2 entries (rank + 1 blocks at the leaf
    # parent).  Rank 7 does not spill: S is the top node's stack alone, as in
    # mul-strassen's 2048/256
    n, rank = 2, 13
    plan = _plan(n, rank, 40, 8)
    assert plan.spill and (plan.padded, plan.depth, plan.leaf) == (40, 3, 5)
    assert plan.workspace == 13 * 20**2 + 13 * 10**2 + 14 * 5**2
    plan = _plan(n, rank, 512, 64)
    assert plan.spill and (plan.padded, plan.depth) == (512, 3)
    assert plan.workspace == 13 * 256**2 + 13 * 128**2 + 14 * 64**2
    assert _plan(2, 7, 2048, 256) == (2, 2048, 3, 256, 7**3 * 256**3, False, (2, 2, 4), 7 * 1024**2)


@pytest.mark.parametrize("rank", [8, 12])
def test_recursive_ranks_that_squeeze_the_group(rank, nprng):
    # n^2 divides rank 8, so the leaf parent's slack block takes a third
    # free block of its parent and leaves one for A sides; rank 12 =
    # n^2(n^2 - 1) is the naive scheme plus two cancelling pairs, and with
    # the slack block its children's stacks spill into the workspace
    naive = naive2()
    a, b, c = nprng.standard_normal((3, (rank - 8) // 2, 2, 2))
    dec = Decomposition(
        np.concatenate([naive.U, a, a]), np.concatenate([naive.V, b, b]), np.concatenate([naive.W, c, -c])
    )
    assert dec.rank == rank
    for size, cutoff, depth in [(4, 4, 0), (8, 4, 1), (5, 4, 1), (8, 2, 2), (6, 2, 2), (8, 1, 3), (40, 8, 3)]:
        A, B = nprng.standard_normal((2, size, size))
        rep = multiply_recursive(dec, A, B, cutoff=cutoff)
        ref, mults, ref_depth = _reference_recursive(dec, A, B, cutoff=cutoff)
        assert rep.recursion_depth == ref_depth == depth
        assert rep.scalar_multiplications == mults == predicted_mult_count(2, rank, size, cutoff)
        scale = float(np.abs(A @ B).max())
        assert np.abs(rep.result - A @ B).max() <= 1e-12 * scale
        assert np.abs(rep.result - ref).max() <= 1e-12 * scale


def test_recursive_rejects_unsplittable_scheme():
    dec = lattice(1)
    assert multiply_recursive(dec, np.array([[3.0]]), np.array([[2.0]])).result[0, 0] == 6.0
    with pytest.raises(ValueError):
        multiply_recursive(dec, np.eye(2), np.eye(2))


def test_predicted_matches_executed():
    dec = lattice(2)
    for size, cutoff in [(8, 1), (8, 2), (5, 1), (4, 4)]:
        A = np.ones((size, size))
        rep = multiply_recursive(dec, A, A, cutoff=cutoff)
        assert rep.scalar_multiplications == predicted_mult_count(2, 7, size, cutoff)


@pytest.mark.parametrize("args,message", [
    ((2, 7, 8, 0), "cutoff must be >= 1"), ((1, 1, 2, 1), "a 1x1 scheme cannot split"),
], ids=["cutoff-0", "unsplittable"])
def test_predicted_refuses_what_the_executor_refuses(args, message):
    with pytest.raises(RefusedInput, match=message):
        predicted_mult_count(*args)


def test_predicted_large_sizes():
    assert predicted_mult_count(2, 7, 2**6) == 7**6
    assert predicted_mult_count(2, 7, 2**8) == 7**8
    assert predicted_mult_count(3, 25, 3**5) == 25**5


def test_count_exponent_beats_cubic():
    # log_3(25) < 3: the n=3 construction wins asymptotically
    exponent = math.log(25) / math.log(3)
    assert exponent < 2.931
    size = 3**4
    assert predicted_mult_count(3, 25, size) < size**3


def test_benchmark_rows():
    rows = benchmark(lattice(2), sizes=[4, 8], cutoff=1)
    assert [r.size for r in rows] == [4, 8]
    for r in rows:
        assert r.max_error < 1e-9
        assert r.scalar_multiplications == predicted_mult_count(2, 7, r.size, 1)
        assert r.count_at_cutoff_1 == predicted_mult_count(2, 7, r.size, 1)
        assert abs(r.exponent_estimate - math.log(7) / math.log(2)) < 1e-9
        assert r.recursive_time > 0 and r.naive_time > 0


@pytest.mark.parametrize("sizes", [[1], [4, 0]])
def test_benchmark_refuses_sizes_below_2(sizes):
    # the exponent estimate divides by log(size)
    with pytest.raises(RefusedInput, match="sizes must be >= 2"):
        benchmark(lattice(2), sizes=sizes)


def test_benchmark_refuses_rank_0():
    # the exponent estimate takes log(count at cutoff 1), and rank 0 counts 0
    with pytest.raises(RefusedInput, match="rank >= 1"):
        benchmark(Decomposition(*np.zeros((3, 0, 2, 2))), sizes=[4], cutoff=1)


def test_benchmark_table_formatting():
    rows = benchmark(lattice(2), sizes=[4], cutoff=1)
    table = format_bench_table(rows)
    assert "size" in table and "4" in table
