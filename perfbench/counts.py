"""Counts computed from a decomposition's public terms and the input sizes.

Nothing here runs the executor: the counts restate what `multiply_recursive`
and `tensor_of` do, so a change to those functions that should move a count
can be checked against these numbers.
"""

from __future__ import annotations

TINY = 1e-12


def _float_terms(dec):
    d = dec.to_float() if dec.exact else dec
    return d.terms


def nnz(dec) -> tuple[int, int, int]:
    """Nonzero coefficients on the A, B and C sides, with the executor's
    own `!= 0.0` test."""
    terms = _float_terms(dec)
    return tuple(sum(int((getattr(t, side) != 0.0).sum()) for t in terms) for side in "abc")


def coef_tiny(dec) -> tuple[int, int, int]:
    """Coefficients with 0 < |x| < 1e-12 per side: each costs a block
    operation but only carries round-off."""
    terms = _float_terms(dec)
    return tuple(
        sum(int(((getattr(t, side) != 0.0) & (abs(getattr(t, side)) < TINY)).sum()) for t in terms)
        for side in "abc"
    )


def plan(n: int, rank: int, nnz_abc: tuple[int, int, int], size: int, cutoff: int) -> dict:
    """Shape of one `multiply_recursive` call, and the block work it does.

    Padding goes to the next power of n; the recursion splits while the
    block is larger than the cutoff.  At a node of block size s with
    h = s / n, every nonzero coefficient costs one scaled block add
    (2 h^2 flops; reads the source block and reads and writes the
    accumulator, 24 h^2 bytes), and the node zero-fills 2 * rank blocks of
    h^2 and one result of s^2 (8 bytes each).  Leaf products are not block
    work and are not counted here.
    """
    padded = 1
    while padded < max(size, 1):
        padded *= n
    s, depth = padded, 0
    flops = nbytes = 0
    total_nnz = sum(nnz_abc)
    while s > cutoff and s % n == 0:
        h = s // n
        nodes = rank**depth
        flops += nodes * 2 * h * h * total_nnz
        nbytes += nodes * (24 * h * h * total_nnz + 8 * (2 * rank * h * h + s * s))
        s = h
        depth += 1
    return {
        "size": size,
        "padded": padded,
        "depth": depth,
        "leaf": s,
        "leaves": rank**depth,
        "scalar_mults": rank**depth * s**3,
        "block_flops": flops,
        "block_bytes": nbytes,
    }


def useful_frac(plans) -> float:
    """Sum of size^3 over sum of padded^3."""
    return sum(p["size"] ** 3 for p in plans) / sum(p["padded"] ** 3 for p in plans)


def tensor_of_bytes(dec) -> int:
    """Bytes `tensor_of` allocates: the zero tensor plus, per term, the
    rank-1 tensor and the new running sum, each n^6 float64 entries."""
    return 8 * dec.n**6 * (2 * dec.rank + 1)
