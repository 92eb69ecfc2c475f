"""Per-layer metrics from a traced run.

Times are CPU seconds per cycle (one op per size of a multiply workload, one
certification cycle of cli-certify), taken from the traced spans; counts are
per cycle too.  Metrics whose unit ends in `-computed` (block_flops,
block_bytes, useful_frac, tensor_of.bytes) are modelled by `counts` from the
decomposition's terms and the sizes, not measured.  They follow the executor
as it is now (padding to the next power of n, one block add per nonzero):
block_flops and block_bytes move with the decomposition's nonzeros,
useful_frac and tensor_of.bytes only with the sizes, n and rank, and no
change to how the package executes a decomposition moves any of them.
A layer the workload does not touch reports 0.
"""

from __future__ import annotations

import statistics
from time import process_time

import numpy as np

import counts
from tracing import ATTRS, NAME, PARENT, SELF, T0, T1

# name -> unit, in report order
UNITS = {
    "bilinear.multiply_recursive.s": "s",
    "bilinear.leaf_gemm_s": "s",
    "bilinear.overhead_ratio": "ratio",
    "bilinear.scalar_mults": "count",
    "bilinear.depth": "count",
    "bilinear.nnz.a": "count",
    "bilinear.nnz.b": "count",
    "bilinear.nnz.c": "count",
    "bilinear.coef_tiny.a": "count",
    "bilinear.coef_tiny.b": "count",
    "bilinear.coef_tiny.c": "count",
    "bilinear.block_flops": "flop-computed",
    "bilinear.block_bytes": "B-computed",
    "bilinear.useful_frac": "ratio-computed",
    "ref.matmul_s": "s",
    "tensor.tensor_of.calls": "count",
    "tensor.tensor_of.s": "s",
    "tensor.tensor_of.bytes": "B-computed",
    "tensor.mm_tensor.calls": "count",
    "verify.verify_float.s": "s",
    "verify.invariants_report.s": "s",
    "verify.verify_exact_gram.s": "s",
    "serialize.load_decomposition.s": "s",
    "serialize.save_decomposition.s": "s",
    "serialize.load_matrix.s": "s",
    "serialize.save_matrix.s": "s",
    "serialize.file_bytes": "B",
    "constructions.build.s": "s",
    "fourier2.fourier_coefficients.s": "s",
    "cli.gen.s": "s",
    "cli.verify.s": "s",
    "cli.verify_exact.s": "s",
    "cli.analyze.s": "s",
    "cli.multiply.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.wrapper_s": "s",
    "trace.spans": "count",
}

TIMED_SPANS = (
    "bilinear.multiply_recursive",
    "tensor.tensor_of",
    "verify.verify_float",
    "verify.invariants_report",
    "verify.verify_exact_gram",
    "serialize.load_decomposition",
    "serialize.save_decomposition",
    "serialize.load_matrix",
    "serialize.save_matrix",
    "fourier2.fourier_coefficients",
    "cli.gen",
    "cli.verify",
    "cli.verify_exact",
    "cli.analyze",
    "cli.multiply",
)

CALIBRATION_REPS = 3


def _median_time(fn) -> float:
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = process_time()
        fn()
        times.append(process_time() - t0)
    return statistics.median(times)


def leaf_gemm_seconds(A, B, plan) -> float:
    """Time `leaves` products X @ Y at the leaf shape, X and Y being the
    top-left leaf blocks of the zero-padded inputs."""
    leaf = plan["leaf"]
    m = min(leaf, plan["size"])
    X = np.zeros((leaf, leaf))
    Y = np.zeros((leaf, leaf))
    X[:m, :m] = A[:m, :m]
    Y[:m, :m] = B[:m, :m]

    def run():
        for _ in range(plan["leaves"]):
            X @ Y

    return _median_time(run)


def compute(tracer, ops, setup_op, cycles, mul_calls, overhead_s, wrapper_call_s) -> dict:
    """`mul_calls` holds `(op, dec, A, B, cutoff, mults, depth)` for every
    traced `multiply_recursive` call; leaf-GEMM calibration and the numpy
    reference run here, after tracing, on those same inputs.  `overhead_s`
    is the measured tracing overhead per cycle, `wrapper_call_s` the cost
    of one wrapper call."""
    spans = tracer.select(ops)
    m = dict.fromkeys(UNITS, 0)

    for name in TIMED_SPANS:
        m[f"{name}.s"] = sum(s[T1] - s[T0] for s in spans if s[NAME] == name) / cycles
    m["tensor.tensor_of.calls"] = sum(s[NAME] == "tensor.tensor_of" for s in spans) / cycles
    m["tensor.mm_tensor.calls"] = sum(s[NAME] == "tensor.mm_tensor" for s in spans) / cycles
    m["tensor.tensor_of.bytes"] = sum(s[ATTRS]["bytes"] for s in spans if s[NAME] == "tensor.tensor_of") / cycles
    m["serialize.file_bytes"] = sum(s[ATTRS]["bytes"] for s in spans if s[NAME].startswith("serialize.")) / cycles
    m["cli.self_s"] = sum(s[SELF] for s in spans if s[NAME].startswith("cli.")) / cycles
    m["trace.spans"] = len(spans) / cycles

    by_id = tracer.spans

    def build_time(selected):
        return sum(
            s[T1] - s[T0]
            for s in selected
            if s[NAME].startswith("constructions.")
            and (s[PARENT] is None or not by_id[s[PARENT]][NAME].startswith("constructions."))
        )

    m["constructions.build.s"] = build_time(tracer.select([setup_op])) + build_time(spans) / cycles

    ops = set(ops)
    calls = [c for c in mul_calls if c[0] in ops]
    if calls:
        dec = calls[0][1]
        nnz = counts.nnz(dec)
        m.update(zip(("bilinear.nnz.a", "bilinear.nnz.b", "bilinear.nnz.c"), nnz))
        m.update(zip(("bilinear.coef_tiny.a", "bilinear.coef_tiny.b", "bilinear.coef_tiny.c"), counts.coef_tiny(dec)))
        plans, leaf_s, ref_s, mults, depth = [], 0.0, 0.0, 0, 0
        timed = {}
        for _, d, A, B, cutoff, call_mults, call_depth in calls:
            mults += call_mults
            depth = max(depth, call_depth)
            p = counts.plan(d.n, d.rank, counts.nnz(d), A.shape[0], cutoff)
            plans.append(p)
            key = (d.n, d.rank, p["size"], cutoff)
            if key not in timed:
                timed[key] = (leaf_gemm_seconds(A, B, p), _median_time(lambda: A @ B))
            leaf_s += timed[key][0]
            ref_s += timed[key][1]
        m["bilinear.leaf_gemm_s"] = leaf_s / cycles
        m["ref.matmul_s"] = ref_s / cycles
        m["bilinear.overhead_ratio"] = m["bilinear.multiply_recursive.s"] / m["bilinear.leaf_gemm_s"]
        m["bilinear.scalar_mults"] = mults / cycles
        m["bilinear.depth"] = depth
        m["bilinear.block_flops"] = sum(p["block_flops"] for p in plans) / cycles
        m["bilinear.block_bytes"] = sum(p["block_bytes"] for p in plans) / cycles
        m["bilinear.useful_frac"] = counts.useful_frac(plans)
    m["trace.overhead_s"] = overhead_s
    m["trace.wrapper_s"] = m["trace.spans"] * wrapper_call_s
    return m

