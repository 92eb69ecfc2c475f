"""orbitmm benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` of that checkout, in this process, and driven only through its
public functions and `orbitmm.cli.main(argv)`.  One caller runs ops in a
closed loop, whole cycles at a time, until S seconds of wall time have
passed.  Inputs come from numpy's default_rng(N).  BLAS is pinned to one
thread before numpy is imported.

Every time the benchmark reports is CPU time of this process
(`time.process_time`), not wall time.  The program is single-threaded, so
on an idle machine the two agree; on a shared host wall time also counts
the time the process waits for a CPU.  CPU time still moves with the load
of other tenants on the same cores (caches, memory bandwidth, a busy
hyperthread sibling): on a shared 2-vCPU host the same op has been seen
to take from 1.2 to 2.1 CPU seconds within one run, in spells of a few
seconds on each vCPU independently.  Those spells only ever slow a step
down, so the end-to-end figures take each step (one `multiply_recursive`
call, or one CLI command) at its fastest over the run, or over the
set-ups, which moves less from run to run than the median does.
Medians, p90, throughput and wall-clock times are printed for reference
but are not in the result object.

--trace 0 reports the end-to-end metrics:
  setup_s           import, plus the steps of a set-up (building the
                    decompositions, generating the inputs, and the steps
                    of one unchecked warm-up op), each at its fastest of
                    five set-ups
  cycle_cpu_s.best  CPU seconds of one cycle, summing over its steps (one
                    product per size of a multiply workload, the eight CLI
                    commands of cli-certify) the fastest run of each step
  gflops_eff        sum over the cycle of 2*size^3 / cycle_cpu_s.best, with
                    the unpadded size of the product each op computes (256
                    on cli-certify, where it is a fixed multiple of
                    1 / cycle_cpu_s.best and says nothing of its own)
  peak_rss_mb       peak resident set size of the process
op_cpu_s.p90 is printed when at least 100 ops ran, and failed_frac always.

--trace 1 runs pairs of one untraced and one traced cycle, in ABBA order,
for S seconds and reports the per-layer metrics of `layers.py` from the
traced ones, also in CPU seconds.  The tracing overhead is given twice:
trace.overhead_s, the median over pairs of traced minus untraced seconds,
printed with its quartiles and marked unresolved unless both are above 0
(tracing only adds work, so a negative difference is drift); and
trace.wrapper_s, spans per cycle times the cost of one wrapper call timed
on a no-op.  Spans are written to
.perfbench_out/trace-<workload>-seed<N>.json.

Every op checks its output; a failed check counts the op as failed.  The
last line of stdout is the JSON result.

mul-lattice3-ragged (the n=3 lattice at sizes 243, 244, 500 and 729) runs
like the others but is not listed in BENCHMARK.json: with three workloads
each run must be shorter, and its four products of up to two seconds each
then run too few times to reach their fastest reliably.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import counts
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mul-strassen", "mul-lattice3-ragged", "cli-certify")
SETUP_REPS = 5
P90_MIN_SAMPLES = 100  # p90 is kept only with ten samples beyond it

E2E_UNITS = {
    "setup_s": "s",
    "cycle_cpu_s.best": "s",
    "gflops_eff": "GFLOP/s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import numpy and orbitmm from this checkout; return (module, seconds)."""
    if not (SRC / "orbitmm" / "__init__.py").is_file():
        sys.exit(f"error: no orbitmm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = process_time()
    importlib.import_module("numpy")
    orbitmm = importlib.import_module("orbitmm")
    importlib.import_module("orbitmm.cli")
    seconds = process_time() - t0
    if Path(orbitmm.__file__).resolve().parent != (SRC / "orbitmm").resolve():
        sys.exit(f"error: imported orbitmm from {orbitmm.__file__}, not {SRC}")
    return orbitmm, seconds


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def run_cycles(w, seconds, tracer=None):
    """Run whole cycles of ops until `seconds` have passed.  With a tracer,
    cycles come in pairs of one untraced and one traced cycle, in ABBA
    order: untraced first in even pairs, traced first in odd ones, so that
    neither the order nor a drift in machine speed favours one side.
    Returns (results by op id, ids of the traced ops, traced minus untraced
    seconds of each pair)."""
    from workloads import OpResult

    results, traced, diffs = [], set(), []

    def cycle(span):
        start = len(results)
        for _ in range(w.cycle):
            k = len(results)
            if span:
                tracer.op = k
                traced.add(k)
            t0 = process_time()
            try:
                r = w.op(k, span)
            except Exception:  # one broken op is a failed op, not a dead run
                traceback.print_exc()
                r = OpResult(process_time() - t0, 0.0, ["raised " + traceback.format_exc(limit=1).splitlines()[-1]])
            results.append(r)
        return sum(r.seconds for r in results[start:])

    def traced_cycle():
        tracer.install()
        try:
            return cycle(tracer.span)
        finally:
            tracer.uninstall()

    t_start = perf_counter()
    while True:
        if tracer is None:
            cycle(None)
        elif len(diffs) % 2 == 0:
            untraced_s = cycle(None)
            diffs.append(traced_cycle() - untraced_s)
        else:
            traced_s = traced_cycle()
            diffs.append(traced_s - cycle(None))
        if perf_counter() - t_start >= seconds:
            return results, traced, diffs


def overhead_summary(diffs) -> dict:
    """Median and quartiles of the per-pair differences; the overhead is
    resolved only when both quartiles are above 0: tracing only adds work,
    so a difference at or below 0 is the machine's drift."""
    if len(diffs) > 1:
        q1, _, q3 = statistics.quantiles(diffs, n=4)
    else:
        q1 = q3 = diffs[0]
    return {
        "median_s": statistics.median(diffs),
        "q1_s": q1,
        "q3_s": q3,
        "pairs": len(diffs),
        "resolved": q1 > 0.0,
    }


def end_to_end(setup_s, ops, cycle) -> dict:
    """`ops` maps op id to the `OpResult` of every untraced op; op k is at
    position k % cycle of its cycle.  Failed ops are left out unless all
    failed."""
    best, flops = {}, {}
    passed = {k: r for k, r in ops.items() if not r.failures}
    for k, r in (passed or ops).items():
        flops[k % cycle] = r.flops
        for j, dt in enumerate(r.steps):
            key = (k % cycle, j)
            best[key] = min(dt, best.get(key, dt))
    cycle_s = sum(best.values())
    return {
        "setup_s": setup_s,
        "cycle_cpu_s.best": cycle_s,
        "gflops_eff": sum(flops.values()) / cycle_s / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def print_medians(untraced) -> None:
    """Median-based figures, printed for reference only: on a shared host
    they move with the load of other tenants (see the module docstring)."""
    n = len(untraced)
    times = sorted(r.seconds for r in untraced)
    print(f"{'op_cpu_s.p50':34s} {statistics.median(times):.6g} s  ({n} samples)")
    if n >= P90_MIN_SAMPLES:
        print(f"{'op_cpu_s.p90':34s} {statistics.quantiles(times, n=10)[-1]:.6g} s  ({n} samples)")
    else:
        print(f"{'op_cpu_s.p90':34s} not kept: {n} samples, fewer than {P90_MIN_SAMPLES}")
    print(f"{'ops_per_cpu_s':34s} {n / sum(times):.6g} 1/s")
    print(f"{'op_s.p50 (wall clock)':34s} {statistics.median(r.wall_s for r in untraced):.6g} s")


def make_tracer():
    """Return a tracer that records file and tensor sizes on the serialize
    and `tensor_of` spans, and the list to which it appends every
    `multiply_recursive` call as `(op, dec, A, B, cutoff, mults, depth)`,
    the last two from the call's `MulReport`."""
    mul_calls = []

    def on_multiply(args, kwargs, rep):
        dec, A, B = args[:3]
        cutoff = kwargs.get("cutoff", args[3] if len(args) > 3 else 1)
        mul_calls.append((tracer.op, dec, A, B, cutoff, rep.scalar_multiplications, rep.recursion_depth))
        return {"size": A.shape[0], "cutoff": cutoff, "mults": rep.scalar_multiplications, "depth": rep.recursion_depth}

    def file_bytes(index):
        return lambda args, kwargs, result: {"bytes": os.path.getsize(args[index])}

    tracer = tracing.Tracer(
        annotate={
            "bilinear.multiply_recursive": on_multiply,
            "tensor.tensor_of": lambda args, kwargs, result: {"bytes": counts.tensor_of_bytes(args[0])},
            "serialize.save_decomposition": file_bytes(1),
            "serialize.save_matrix": file_bytes(1),
            "serialize.load_decomposition": file_bytes(0),
            "serialize.load_matrix": file_bytes(0),
        }
    )
    return tracer, mul_calls


def trace_failures(w, tracer, ops, mul_calls, orbitmm) -> dict:
    """Op id -> failed checks on counts only a trace can see: `tensor_of`
    calls per `verify`, and the multiplication count of every
    `multiply_recursive` call, including those made by the CLI."""
    failures = {}
    expected = w.tensor_of_calls
    per_root = tracer.count_by_root(ops, "tensor.tensor_of")
    for s in tracer.select(ops):
        want = expected.get(s[tracing.NAME])
        got = per_root.get(s[tracing.ID], 0)
        if want is not None and got != want:
            failures.setdefault(s[tracing.OP], []).append(f"{s[tracing.NAME]}: {got} tensor_of calls, predicted {want}")
    for op, dec, A, _, cutoff, mults, _ in mul_calls:
        want = orbitmm.predicted_mult_count(dec.n, dec.rank, A.shape[0], cutoff)
        if mults != want:
            failures.setdefault(op, []).append(f"multiply_recursive: {mults} mults, predicted {want}")
    return failures


def report(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:34s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    orbitmm, import_s = import_package()
    import numpy as np

    # imported after the package so that the import time above is the package's
    import layers
    import workloads

    mach = machine(np)
    print("machine", json.dumps(mach))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        w = workloads.make(args.workload, Path(tmp))
        setups = []  # CPU seconds of each set-up's steps
        for _ in range(1 if args.trace else SETUP_REPS):
            t0 = process_time()
            w.build()
            t1 = process_time()
            w.make_inputs(np.random.default_rng(args.seed))
            t2 = process_time()
            setups.append([t1 - t0, t2 - t1, *w.op(0, check=False).steps])
        setup_s = import_s + sum(map(min, zip(*setups)))
        run_failures = w.prepare_checks()

        tracer, mul_calls = make_tracer() if args.trace else (None, None)
        if tracer:
            tracer.install()
            try:
                tracer.op = "setup"
                w.build()
            finally:
                tracer.uninstall()
        results, traced, diffs = run_cycles(w, args.seconds, tracer)
        untraced = {k: r for k, r in enumerate(results) if k not in traced}
        e2e = end_to_end(setup_s, untraced, w.cycle)
        if tracer:
            for op, msgs in trace_failures(w, tracer, traced, mul_calls, orbitmm).items():
                results[op].failures.extend(msgs)
            overhead = overhead_summary(diffs)
            wrapper_call_s = tracing.wrapper_call_seconds()
            per_layer = layers.compute(
                tracer, traced, "setup", len(diffs), mul_calls, overhead["median_s"], wrapper_call_s
            )

    all_failures = run_failures + [f"op {k}: {msg}" for k, r in enumerate(results) for msg in r.failures]
    for msg in all_failures:
        print("FAILED", msg, file=sys.stderr)
    failed = sum(bool(r.failures) for r in results)

    n = len(untraced)
    print(f"workload {args.workload} seed {args.seed}: {n} untraced ops in {n // w.cycle} cycles, closed loop, 1 caller")
    report(e2e, E2E_UNITS)
    print_medians(list(untraced.values()))
    print(f"{'failed_frac':34s} {failed / len(results):.6g} ratio  ({failed} of {len(results)})")

    if args.trace:
        verdict = "resolved" if overhead["resolved"] else "unresolved: the lower quartile is not above 0"
        print(f"traced run: {len(traced)} traced ops; tracing overhead, traced minus untraced, "
              f"median {overhead['median_s']:.6g} s per cycle, quartiles [{overhead['q1_s']:.6g}, "
              f"{overhead['q3_s']:.6g}] over {overhead['pairs']} ABBA pairs ({verdict}); "
              f"wrappers alone {per_layer['trace.wrapper_s']:.6g} s per cycle "
              f"({per_layer['trace.spans']:.6g} spans x {wrapper_call_s * 1e6:.3g} us)")
        report(per_layer, layers.UNITS)
        tracer.dump(
            OUT / f"trace-{args.workload}-seed{args.seed}.json",
            {
                "workload": args.workload,
                "seed": args.seed,
                "machine": mach,
                "end_to_end": e2e,
                "per_layer": per_layer,
                "tracing_overhead": {**overhead, "pair_diffs_s": diffs, "wrapper_call_s": wrapper_call_s},
            },
        )
        metrics, units = per_layer, layers.UNITS
    else:
        metrics, units = e2e, E2E_UNITS

    print(json.dumps({
        "correct": not all_failures,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
