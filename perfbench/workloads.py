"""The benchmark's workloads.

Each workload has a set-up (`build`, `make_inputs`), an untimed
`prepare_checks` that returns run-level failures, and `op(k)` which runs op
number k of its cycle and returns an `OpResult`.  Every op checks its own
output; the checks use numpy and the standard library only, never the
package under test, so traced runs do not count them as package time.

Workloads call the package through module attributes (`orbitmm.cli.main`,
`orbitmm.multiply_recursive`) so that the tracer's patched names are used.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import orbitmm
import orbitmm.cli

import counts

# The acceptance suite's bound on max|C - AB| / max|AB|.
REL_ERR_TOL = 1e-6


@dataclass
class OpResult:
    seconds: float  # CPU seconds of this process
    flops: float  # 2 * size^3 of the product the op computes, unpadded
    failures: list = field(default_factory=list)
    wall_s: float = 0.0
    # CPU seconds of each step, in order: one `multiply_recursive` call, or
    # one CLI command; they sum to `seconds`
    steps: list = field(default_factory=list)


def rel_err(C: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(C - ref).max() / np.abs(ref).max())


def check_counts(dec, sizes, cutoff, predicted) -> list[str]:
    """Compare the counts computed from the public terms with the predicted
    values this benchmark was written against.  nnz and coef_tiny move with
    the decomposition's terms; useful_frac depends on the sizes alone, so
    its check guards the benchmark's padding model, not the package."""
    nnz = counts.nnz(dec)
    plans = [counts.plan(dec.n, dec.rank, nnz, s, cutoff) for s in sizes]
    got = {"nnz": nnz, "coef_tiny": counts.coef_tiny(dec), "useful_frac": round(counts.useful_frac(plans), 3)}
    return [f"{key} = {got[key]}, predicted {want}" for key, want in predicted.items() if got[key] != want]


class MulWorkload:
    """Closed-loop `multiply_recursive` on square inputs, cycling through
    `sizes`; one op is one product."""

    def __init__(self, name, build, sizes, cutoff, predicted):
        self.name = name
        self._build = build
        self.sizes = tuple(sizes)
        self.cutoff = cutoff
        self.predicted = predicted
        self.cycle = len(self.sizes)
        self.tensor_of_calls = {}

    def build(self) -> None:
        self.dec = self._build()

    def make_inputs(self, rng) -> None:
        self.inputs = [(rng.standard_normal((s, s)), rng.standard_normal((s, s))) for s in self.sizes]

    def prepare_checks(self) -> list[str]:
        self.refs = [A @ B for A, B in self.inputs]
        d = self.dec
        nnz = counts.nnz(d)
        self.expect = [
            (orbitmm.predicted_mult_count(d.n, d.rank, s, self.cutoff), counts.plan(d.n, d.rank, nnz, s, self.cutoff)["depth"])
            for s in self.sizes
        ]
        return check_counts(d, self.sizes, self.cutoff, self.predicted)

    def op(self, k: int, span=None, check: bool = True) -> OpResult:
        i = k % self.cycle
        A, B = self.inputs[i]
        w0, t0 = perf_counter(), process_time()
        rep = orbitmm.multiply_recursive(self.dec, A, B, cutoff=self.cutoff)
        dt = process_time() - t0
        res = OpResult(dt, 2.0 * self.sizes[i] ** 3, wall_s=perf_counter() - w0, steps=[dt])
        if check:
            err = rel_err(rep.result, self.refs[i])
            mults, depth = self.expect[i]
            if not err < REL_ERR_TOL:
                res.failures.append(f"size {self.sizes[i]}: relative error {err:.3e}")
            if rep.scalar_multiplications != mults:
                res.failures.append(f"size {self.sizes[i]}: {rep.scalar_multiplications} mults, predicted {mults}")
            if rep.recursion_depth != depth:
                res.failures.append(f"size {self.sizes[i]}: depth {rep.recursion_depth}, predicted {depth}")
        return res


# Executor nonzeros include the round-off coefficients: the n=2 orbit has 18
# per side without them, the n=3 lattice on simplex_frame(3) 115.
N2_ORBIT = {"nnz": (22, 26, 26), "coef_tiny": (4, 8, 8), "useful_frac": 1.0}
N3_LATTICE = {"nnz": (127, 127, 127), "coef_tiny": (12, 12, 12), "useful_frac": 0.46}


class CliWorkload:
    """One op is one certification cycle through `orbitmm.cli.main`."""

    name = "cli-certify"
    cycle = 1
    size = 256
    cutoff = 16  # the `multiply` subcommand's default
    lattice_n = 7
    theta = math.pi / 12  # not a multiple of pi/6, so the file must be rejected
    predicted = N2_ORBIT
    # tensor_of calls made by one `verify` in float and in exact-gram mode
    tensor_of_calls = {"cli.verify": 2, "cli.verify_exact": 4}

    def __init__(self, tmp: Path):
        self.tmp = Path(tmp)

    def path(self, name: str) -> str:
        return str(self.tmp / name)

    def build(self) -> None:
        """Nothing to build: each op builds its decompositions through `gen`."""

    def make_inputs(self, rng) -> None:
        self.A = rng.standard_normal((self.size, self.size))
        self.B = rng.standard_normal((self.size, self.size))
        orbitmm.save_matrix(self.A, self.path("A.txt"))
        orbitmm.save_matrix(self.B, self.path("B.txt"))

    def prepare_checks(self) -> list[str]:
        self.ref = self.A @ self.B
        dec = orbitmm.load_decomposition(self.path("orbit2.json"))
        return check_counts(dec, (self.size,), self.cutoff, self.predicted)

    def op(self, k: int, span=None, check: bool = True) -> OpResult:
        span = span or (lambda name: contextlib.nullcontext())
        p = self.path
        res = OpResult(0.0, 2.0 * self.size**3)

        def call(label, argv, want_rc, writes=None):
            """Run one CLI command; `writes` is the file it must create,
            deleted first so that no earlier cycle's file can pass a check."""
            if writes:
                Path(writes).unlink(missing_ok=True)
            out = io.StringIO()
            w0, t0 = perf_counter(), process_time()
            with span(label), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = orbitmm.cli.main(argv)
            dt = process_time() - t0
            res.seconds += dt
            res.steps.append(dt)
            res.wall_s += perf_counter() - w0
            if rc != want_rc:
                res.failures.append(f"{' '.join(argv[:2])}: exit {rc}, expected {want_rc}")
            if writes and not Path(writes).is_file():
                res.failures.append(f"{' '.join(argv[:2])}: did not write {Path(writes).name}")
            return out.getvalue()

        lat, theta, orbit = p("lattice.json"), p("theta.json"), p("orbit2.json")
        n = self.lattice_n
        out = call("cli.gen", ["gen", "--n", str(n), "--scheme", "lattice", "-o", lat], 0, lat)
        if check and f"rank={n**3 - n + 1}" not in out:
            res.failures.append(f"gen lattice: unexpected output {out.strip()!r}")
        out = call("cli.verify", ["verify", lat, "--json"], 0)
        if check and not _json_field(out, "valid") is True:
            res.failures.append("verify: lattice not reported valid")
        out = call("cli.verify_exact", ["verify", lat, "--mode", "exact-gram", "--json"], 0)
        if check and not (_json_field(out, "residual") == "0" and _json_field(out, "valid") is True):
            res.failures.append("verify exact-gram: residual is not exactly 0")
        call("cli.gen", ["gen", "--n", "2", "--scheme", "strassen-theta", "--theta", repr(self.theta), "-o", theta], 0, theta)
        call("cli.verify", ["verify", theta], 1)
        call("cli.gen", ["gen", "--n", "2", "--scheme", "orbit", "-o", orbit], 0, orbit)
        out = call("cli.analyze", ["analyze", orbit], 0)
        if check and "operator trace" not in out:
            res.failures.append("analyze: no invariants printed")
        C_path = p("C.txt")
        call("cli.multiply", ["multiply", orbit, p("A.txt"), p("B.txt"), "-o", C_path], 0, C_path)
        if check and Path(C_path).is_file():
            C = np.loadtxt(C_path, skiprows=1).reshape(self.size, self.size)
            err = rel_err(C, self.ref)
            if not err < REL_ERR_TOL:
                res.failures.append(f"multiply: relative error {err:.3e}")
        return res


def _json_field(text: str, key: str):
    try:
        return json.loads(text).get(key)
    except (json.JSONDecodeError, AttributeError):
        return None


def make(name: str, tmp: Path):
    if name == "mul-strassen":
        # Strassen's rank-7 orbit at 2048^2, cutoff 256: depth 3, 343 leaves,
        # no padding; block additions dominate.
        return MulWorkload(
            name,
            lambda: orbitmm.orbit_decomposition(orbitmm.orbit_spec_for(2)),
            (2048,),
            256,
            N2_ORBIT,
        )
    if name == "mul-lattice3-ragged":
        # rank-25 lattice on simplex_frame(3); 243 is a power of 3, the
        # other sizes pad up to 729.
        return MulWorkload(
            name,
            lambda: orbitmm.lattice_decomposition(orbitmm.simplex_frame(3)),
            (243, 244, 500, 729),
            27,
            N3_LATTICE,
        )
    if name == "cli-certify":
        return CliWorkload(tmp)
    raise ValueError(f"unknown workload {name!r}")
