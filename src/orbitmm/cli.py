"""Command-line entry point.

Subcommands: gen, verify, analyze, multiply, bench.  Exit codes are stable:
0 = success / mathematically valid, 1 = mathematically invalid, 2 = usage
error, or an input, argument or file the package refuses (RefusedInput, of
which serialize's I/O and schema errors are one kind).  Any other exception
is a fault of the program and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import constraints, fourier2
from .bilinear import benchmark, format_bench_table, multiply_recursive
from .constructions import (
    OrbitSpec,
    lattice_decomposition,
    orbit_decomposition,
    orbit_spec_for,
    s4_family_spec,
    s5_fixture,
    strassen_theta_sixths_spec,
    strassen_theta_spec,
)
from .frames import fixture_frame, lift_permutation, simplex_frame
from .serialize import load_decomposition, load_matrix, save_decomposition, save_matrix
from .tensor import RefusedInput, tensor_of
from .verify import DEFAULT_TOL, invariants_report, verify_exact_gram, verify_float

SCHEMES = ("lattice", "orbit", "strassen-theta", "s4-family")
BUILTINS = ("strassen", "s4-first", "s4-second", "s5")
# (which, sign, theta) of the two named n=3 seeds
S4_BUILTINS = {"s4-first": ("u", -1, 0.0), "s4-second": ("v", -1, math.pi / 2)}
# multiply's and bench's default --cutoff: no recursion depth beat A @ B up to 4096^2
CROSSOVER = 4096


def _theta_from_args(args) -> float:
    if args.theta is not None and args.theta_sixths is not None:
        raise RefusedInput("pass --theta or --theta-sixths, not both")
    if args.theta_sixths is not None:
        return args.theta_sixths % 12 * math.pi / 6
    if args.theta is not None and not math.isfinite(args.theta):
        raise RefusedInput(f"--theta must be finite, got {args.theta}")
    return args.theta if args.theta is not None else 0.0


def _refuse_unread(args, reads_theta: bool, where: str):
    """Refuse --theta and --theta-sixths where no theta seed reads them."""
    if not reads_theta and (args.theta is not None or args.theta_sixths is not None):
        raise RefusedInput(f"--theta and --theta-sixths apply to the theta seeds only, not to {where}")


def _strassen_spec(args) -> OrbitSpec:
    """The theta seed that `gen --scheme strassen-theta` writes and `analyze
    strassen` reads: exact trig values for --theta-sixths alone."""
    if args.theta_sixths is not None and args.theta is None:
        return strassen_theta_sixths_spec(args.theta_sixths)
    return strassen_theta_spec(_theta_from_args(args))


def _gen(args) -> int:
    n, scheme = args.n, args.scheme
    _refuse_unread(args, scheme in ("strassen-theta", "s4-family"), f"--scheme {scheme}")
    if args.variant is not None and scheme != "s4-family":
        raise RefusedInput(f"--variant applies to s4-family only, not to --scheme {scheme}")
    if scheme == "lattice":
        dec = lattice_decomposition(simplex_frame(n))
    else:
        if scheme == "orbit":
            spec = orbit_spec_for(n)
        elif scheme == "strassen-theta":
            spec = _strassen_spec(args)
        else:
            which, signch = (args.variant or "u-minus").split("-")
            spec = s4_family_spec(which, 1 if signch == "plus" else -1, _theta_from_args(args))
        if spec.frame.n != n:  # each seed family has the n of its orbit-table frame
            raise RefusedInput(f"{scheme} requires n = {spec.frame.n}")
        dec = orbit_decomposition(spec)
    save_decomposition(dec, args.output)
    print(f"wrote {args.output}: n={dec.n} scheme={dec.scheme} rank={dec.rank} params={dec.params}")
    return 0


def _verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise RefusedInput(f"--tol must be finite and > 0, got {args.tol}")
    dec = load_decomposition(args.file)
    if args.mode == "exact-gram":  # refuse before any dense n^6 build
        if dec.scheme != "lattice":
            raise RefusedInput("exact-gram mode applies to lattice decompositions only")
        label = dec.params.get("frame", f"generic-{dec.n}")
        if not isinstance(label, str):
            raise RefusedInput(f"frame label {label!r} is not a string")
        frame = None if label == f"generic-{dec.n}" else fixture_frame(label)
        if frame is not None and frame.n != dec.n:
            raise RefusedInput(f"frame {label!r} has n={frame.n}, but the file has n={dec.n}")
    # unread in exact-gram mode, yet one of the 4 tensor_of calls perfbench/workloads.py pins there
    rep = verify_float(dec, tol=args.tol)
    inv = invariants_report(dec)
    if args.mode == "exact-gram":
        frame = frame or simplex_frame(dec.n)  # after verify_float has refused an oversized n
        residual = verify_exact_gram(frame)
        # tie the certificate to the file: its terms must match the frame's lattice
        dev = tensor_of(dec.to_float())
        dev -= tensor_of(lattice_decomposition(frame))
        file_dev = float(np.abs(dev, out=dev).max())
        valid = residual == 0 and file_dev < args.tol
        record = {"mode": "exact-gram", "residual": str(residual), "file_deviation": file_dev, "valid": valid}
        shown = "0 (exact)" if residual == 0 else residual
        lines = [
            f"exact |D - MM|^2 of the regenerated {frame.label} lattice: {shown}",
            f"file vs regenerated lattice deviation: {file_dev:.3e}",
        ]
    else:
        record = {"mode": "float", "residual": rep.max_residual, "valid": rep.valid}
        lines = rep.lines()
    if args.json:
        _print_json({**record, "invariants": _inv_record(inv)})
    else:
        print("\n".join([*lines, *inv.lines()]))
    return 0 if record["valid"] else 1


def _print_json(doc) -> None:
    """Print doc as strict JSON, which has no NaN or Infinity: one round
    trip through the parser writes each non-finite float as null."""
    print(json.dumps(json.loads(json.dumps(doc), parse_constant=lambda _: None), allow_nan=False))


def _inv_record(inv) -> dict:
    return {k: getattr(inv, k) for k in ("n", "rank", "operator_trace", "frobenius_sq", "inner_with_mm")}


def _print_fourier_table(dec):
    """The Fourier table of a float n=2 decomposition, without its round-off."""
    coeffs = fourier2.fourier_coefficients(tensor_of(dec.to_float()))
    print("Fourier coefficients (|c| >= 1e-9):")
    for key in sorted(coeffs):
        if abs(coeffs[key]) >= 1e-9:
            a, b, c = key
            print(f"  c({a:>5}, {b:>5}, {c:>5}) = {coeffs[key]}")


def _analyze(args) -> int:
    target = args.target
    _refuse_unread(args, target == "strassen", f"analyze {target}")
    if target not in BUILTINS:  # a decomposition file
        dec = load_decomposition(target)
        if dec.n == 2:
            _print_fourier_table(dec)
        for line in invariants_report(dec).lines():
            print(line)
        return 0
    if target == "s5":
        fx = s5_fixture()
        u, v, sigma = fx.u, fx.v, fx.sigma
    else:
        if target == "strassen":
            spec = _strassen_spec(args)
            _print_fourier_table(orbit_decomposition(spec))
            res = fourier2.strassen_equations(np.outer(spec.u, spec.v))
            print("constraint residuals:", ", ".join(f"{r:.3e}" for r in res))
        else:
            spec = s4_family_spec(*S4_BUILTINS[target])
            print("S4 constraint values (expect -1/4, 1/4, 1/32):", constraints.s4_constraints(spec.u, spec.v))
        u, v, sigma = spec.u, spec.v, lift_permutation(spec.frame, spec.sigma_perm)
    print("necessary conditions (<v,u>, <v,su>, <v,s2u>):", constraints.necessary_conditions(u, v, sigma))
    return 0


def _passes_precheck(dec) -> bool:
    """The pre-check of a decomposition that multiply or bench is to run:
    verify_float's verdict, with a warning on stderr when it is invalid."""
    rep = verify_float(dec)
    if not rep.valid:
        print(f"warning: decomposition residual {rep.max_residual:.3e} exceeds tolerance", file=sys.stderr)
    return rep.valid


def _multiply(args) -> int:
    dec = load_decomposition(args.file)
    if not _passes_precheck(dec):
        return 1
    A, B = load_matrix(args.a_file), load_matrix(args.b_file)
    save_matrix(multiply_recursive(dec, A, B, cutoff=args.cutoff).result, args.output)
    print(f"wrote {args.output}")
    return 0


def _bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise RefusedInput(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if min(sizes) < 2:  # the exponent estimate is log(count)/log(size)
        raise RefusedInput("--sizes entries must be >= 2")
    dec = load_decomposition(args.file)
    if dec.rank == 0:  # refused, as benchmark refuses it, before the pre-check calls it invalid
        raise RefusedInput("bench needs a decomposition of rank >= 1, got rank 0")
    if not _passes_precheck(dec):
        return 1
    rows = benchmark(dec, sizes, cutoff=args.cutoff)
    if args.json:
        _print_json([dataclasses.asdict(r) for r in rows])
    else:
        print(format_bench_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orbitmm",
        description="Construct, verify, analyze, and execute symmetric rank "
        "decompositions of the matrix multiplication tensor.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a decomposition file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--scheme", choices=SCHEMES, required=True)
    g.add_argument("--theta", type=float, default=None)
    g.add_argument("--theta-sixths", type=int, default=None, help="theta as k*pi/6")
    g.add_argument(
        "--variant",
        choices=("u-minus", "u-plus", "v-minus", "v-plus"),
        help="s4-family variant: which of u/v carries the w4 component, and the sign (default u-minus)",
    )
    g.add_argument("--output", "-o", required=True)
    g.set_defaults(func=_gen)

    v = sub.add_parser("verify", help="verify a decomposition file")
    v.add_argument("file")
    v.add_argument("--mode", choices=("float", "exact-gram"), default="float")
    v.add_argument("--tol", type=float, default=DEFAULT_TOL)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_verify)

    a = sub.add_parser("analyze", help="constraint/Fourier analysis of a builtin or file")
    a.add_argument("target", help=f"decomposition file or one of {BUILTINS}")
    a.add_argument("--theta", type=float, default=None)
    a.add_argument("--theta-sixths", type=int, default=None)
    a.set_defaults(func=_analyze)

    m = sub.add_parser("multiply", help="multiply two matrices via a decomposition")
    m.add_argument("file")
    m.add_argument("a_file")
    m.add_argument("b_file")
    m.add_argument("--cutoff", type=int, default=CROSSOVER)
    m.add_argument("--output", "-o", required=True)
    m.set_defaults(func=_multiply)

    b = sub.add_parser("bench", help="benchmark recursive multiplication")
    b.add_argument("file")
    b.add_argument("--sizes", required=True, help="comma-separated sizes")
    b.add_argument("--cutoff", type=int, default=CROSSOVER)
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_bench)
    return p


_parser = functools.cache(build_parser)  # one parser per process, built by the first main()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except RefusedInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
