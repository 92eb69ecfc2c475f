"""Stable file formats.

Decomposition files are JSON documents:

    {
      "format_version": 1,
      "n": 2,
      "scheme": "lattice",
      "params": {...},
      "scalar_kind": "rational" | "float64",
      "terms": [{"a": [...], "b": [...], "c": [...]}, ...]
    }

with each matrix stored row-major; rationals serialize as "p/q" strings and
floats as 17-significant-digit decimals, so both kinds round-trip losslessly.
The file keeps one record per term; in memory each side is one factor stack
(see `tensor`).  Loading parses a side of all terms at once: one float64
array conversion, or one list of Fractions for rational files.  Saving
writes the bytes of json.dumps(doc, indent=1), the terms laid out by joins.

Matrix files are plain text: first line "rows cols", then row-major
whitespace-separated decimals.  Both directions stream, a row or a line at
a time, and allocate nothing from the header before counting the values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np

from .tensor import Decomposition, is_exact

__all__ = ["SchemaError", "save_decomposition", "load_decomposition", "save_matrix", "load_matrix"]

FORMAT_VERSION = 1


class SchemaError(ValueError):
    """Raised when a file does not parse or violates the documented schema."""


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SchemaError(f"{what} holds a non-finite value ({values.flat[bad[0]]}) at entry {bad[0]}")
    return values


def _dump_scalar(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _dump_stack(X: np.ndarray) -> list[list[str]]:
    """Each factor of a stack as its row-major list of scalar strings; a
    float stack formats each distinct bit pattern once, by one %-operation
    over all of them, and indexes the strings back."""
    shape = (len(X), X.shape[1] * X.shape[2])
    if is_exact(X):
        return [[_dump_scalar(x) for x in row] for row in X.reshape(shape).tolist()]
    bits, where = np.unique(np.ascontiguousarray(X, dtype=np.float64).view(np.int64), return_inverse=True)
    values = bits.view(np.float64).tolist()
    strings = (" ".join(["%.17g"] * len(values)) % tuple(values)).split(" ")
    return np.array(strings, dtype=object)[where.reshape(shape)].tolist()


def save_decomposition(dec: Decomposition, path) -> None:
    """Write json.dumps(doc, indent=1) byte for byte: the header fields through
    json, then the terms (the last field) laid out by joins, as the tokens of
    `_dump_stack` (digits, sign, ".", "e", "/", inf, nan) need no escaping."""
    head = {
        "format_version": FORMAT_VERSION,
        "n": dec.n,
        "scheme": dec.scheme,
        "params": dec.params,
        "scalar_kind": "rational" if dec.exact else "float64",
    }
    side = '   "%s": [\n    "%s"\n   ]'
    terms = ",\n".join(
        "  {\n" + ",\n".join(side % (s, '",\n    "'.join(x)) for s, x in zip("abc", t)) + "\n  }"
        for t in zip(*(_dump_stack(X) for X in (dec.U, dec.V, dec.W)))
    )
    # reopen the header's closing "\n}" to append "terms" as its last field
    text = json.dumps(head, indent=1)[:-2] + ',\n "terms": ' + (f"[\n{terms}\n ]" if terms else "[]") + "\n}"
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise SchemaError(f"cannot write decomposition file: {e}") from e


def _load_stack(rows: list, n: int, kind: str) -> np.ndarray:
    """One side of the file's terms, each a row-major list of n*n scalar
    strings, as a (rank, n, n) stack of the file's scalar kind."""
    for row in rows:
        if len(row) != n * n:
            raise SchemaError(f"matrix has {len(row)} entries, expected {n * n}")
    if kind == "rational":
        if bad := [s for row in rows for s in row if not isinstance(s, str)]:  # a JSON 0.1 is not 1/10
            raise SchemaError(f"rational entries must be 'p/q' strings, got {bad[0]!r}")
        X = np.array([Fraction(s) for row in rows for s in row], dtype=object)
    else:
        X = _finite(np.array(rows, dtype=np.float64), "float64 matrix")
    return X.reshape(len(rows), n, n)


def load_decomposition(path) -> Decomposition:
    try:
        doc = json.loads(Path(path).read_text())
        if doc["format_version"] != FORMAT_VERSION:
            raise SchemaError(f"unsupported format_version {doc['format_version']}")
        n, kind = doc["n"], doc["scalar_kind"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise SchemaError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise SchemaError(f"n must be >= 1, got {n}")
        if kind not in ("rational", "float64"):
            raise SchemaError(f"scalar_kind must be 'rational' or 'float64', got {kind!r}")
        scheme, params = doc.get("scheme", "imported"), doc.get("params", {})
        if not isinstance(scheme, str):
            raise SchemaError(f"scheme must be a string, got {scheme!r}")
        if not isinstance(params, dict):
            raise SchemaError(f"params must be an object, got {params!r}")
        terms = doc["terms"]
        U, V, W = (_load_stack([t[s] for t in terms], n, kind) for s in "abc")
        return Decomposition(U, V, W, scheme, params)
    except SchemaError:
        raise
    # a JSON decode error is a ValueError, so the read failures come first
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise SchemaError(f"cannot read decomposition file: {e}") from e
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise SchemaError(f"malformed decomposition file: {e}") from e


def save_matrix(m: np.ndarray, path) -> None:
    """Write the matrix one row at a time."""
    rows, cols = m.shape
    row = " ".join(["%.17g"] * cols) + "\n"
    try:
        with open(path, "w") as f:
            f.write(f"{rows} {cols}\n")
            for r in m:
                f.write(row % tuple(np.asarray(r, dtype=np.float64).tolist()))
    except OSError as e:
        raise SchemaError(f"cannot write matrix file: {e}") from e


def load_matrix(path) -> np.ndarray:
    """Read the matrix one line at a time: the header's two tokens may span
    lines, and each line's values become one float64 array."""
    try:
        with open(path) as f:
            lines = (line.split() for line in f)
            for head in accumulate(lines, initial=[]):
                if len(head) >= 2:
                    break
            rows, cols = int(head[0]), int(head[1])
            chunks = [np.array(head[2:], dtype=np.float64)]
            chunks += [np.array(tokens, dtype=np.float64) for tokens in lines]
    except OSError as e:
        raise SchemaError(f"cannot read matrix file: {e}") from e
    except (IndexError, ValueError) as e:
        raise SchemaError(f"malformed matrix file: {e}") from e
    if rows < 0 or cols < 0:
        raise SchemaError(f"matrix file has negative dimensions {rows} x {cols}")
    values = np.concatenate(chunks)
    if len(values) != rows * cols:
        raise SchemaError(f"matrix file has {len(values)} values, expected {rows * cols}")
    return _finite(values, "matrix file").reshape(rows, cols)
