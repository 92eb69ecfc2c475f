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
(see `tensor`).  A factor often recurs across terms (the lattice's n^3 - n
+ 1 terms have n^2 + n + 1 distinct factors per side), so each distinct
factor row is parsed and formatted once and indexed back into the stack.
Saving writes the bytes of json.dumps(doc, indent=1), the terms laid out
by joins.  Loading refuses with SchemaError any file outside the schema,
such as `terms` that is not a list, a format_version other than the JSON
integer 1 (not true or 1.0) or a JSON boolean entry in a float64 file.

Matrix files are plain text: first line "rows cols", then row-major
whitespace-separated decimals.  Both directions stream, a row or a line at
a time, and allocate nothing from the header before counting the values.
Each line after the header is parsed by numpy's text parser; a line it
refuses is parsed again token by token, so any token float() reads loads
and a malformed one is refused with float()'s message.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np

from .tensor import Decomposition, RefusedInput, is_exact

__all__ = ["SchemaError", "save_decomposition", "load_decomposition", "save_matrix", "load_matrix"]

FORMAT_VERSION = 1


class SchemaError(RefusedInput):
    """Raised when a file cannot be read or written, or breaks the documented schema."""


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SchemaError(f"{what} holds a non-finite value ({values.flat[bad[0]]}) at entry {bad[0]}")
    return values


def _dump_scalar(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _dump_stack(X: np.ndarray) -> tuple[list[list[str]], list[int]]:
    """The distinct factors of a stack as row-major lists of scalar strings,
    and each factor's index among them.  Float factors are told apart by
    their bytes (0.0 and -0.0 differ), and each distinct bit pattern in them
    is formatted once, by one %-operation."""
    flat = X.reshape(len(X), X.shape[1] * X.shape[2])
    if is_exact(X):
        keys = map(tuple, flat.tolist())
    else:
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel().tolist()
    distinct: dict = {}
    where = [distinct.setdefault(k, len(distinct)) for k in keys]
    if is_exact(X):
        return [[_dump_scalar(x) for x in row] for row in distinct], where
    rows = np.frombuffer(b"".join(distinct), dtype=np.int64).reshape(len(distinct), flat.shape[1])
    bits, inverse = np.unique(rows, return_inverse=True)
    values = bits.view(np.float64).tolist()
    strings = (" ".join(["%.17g"] * len(values)) % tuple(values)).split(" ")
    return np.array(strings, dtype=object)[inverse.reshape(rows.shape)].tolist(), where


def save_decomposition(dec: Decomposition, path) -> None:
    """Write json.dumps(doc, indent=1) byte for byte: the header fields through
    json, then the terms (the last field) laid out by joins, as the tokens of
    `_dump_stack` (digits, sign, ".", "e", "/", inf, nan) need no escaping;
    each distinct factor is joined once."""
    head = {
        "format_version": FORMAT_VERSION,
        "n": dec.n,
        "scheme": dec.scheme,
        "params": dec.params,
        "scalar_kind": "rational" if dec.exact else "float64",
    }
    side = '   "%s": [\n    "%s"\n   ]'
    sides = []
    for s, X in zip("abc", (dec.U, dec.V, dec.W)):
        rows, where = _dump_stack(X)
        texts = [side % (s, '",\n    "'.join(row)) for row in rows]
        sides.append([texts[i] for i in where])
    terms = ",\n".join("  {\n" + ",\n".join(t) + "\n  }" for t in zip(*sides))
    # reopen the header's closing "\n}" to append "terms" as its last field
    text = json.dumps(head, indent=1)[:-2] + ',\n "terms": ' + (f"[\n{terms}\n ]" if terms else "[]") + "\n}"
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise SchemaError(f"cannot write decomposition file: {e}") from e


def _load_stack(rows: list, n: int, kind: str) -> np.ndarray:
    """One side of the file's terms, each a row-major list of n*n scalar
    strings, as a (rank, n, n) stack of the file's scalar kind.  Each
    distinct row is converted once, in order of first appearance.  Its key,
    its strings joined by ",", is shared only by equal rows or by rows that
    hold a "," and are refused, so a refusal names the same entry as a
    conversion of every row.  A number joins to no key (0 == -0.0 would
    merge rows), so a side that holds one converts every row."""
    for row in rows:
        if len(row) != n * n:
            raise SchemaError(f"matrix has {len(row)} entries, expected {n * n}")
        if not isinstance(row, list):  # a JSON string or object has a length too
            raise TypeError(f"matrix must be a list, got {type(row).__name__}")
    distinct: dict = {}
    try:
        where = [distinct.setdefault(",".join(row), len(distinct)) for row in rows]
        rows = [rows[i] for i in np.unique(where, return_index=True)[1]]
    except TypeError:  # a non-string entry: a JSON 0.1 is not 1/10, nor a JSON true 1.0
        where = slice(None)
        rational = kind == "rational"
        if bad := [s for row in rows for s in row if isinstance(s, bool) or rational and not isinstance(s, str)]:
            wanted = "'p/q' strings" if rational else "decimal strings or numbers"
            raise SchemaError(f"{kind} entries must be {wanted}, got {bad[0]!r}")
    if kind == "rational":
        X = np.array([Fraction(s) for row in rows for s in row], dtype=object).reshape(len(rows), n * n)[where]
    else:
        X = _finite(np.array(rows, dtype=np.float64).reshape(len(rows), n * n)[where], "float64 matrix")
    return X.reshape(-1, n, n)


def load_decomposition(path) -> Decomposition:
    try:
        doc = json.loads(Path(path).read_text())
        if (version := doc["format_version"]) != FORMAT_VERSION or type(version) is not int:  # True == 1.0 == 1
            raise SchemaError(f"unsupported format_version {version}")
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
        if not isinstance(terms := doc["terms"], list):  # an object or a string iterates as keys or characters
            raise TypeError(f"terms must be a list, got {type(terms).__name__}")
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


def _parse_line(line: str) -> np.ndarray:
    """One line's values.  numpy refuses a line it cannot read to its end
    (an older numpy only warns, which load_matrix turns into an error); the
    line is then read token by token, as float() reads them."""
    try:
        return np.fromstring(line, sep=" ")
    except (ValueError, DeprecationWarning):
        return np.array(line.split(), dtype=np.float64)


def load_matrix(path) -> np.ndarray:
    """Read the matrix one line at a time: the header's two tokens may span
    lines, and each later line's values become one float64 array.  A
    whitespace-only line is skipped: numpy would read it as [-1.]."""
    try:
        with open(path) as f, warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            lines = (line.split() for line in f)
            for head in accumulate(lines, initial=[]):
                if len(head) >= 2:
                    break
            rows, cols = int(head[0]), int(head[1])
            chunks = [np.array(head[2:], dtype=np.float64)]
            chunks += [_parse_line(line) for line in f if not line.isspace()]
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
