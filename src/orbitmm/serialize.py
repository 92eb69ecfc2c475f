"""Stable file formats.

Decomposition files are JSON documents:

    {
      "format_version": 2,
      "n": 2,
      "scheme": "lattice",
      "params": {...},
      "scalar_kind": "rational" | "float64",
      "rows": {"a": [[...], ...], "b": [[...], ...], "c": [[...], ...]},
      "terms": [[ia, ib, ic], ...]
    }

Each side's distinct factors are stored once under "rows", each matrix
row-major, and term t is a[ia] (x) b[ib] (x) c[ic] for its index triple:
the lattice's n^3 - n + 1 terms have n^2 + n + 1 distinct factors per side.
Rationals serialize as "p/q" strings and floats as 17-significant-digit
decimals, so both kinds round-trip losslessly.  Saving keys the rows by
`tensor._row_groups` (float rows by their bytes: 0.0 and -0.0 differ),
formats each distinct float once and writes the bytes of
json.dumps(doc, indent=1), except that each row and each triple stands on
one line as json.dumps(row) writes it.  Loading converts each given row
once and gathers the (rank, n, n) stacks by the triples.  Version 1 files,
one {"a": [...], "b": [...], "c": [...]} record per term under "terms", are
still read: their rows are the records and their index the identity.
Loading refuses with SchemaError any file outside the schema, such as
`terms` that is not a list, a format_version other than the JSON integer 1
or 2 (not true or 2.0), an index that is not a JSON integer naming one of
its side's rows, or a JSON boolean entry in a float64 file.

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
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .tensor import Decomposition, RefusedInput, _row_groups, is_exact

__all__ = ["SchemaError", "save_decomposition", "load_decomposition", "save_matrix", "load_matrix"]

FORMAT_VERSION = 2


class SchemaError(RefusedInput):
    """Raised when a file cannot be read or written, or breaks the documented schema."""


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SchemaError(f"{what} holds a non-finite value ({values.flat[bad[0]]}) at entry {bad[0]}")
    return values


def _dump_stack(X: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct factors of a stack, each as one line of JSON, and each
    factor's index among them.  Each distinct float bit pattern in them is
    formatted once, by one %-operation."""
    flat = X.reshape(len(X), X.shape[1] * X.shape[2])
    where, first = _row_groups(flat)
    if is_exact(X):
        rows = [[f"{f.numerator}/{f.denominator}" for f in map(Fraction, row)] for row in flat[first].tolist()]
    else:
        rows = np.asarray(flat[first], dtype=np.float64)
        bits, inverse = np.unique(rows.view(np.int64), return_inverse=True)
        values = bits.view(np.float64).tolist()
        strings = (" ".join(["%.17g"] * len(values)) % tuple(values)).split(" ")
        rows = np.array(strings, dtype=object)[inverse.reshape(rows.shape)].tolist()
    return ['["' + '", "'.join(row) + '"]' for row in rows], where


def _array(lines: list[str], depth: int) -> str:
    """One-line items as json.dumps(indent=1) lays out an array at this depth."""
    pad = "\n" + " " * depth
    return f"[{pad} " + f",{pad} ".join(lines) + f"{pad}]" if lines else "[]"


def save_decomposition(dec: Decomposition, path) -> None:
    """Write the header fields through json.dumps(indent=1), then "rows" and
    "terms" (the last fields) by joins, as the tokens of `_dump_stack`
    (digits, sign, ".", "e", "/", inf, nan) need no escaping."""
    kind = "rational" if dec.exact else "float64"
    head = {"format_version": FORMAT_VERSION, "n": dec.n, "scheme": dec.scheme, "params": dec.params, "scalar_kind": kind}
    sides = [_dump_stack(X) for X in (dec.U, dec.V, dec.W)]
    rows = ",\n".join(f'  "{s}": {_array(lines, 2)}' for s, (lines, _) in zip("abc", sides))
    terms = _array([str(t) for t in np.column_stack([where for _, where in sides]).tolist()], 1)
    # reopen the header's closing "\n}" to append "rows" and "terms" as its last fields
    text = json.dumps(head, indent=1)[:-2] + f',\n "rows": {{\n{rows}\n }},\n "terms": {terms}\n}}'
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise SchemaError(f"cannot write decomposition file: {e}") from e


def _load_stack(rows: list, index: np.ndarray, n: int, kind: str) -> np.ndarray:
    """One side's rows, each a row-major list of n*n scalars converted once,
    gathered by `index` into a stack; a refusal names the first bad entry."""
    if not isinstance(rows, list):  # an object or a string iterates as keys or characters
        raise TypeError(f"rows must be a list, got {type(rows).__name__}")
    for row in rows:
        if len(row) != n * n:
            raise SchemaError(f"matrix has {len(row)} entries, expected {n * n}")
        if not isinstance(row, list):  # a JSON string or object has a length too
            raise TypeError(f"matrix must be a list, got {type(row).__name__}")
    if len(bad := index[(index < 0) | (index >= len(rows))]):  # numpy would wrap a negative index
        raise SchemaError(f"row index {bad[0]} is outside the side's {len(rows)} rows")
    entries, rational = [*chain.from_iterable(rows)], kind == "rational"
    if bool in (types := set(map(type, entries))) or rational and types - {str}:  # a JSON 0.1 is not 1/10, nor true 1.0
        bad = next(s for s in entries if type(s) is bool or rational and type(s) is not str)
        wanted = "'p/q' strings" if rational else "decimal strings or numbers"
        raise SchemaError(f"{kind} entries must be {wanted}, got {bad!r}")
    if rational:
        X = np.array([Fraction(s) for s in entries], dtype=object)
    else:
        X = _finite(np.array(entries, dtype=np.float64), "float64 matrix")
    return X.reshape(len(rows), n, n)[index]


def load_decomposition(path) -> Decomposition:
    try:
        doc = json.loads(Path(path).read_text())
        if (version := doc["format_version"]) not in (1, 2) or type(version) is not int:  # True == 1.0 == 1
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
        if version == 1:  # one record per term: the records are the rows, in term order
            rows, index = {s: [t[s] for t in terms] for s in "abc"}, [np.arange(len(terms))] * 3
        else:
            for t in terms:  # true == 1 and 1.0 == 1 would index as 1
                if type(t) is not list or len(t) != 3 or not all(type(i) is int for i in t):
                    raise SchemaError(f"a term must be a list of 3 integer row indices, got {t!r}")
            rows, index = doc["rows"], np.array(terms, dtype=np.int64).reshape(len(terms), 3).T
        U, V, W = (_load_stack(rows[s], i, n, kind) for s, i in zip("abc", index))
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
