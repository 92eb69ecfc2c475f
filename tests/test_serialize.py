import functools
import json
import math
import operator
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from orbitmm.constructions import (
    lattice_decomposition,
    orbit_decomposition,
    orbit_spec_for,
    s4_family_spec,
    strassen_theta,
    strassen_theta_sixths,
)
from orbitmm.cli import main
from orbitmm.frames import simplex_frame
from orbitmm.tensor import Decomposition
from orbitmm.serialize import (
    SchemaError,
    load_decomposition,
    load_matrix,
    save_decomposition,
    save_matrix,
)

from conftest import set_term_entry, write_records


def test_roundtrip_exact(tmp_path):
    dec = lattice_decomposition(simplex_frame(2))
    path = tmp_path / "lat.json"
    save_decomposition(dec, path)
    back = load_decomposition(path)
    assert back.n == dec.n and back.rank == dec.rank and back.scheme == dec.scheme
    for t1, t2 in zip(dec.terms, back.terms):
        assert np.abs(t1.a - t2.a).max() == 0
        assert np.abs(t1.b - t2.b).max() == 0
        assert np.abs(t1.c - t2.c).max() == 0


def test_roundtrip_float_lossless(tmp_path):
    dec = strassen_theta(math.pi / 12)
    path = tmp_path / "s.json"
    save_decomposition(dec, path)
    back = load_decomposition(path)
    for t1, t2 in zip(dec.terms, back.terms):
        assert np.array_equal(t1.a, t2.a)  # bit-identical via .17g
        assert np.array_equal(t1.b, t2.b)
        assert np.array_equal(t1.c, t2.c)


def _rational_dec():
    q = Fraction
    U = np.array([[[q(1), q(-1, 3)], [q(0), q(5, 7)]], [[q(2), q(0)], [q(-9, 4), q(1)]]], dtype=object)
    return Decomposition(U, U[::-1].copy(), -U, scheme="exact-test", params={"k": 1})


def test_roundtrip_rational(tmp_path):
    dec = _rational_dec()
    path = tmp_path / "q.json"
    save_decomposition(dec, path)
    doc = json.loads(path.read_text())
    assert doc["scalar_kind"] == "rational" and doc["rows"]["a"][doc["terms"][0][0]] == ["1/1", "-1/3", "0/1", "5/7"]
    back = load_decomposition(path)
    assert back.exact and (back.scheme, back.params) == ("exact-test", {"k": 1})
    for X, Y in zip((dec.U, dec.V, dec.W), (back.U, back.V, back.W)):
        assert X.shape == Y.shape and np.array_equal(X, Y)
        assert all(isinstance(x, Fraction) for x in Y.flat)


def test_roundtrip_preserves_term_order(tmp_path):
    dec = lattice_decomposition(simplex_frame(3))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_decomposition(dec, p1)
    save_decomposition(load_decomposition(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_file_shape(tmp_path):
    path = tmp_path / "d.json"
    save_decomposition(lattice_decomposition(simplex_frame(2)), path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    assert doc["n"] == 2
    assert doc["scheme"] == "lattice"
    assert len(doc["terms"]) == 7
    assert set(doc["rows"]) == {"a", "b", "c"}
    assert all(len(t) == 3 and all(type(i) is int for i in t) for t in doc["terms"])
    # the n = 3 lattice's 25 terms share 13 distinct factors per side
    save_decomposition(lattice_decomposition(simplex_frame(3)), path)
    doc = json.loads(path.read_text())
    assert len(doc["terms"]) == 25 and [len(doc["rows"][s]) for s in "abc"] == [13, 13, 13]


def test_rational_scalars_survive(tmp_path):
    path = tmp_path / "d.json"
    save_decomposition(lattice_decomposition(simplex_frame(2)), path)
    doc = json.loads(path.read_text())
    if doc["scalar_kind"] == "rational":
        flat = doc["rows"]["a"][0]
        assert all(isinstance(s, str) for s in flat)
        Fraction(flat[0])  # parses


def _term_rows(doc):
    """Each side's factor rows in term order, read from a document."""
    return {s: [doc["rows"][s][t[k]] for t in doc["terms"]] for k, s in enumerate("abc")}


def _per_entry_text(X):
    """Each factor of a stack as its list of entry strings, formatted one
    entry at a time: the reference for the saved file."""
    if X.dtype == object:
        return [[f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in f.flat] for f in X]
    return [[format(float(x), ".17g") for x in f.flat] for f in X]


def test_dump_stack_matches_per_entry_format(tmp_path, nprng):
    # float factors are pinned to one format(float(x), ".17g") per entry; the
    # repeats, one of them differing from factor 0 only in the sign of a zero,
    # exercise the writer's distinct-factor key
    special = [0.0, -0.0, 5e-324, 1e300, -1e-300, 1 / 3, 1e16, -5e-324, 2.0**53 + 2]
    X = np.concatenate([special, nprng.standard_normal(27) * 10.0 ** nprng.integers(-300, 300, 27)]).reshape(4, 3, 3)
    flipped = X[:1].copy()
    flipped.flat[:2] = [-0.0, 0.0]
    X = np.concatenate([X[[0, 1, 0, 2, 3, 1]], flipped, X[:1]])
    Q = np.array([Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 7)], dtype=object).reshape(1, 2, 2)
    Q = np.concatenate([Q, -Q, Q, np.full((1, 2, 2), 1, dtype=object)])
    for Y in (X, Q):
        path = tmp_path / "d.json"
        save_decomposition(Decomposition(Y, Y[::-1].copy(), -Y), path)
        terms = _term_rows(json.loads(path.read_text()))
        for s, Z in zip("abc", (Y, Y[::-1], -Y)):
            assert terms[s] == _per_entry_text(Z)
    assert terms["a"][0] == ["1/3", "-2/1", "0/1", "5/7"] and terms["a"][3] == ["1/1"] * 4
    save_decomposition(Decomposition(X, X, X), path)
    doc = json.loads(path.read_text())
    terms = _term_rows(doc)
    assert terms["a"][0][:2] == ["0", "-0"] and terms["a"][6][:2] == ["-0", "0"]
    # each distinct factor is stored once; the flipped zeros make a factor of its own
    assert [t[0] for t in doc["terms"]] == [0, 1, 0, 2, 3, 1, 4, 0] and len(doc["rows"]["a"]) == 5


@pytest.mark.parametrize("name", ["lattice-7", "all-distinct"])
def test_saved_floats_match_per_entry_format(tmp_path, nprng, name):
    # each distinct float is formatted once and indexed back: the n=7
    # lattice repeats a few hundred values, a random stack repeats none
    if name == "lattice-7":
        dec = lattice_decomposition(simplex_frame(7))
    else:
        dec = Decomposition(*nprng.standard_normal((3, 337, 7, 7)))
    path = tmp_path / "d.json"
    save_decomposition(dec, path)
    terms = _term_rows(json.loads(path.read_text()))
    for s, X in zip("abc", (dec.U, dec.V, dec.W)):
        assert terms[s] == [[format(float(x), ".17g") for x in f.flat] for f in X]


def _json_doc(dec):
    """The document a decomposition file holds: each side's distinct factors,
    told apart by their float64 bytes or their Fraction values, in order of
    first appearance, and each term's index triple."""
    rows, index = {}, []
    for s, X in zip("abc", (dec.U, dec.V, dec.W)):
        keys = [tuple(f.flat) if dec.exact else f.astype(np.float64).tobytes() for f in X]
        distinct = {}
        for key, text in zip(keys, _per_entry_text(X)):
            distinct.setdefault(key, (len(distinct), text))
        rows[s] = [text for _, text in distinct.values()]
        index.append([distinct[key][0] for key in keys])
    return {
        "format_version": 2,
        "n": dec.n,
        "scheme": dec.scheme,
        "params": dec.params,
        "scalar_kind": "rational" if dec.exact else "float64",
        "rows": rows,
        "terms": [list(t) for t in zip(*index)],
    }


def _json_text(doc):
    """The documented layout of a format_version 2 file: json.dumps(doc,
    indent=1), except that each row and each index triple stands on one line
    as json.dumps writes it."""
    lines = []

    def one_line(x):
        lines.append(json.dumps(x))
        return f"\0{len(lines) - 1}"

    rows = {s: [one_line(row) for row in side] for s, side in doc["rows"].items()}
    text = json.dumps({**doc, "rows": rows, "terms": [one_line(t) for t in doc["terms"]]}, indent=1)
    return re.sub(r'"\\u0000(\d+)"', lambda m: lines[int(m[1])], text)


def _assert_same_stacks(dec, back):
    """Stacks equal bit for bit (an int64 view, so -0.0 and 0.0 differ), or,
    for Fraction stacks, in value and type."""
    for X, Y in zip((dec.U, dec.V, dec.W), (back.U, back.V, back.W)):
        assert X.shape == Y.shape and X.dtype == Y.dtype
        if X.dtype == object:
            assert X.tolist() == Y.tolist() and all(type(y) is Fraction for y in Y.flat)
        else:
            assert np.array_equal(X.view(np.int64), Y.view(np.int64))


WRITER_CASES = {
    **{f"lattice-{n}": (lambda n=n: lattice_decomposition(simplex_frame(n))) for n in range(1, 6)},
    **{f"orbit-{n}": (lambda n=n: orbit_decomposition(orbit_spec_for(n))) for n in (2, 3, 4)},
    "strassen-theta-0.3": lambda: strassen_theta(0.3),
    "strassen-theta-sixths": lambda: strassen_theta_sixths(1),
    "s4-family": lambda: orbit_decomposition(s4_family_spec("u", 1, 0.4)),
    "rational": _rational_dec,
    "rank-0": lambda: Decomposition(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), scheme="empty"),
    "non-finite": lambda: Decomposition(
        np.array([[[np.inf, -np.inf], [np.nan, -0.0]]]), np.ones((1, 2, 2)), np.ones((1, 2, 2)), scheme="nf"
    ),
    "odd-header": lambda: Decomposition(
        np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.ones((1, 1, 1)),
        scheme='we"ird \u00fc', params={"list": [1, [2]], "nested": {"x": "y"}, "empty": {}},
    ),
}


@pytest.mark.parametrize("name", WRITER_CASES)
def test_save_decomposition_bytes_equal_json_dumps(tmp_path, name):
    # the saved bytes are the documented layout of the reference document,
    # and the file loads to the saved stacks bit for bit
    dec = WRITER_CASES[name]()
    path = tmp_path / "d.json"
    save_decomposition(dec, path)
    assert path.read_text() == _json_text(_json_doc(dec))
    if name == "rank-0":
        assert '"terms": []' in path.read_text() and '"a": []' in path.read_text()
    if name == "non-finite":
        with pytest.raises(SchemaError, match=r"non-finite value \(inf\) at entry 0$"):
            load_decomposition(path)
        return
    _assert_same_stacks(dec, load_decomposition(path))


def _per_entry_stacks(path):
    """The file's three stacks converted one entry at a time, term by term:
    the reference for the loader, which converts each given row once."""
    doc = json.loads(path.read_text())
    n = doc["n"]
    for rows in _term_rows(doc).values():
        if doc["scalar_kind"] == "rational":
            yield np.array([Fraction(x) for row in rows for x in row], dtype=object).reshape(len(rows), n, n)
        else:
            yield np.array(rows, dtype=np.float64).reshape(len(rows), n, n)


def _assert_per_entry_load(path):
    dec = load_decomposition(path)
    _assert_same_stacks(Decomposition(*_per_entry_stacks(path)), dec)
    return dec


GEN_ARGS = {
    **{f"lattice-{n}": ["--n", str(n), "--scheme", "lattice"] for n in range(1, 8)},
    **{f"orbit-{n}": ["--n", str(n), "--scheme", "orbit"] for n in (2, 3, 4)},
    **{f"theta-sixths-{k}": ["--n", "2", "--scheme", "strassen-theta", "--theta-sixths", str(k)] for k in range(12)},
    "theta-0.3": ["--n", "2", "--scheme", "strassen-theta", "--theta", "0.3"],
    **{f"s4-{v}": ["--n", "3", "--scheme", "s4-family", "--variant", v] for v in ("u-minus", "u-plus", "v-minus", "v-plus")},
}

def _repeated(dec, terms):
    return Decomposition(dec.U[terms], dec.V[terms], dec.W[terms], dec.scheme, dec.params)


SAVED_STACKS = {
    "all-distinct-7": lambda: Decomposition(*np.random.default_rng(7).standard_normal((3, 337, 7, 7))),
    "rational-repeats": lambda: _repeated(_rational_dec(), [0, 1, 1, 0, 1]),
    "rank-0": lambda: Decomposition(*np.zeros((3, 0, 3, 3))),
    "rank-0-rational": lambda: Decomposition(*np.zeros((3, 0, 3, 3), dtype=object)),
}


@pytest.mark.parametrize("name", [*GEN_ARGS, *SAVED_STACKS])
def test_load_matches_per_entry_and_save_of_load_is_identity(tmp_path, name):
    # every file gen writes, and stacks with no repeated factor, repeated
    # rational factors and no factor at all
    path, again = tmp_path / "d.json", tmp_path / "again.json"
    if name in GEN_ARGS:
        assert main(["gen", *GEN_ARGS[name], "-o", str(path)]) == 0
    else:
        save_decomposition(SAVED_STACKS[name](), path)
    dec = _assert_per_entry_load(path)
    save_decomposition(dec, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "zeros",
    [[0.0, -0.0, 0, 0, -0.0, "-0", "0", "-0.0", 0.0], ["0", "-0", "0", "0.0", "-0", "-0", "0", "-0.0", "0"]],
)
def test_loader_keeps_the_sign_of_zero_literals(tmp_path, zeros):
    # as keys 0.0 == -0.0 == 0, so no two rows may share a conversion by
    # value: each term's own row is converted
    rows = [[z, "1.5", "2", "3"] for z in zeros]
    path = tmp_path / "z.json"
    write_records(path, "float64", 2, [(r, rows[-1 - i], r) for i, r in enumerate(rows)])
    dec = _assert_per_entry_load(path)
    assert np.signbit(dec.U[:, 0, 0]).tolist() == [False, True, False, False, True, True, False, True, False]


@pytest.mark.parametrize(
    "kind, message", [("float64", "could not convert string to float: {!r}"), ("rational", "Invalid literal for Fraction: {!r}")]
)
@pytest.mark.parametrize("first, second", [(["1", "2,3", "4", "5"], ["1,2", "3", "4", "5"]), (["1,2", "3", "4", "5"], ["1", "2,3", "4", "5"])])
def test_rows_of_one_key_are_refused_at_the_first(tmp_path, kind, message, first, second):
    # two bad rows that differ only in where their "," stands: the refusal
    # names the first in file order
    good = ["1", "2", "3", "4"]
    path = tmp_path / "bad.json"
    write_records(path, kind, 2, [(good, good, good), (good, first, good), (good, second, good), (good, first, good)])
    bad = next(x for x in first if "," in x)
    with pytest.raises(SchemaError, match=f"malformed decomposition file: {re.escape(message.format(bad))}$"):
        load_decomposition(path)


@pytest.mark.parametrize("kind", ["float64", "rational"])
@pytest.mark.parametrize("side", ["1001", {"1": 0, "0": 0, "00": 0, "01": 0}])
def test_side_that_is_not_a_list_rejected(tmp_path, kind, side):
    # a string or object of n*n entries has the length of a factor; a
    # rational file once read "1001" as its four characters
    q = ["1", "0", "0", "1"]
    path = tmp_path / "bad.json"
    write_records(path, kind, 2, [(q, q, q), (q, side, q)])
    with pytest.raises(SchemaError, match=f"malformed decomposition file: matrix must be a list, got {type(side).__name__}"):
        load_decomposition(path)


@pytest.mark.parametrize("entry", ["inf", "-inf", "nan", math.inf, math.nan, None])
def test_non_finite_refusal_names_the_file_entry(tmp_path, entry):
    # the bad factor repeats and is not the first: the message names its
    # first entry in file order
    good, bad = ["1", "2", "3", "4"], ["1", "2", entry, "4"]
    path = tmp_path / "bad.json"
    write_records(path, "float64", 2, [(good, good, good)] * 2 + [(good, bad, good), (good, good, good), (good, bad, good)])
    value = np.array(entry, dtype=np.float64)
    with pytest.raises(SchemaError, match=rf"non-finite value \({value}\) at entry 10$"):
        load_decomposition(path)


@pytest.mark.parametrize(
    "second, third, got",
    [
        (["0/1", 0, "0/1", "1/1"], ["0/1", -0.0, "0/1", "1/1"], "0"),
        (["0/1", -0.0, "0/1", "1/1"], ["0/1", 0, "0/1", "1/1"], "-0.0"),
        (["1/1", "0/1", True, "1/1"], [1, "0/1", "0/1", "1/1"], "True"),
        (["1/1", "0/1", "0/1", "1/1"], ["1/1", [1], "0/1", "1/1"], "[1]"),
    ],
)
def test_rational_refusal_names_the_first_non_string(tmp_path, second, third, got):
    q = ["1/1", "0/1", "0/1", "1/1"]
    path = tmp_path / "bad.json"
    write_records(path, "rational", 2, [(q, q, q), (second, q, q), (third, q, q), (second, q, q)])
    with pytest.raises(SchemaError, match=f"must be 'p/q' strings, got {re.escape(got)}$"):
        load_decomposition(path)


def test_nonpositive_n_rejected(tmp_path):
    path = tmp_path / "bad.json"
    write_records(path, "float64", 0, [([], [], [])])
    with pytest.raises(SchemaError, match="n must be >= 1"):
        load_decomposition(path)


@pytest.mark.parametrize("scheme", [5, None, ["lattice"]])
def test_non_string_scheme_rejected(scheme, tmp_path):
    good = tmp_path / "good.json"
    save_decomposition(lattice_decomposition(simplex_frame(2)), good)
    doc = json.loads(good.read_text())
    doc["scheme"] = scheme
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="scheme must be a string"):
        load_decomposition(bad)


def test_zero_denominator_rejected(tmp_path):
    q = ["1/1", "0/1", "0/1", "1/1"]
    path = tmp_path / "bad.json"
    write_records(path, "rational", 2, [(["1/0"] + q[1:], q, q)])
    with pytest.raises(SchemaError, match="malformed"):
        load_decomposition(path)


@pytest.mark.parametrize("entry", [0.1, True])
def test_rational_entry_must_be_a_string(entry, tmp_path):
    # Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction(True) is 1
    q = ["1/1", "0/1", "0/1", "1/1"]
    path = tmp_path / "bad.json"
    write_records(path, "rational", 2, [(q, q[:3] + [entry], q)])
    with pytest.raises(SchemaError, match=f"must be 'p/q' strings, got {entry!r}"):
        load_decomposition(path)


# files that loaded before they were refused: terms as an object or a
# string (as rank 0), a JSON boolean entry in a float64 file (as 1.0 or 0.0)
# and a format_version equal to 1 that is not the JSON integer 1; and a
# version 1 or 3 header on a version 2 body
V2_LAYOUT = 'version 2 holds "rows" and [ia, ib, ic] triples'
LOADER_HOLES = {
    "terms-object": ("terms", {}, "malformed decomposition file: terms must be a list, got dict"),
    "terms-string": ("terms", "", "malformed decomposition file: terms must be a list, got str"),
    "boolean-entry": ("a", [True, False, False, True], "float64 entries must be decimal strings or numbers, got True"),
    "version-true": ("format_version", True, f"unsupported format_version True: {V2_LAYOUT}"),
    "version-float": ("format_version", 1.0, f"unsupported format_version 1.0: {V2_LAYOUT}"),
    "version-1": ("format_version", 1, f"unsupported format_version 1: {V2_LAYOUT}"),
    "version-3": ("format_version", 3, f"unsupported format_version 3: {V2_LAYOUT}"),
    "version-2-float": ("format_version", 2.0, f"unsupported format_version 2.0: {V2_LAYOUT}"),
}


def _holed_orbit_file(path, case):
    """The n=2 orbit file with one field, or term 0's a side, replaced as in
    LOADER_HOLES; a new side is appended to the a rows and term 0 repointed."""
    save_decomposition(orbit_decomposition(orbit_spec_for(2)), path)
    doc = json.loads(path.read_text())
    field, value, _ = LOADER_HOLES[case]
    if field == "a":
        doc["rows"]["a"].append(value)
        doc["terms"][0][0] = len(doc["rows"]["a"]) - 1
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("case", LOADER_HOLES)
def test_loader_holes_refused(tmp_path, case):
    path = _holed_orbit_file(tmp_path / "bad.json", case)
    with pytest.raises(SchemaError, match=re.escape(LOADER_HOLES[case][2]) + "$"):
        load_decomposition(path)


@pytest.mark.parametrize("case", LOADER_HOLES)
def test_verify_exits_2_on_loader_holes(tmp_path, capsys, case):
    path = _holed_orbit_file(tmp_path / "bad.json", case)
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {LOADER_HOLES[case][2]}\n"


TRIPLE = "a term must be a list of 3 integer row indices, got {!r}"
DELETE = object()

# version 2 files a loader must refuse: (scalar kind, path to the replaced
# node, its new value or DELETE, message); the n = 2 orbit has 7 rows per side
V2_HOLES = {
    "index-float": ("float64", ("terms", 1), [1, 1.0, 1], TRIPLE.format([1, 1.0, 1])),
    "index-true": ("float64", ("terms", 1), [1, True, 1], TRIPLE.format([1, True, 1])),
    "index-string": ("float64", ("terms", 1), [1, "1", 1], TRIPLE.format([1, "1", 1])),
    "index-negative": ("float64", ("terms", 1), [1, -1, 1], "row index -1 is outside the side's 7 rows"),
    "index-past-rows": ("float64", ("terms", 1), [1, 1, 7], "row index 7 is outside the side's 7 rows"),
    "index-beyond-int64": (
        "float64", ("terms", 1, 0), 10**400, "malformed decomposition file: Python int too large to convert to C long"
    ),
    "triple-of-2": ("float64", ("terms", 1), [1, 1], TRIPLE.format([1, 1])),
    "triple-of-4": ("float64", ("terms", 1), [1, 1, 1, 1], TRIPLE.format([1, 1, 1, 1])),
    "triple-string": ("float64", ("terms", 1), "111", TRIPLE.format("111")),
    "side-missing": ("float64", ("rows", "b"), DELETE, "malformed decomposition file: 'b'"),
    "side-object": ("float64", ("rows", "c"), {}, "malformed decomposition file: rows must be a list, got dict"),
    "rows-list": ("float64", ("rows",), [], "malformed decomposition file: list indices must be integers or slices, not str"),
    "row-short": ("float64", ("rows", "a", 0), ["1", "0", "0"], "matrix has 3 entries, expected 4"),
    "row-long": ("rational", ("rows", "c", 1), ["1/1"] * 5, "matrix has 5 entries, expected 4"),
    "float64-bool": ("float64", ("rows", "b", 2, 3), False, "float64 entries must be decimal strings or numbers, got False"),
    "rational-bool": ("rational", ("rows", "a", 0, 1), True, "rational entries must be 'p/q' strings, got True"),
    "rational-float": ("rational", ("rows", "a", 0, 1), 0.5, "rational entries must be 'p/q' strings, got 0.5"),
    "rational-int": ("rational", ("rows", "b", 1, 0), 1, "rational entries must be 'p/q' strings, got 1"),
}


@pytest.mark.parametrize("case", V2_HOLES)
def test_v2_holes_exit_2_with_a_schema_error(tmp_path, capsys, case):
    kind, where, value, message = V2_HOLES[case]
    path = tmp_path / "bad.json"
    save_decomposition(orbit_decomposition(orbit_spec_for(2)) if kind == "float64" else _rational_dec(), path)
    doc = json.loads(path.read_text())
    *parents, last = where
    holder = functools.reduce(operator.getitem, parents, doc)
    if value is DELETE:
        del holder[last]
    else:
        holder[last] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=re.escape(message) + "$"):
        load_decomposition(path)
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_v2_rows_keep_the_sign_of_zero(tmp_path):
    # "0", "-0", 0 and -0.0 are distinct rows; the terms take them in reverse
    zeros = ["0", "-0", 0, -0.0, "-0.0", 0.0]
    rows = [[z, "1.5", "2", "3"] for z in zeros]
    terms = [[i, 5 - i, i] for i in range(6)]
    doc = {"format_version": 2, "n": 2, "scalar_kind": "float64", "rows": {"a": rows, "b": rows, "c": rows}, "terms": terms}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    dec = _assert_per_entry_load(path)
    assert np.signbit(dec.U[:, 0, 0]).tolist() == [False, True, False, True, True, False]
    assert np.signbit(dec.V[:, 0, 0]).tolist() == [False, True, True, False, True, False]


def test_set_term_entry_changes_one_term(tmp_path):
    # the test helper that edits a file: the n = 3 lattice's term 1 shares
    # its a row with other terms, and only term 1's stack entry moves
    path = tmp_path / "d.json"
    save_decomposition(lattice_decomposition(simplex_frame(3)), path)
    before = load_decomposition(path)
    doc = json.loads(path.read_text())
    assert sum(t[0] == doc["terms"][1][0] for t in doc["terms"]) > 1
    set_term_entry(doc, 1, "a", 0, "5.0")
    path.write_text(json.dumps(doc))
    after = load_decomposition(path)
    changed = [np.flatnonzero((X != Y).reshape(len(X), -1).any(1)).tolist() for X, Y in zip(
        (before.U, before.V, before.W), (after.U, after.V, after.W))]
    assert changed == [[1], [], []] and after.U[1, 0, 0] == 5.0


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    save_decomposition(lattice_decomposition(simplex_frame(2)), good)
    path.write_text(good.read_text()[:50])
    with pytest.raises(SchemaError):
        load_decomposition(path)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"format_version": 2, "n": 2, "terms": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="malformed decomposition file: 'scalar_kind'$"):
        load_decomposition(path)


def test_wrong_version_rejected(tmp_path):
    good = tmp_path / "good.json"
    save_decomposition(lattice_decomposition(simplex_frame(2)), good)
    doc = json.loads(good.read_text())
    doc["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_decomposition(bad)


def test_wrong_matrix_length_rejected(tmp_path):
    good = tmp_path / "good.json"
    save_decomposition(lattice_decomposition(simplex_frame(2)), good)
    doc = json.loads(good.read_text())
    doc["rows"]["a"].append(doc["rows"]["a"][doc["terms"][0][0]][:-1])
    doc["terms"][0][0] = len(doc["rows"]["a"]) - 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_decomposition(bad)


def test_wrong_rational_matrix_length_rejected(tmp_path):
    # one factor short and one long: the entry total still matches
    q = ["1/1", "0/1", "0/1", "1/1"]
    bad = tmp_path / "bad.json"
    write_records(bad, "rational", 2, [(q[:-1], q, q), (q + ["1/1"], q, q)])
    with pytest.raises(SchemaError, match="3 entries, expected 4"):
        load_decomposition(bad)


def test_matrix_roundtrip(tmp_path):
    m = np.array([[1.5, -2.25, 3.0], [0.0, 1e-17, 7.0]])
    path = tmp_path / "m.txt"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_matrix_file_bytes_match_per_entry_format(tmp_path, nprng, dtype):
    # the file is pinned to one format(float(x), ".17g") per entry
    if dtype is np.float64:
        special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-17, 0.1, 1 / 3, 2.0**53 + 2]
        values = np.concatenate([special, nprng.standard_normal(190) * 10.0 ** nprng.integers(-300, 300, 190)])
    else:
        values = nprng.integers(-(2**62), 2**62, 200)
    m = values.astype(dtype).reshape(8, 25)
    path = tmp_path / "m.txt"
    save_matrix(m, path)
    lines = ["8 25"] + [" ".join(format(float(x), ".17g") for x in row) for row in m]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    if dtype is np.float64:
        assert np.array_equal(load_matrix(path), m) and np.signbit(load_matrix(path).flat[1])


def test_matrix_empty_rows(tmp_path):
    path = tmp_path / "m.txt"
    save_matrix(np.zeros((2, 0)), path)
    assert path.read_text() == "2 0\n\n\n"


def test_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 2\n3\n")
    with pytest.raises(SchemaError):
        load_matrix(path)


def test_matrix_header_may_span_lines(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("\n2\n\n 3 1.5\n-2\n\n3 4 5\r\n6\n")
    assert np.array_equal(load_matrix(path), [[1.5, -2, 3], [4, 5, 6]])
    with warnings.catch_warnings():  # an empty body after the header is no fault
        warnings.simplefilter("error")
        path.write_text("2 3 1 2 3 4 5 6")
        assert np.array_equal(load_matrix(path), [[1, 2, 3], [4, 5, 6]])
        path.write_text("0 0\n")
        assert load_matrix(path).shape == (0, 0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "malformed matrix file: list index out of range"),
        ("2", "malformed matrix file: list index out of range"),
        ("x 2\n1 y", "malformed matrix file: invalid literal for int"),
        ("1 2\n1 y", "malformed matrix file: could not convert string to float: 'y'"),
        ("1 2\n1 #\n", "malformed matrix file: could not convert string to float: '#'"),
        ("-1 2\n", "negative dimensions -1 x 2"),
        ("2 2\n1 2\n3\n", "3 values, expected 4"),
        ("1 2\n1 inf\n", r"non-finite value \(inf\) at entry 1"),
        ("99999999 99999999\n1\n", "1 values, expected 9999999800000001"),
    ],
)
def test_matrix_refusals_keep_their_messages(tmp_path, text, message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        load_matrix(path)


# 300 lines of 4 values, about 23 KB: more than a text file reads ahead at once
_REGULAR = (np.arange(1200.0) / 7).reshape(300, 4)
_REGULAR_TEXT = "".join(" ".join(map(repr, row)) + "\n" for row in _REGULAR.tolist())


@pytest.mark.parametrize(
    "text, values",
    [
        ("2 2\n\n1 2\n\n3 4\n\n", [[1, 2], [3, 4]]),
        ("2 2\n  \n1 2\n\t \n3 4\n   ", [[1, 2], [3, 4]]),
        ("2 2\r\n1 2\r\n3 4\r\n", [[1, 2], [3, 4]]),
        ("1 2\n1_0 2\n", [[10, 2]]),
        ("1 2\n\u0661\u0662 3\n", [[12, 3]]),
        ("1 2\n1\xa02\n", [[1, 2]]),
        (f"301 4\n{_REGULAR_TEXT}1 2\n3 4\n", np.vstack([_REGULAR, [1, 2, 3, 4]])),
        (f"301 4\n{_REGULAR_TEXT}1_0 2 3 4\n", np.vstack([_REGULAR, [10, 2, 3, 4]])),
    ],
    ids=[
        "blank-lines",
        "whitespace-only-lines",
        "crlf",
        "underscore",
        "non-ascii-digits",
        "no-break-space",
        "regular-then-ragged",
        "regular-then-underscore",
    ],
)
def test_matrix_lines_numpy_refuses_load_as_float_reads_them(tmp_path, text, values):
    # a body numpy's reader refuses, even after hundreds of lines it read, is
    # read again from the header's end, token by token, as float() reads them
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert np.array_equal(load_matrix(path), values)


def test_matrix_save_load_save_is_bit_identical(tmp_path, nprng):
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-17, 0.1, 1 / 3, 2.0**53 + 2]
    m = np.concatenate([special, nprng.standard_normal(290) * 10.0 ** nprng.integers(-300, 300, 290)]).reshape(12, 25)
    first, second = tmp_path / "m.txt", tmp_path / "again.txt"
    save_matrix(m, first)
    loaded = load_matrix(first)
    assert loaded.tobytes() == m.tobytes()
    save_matrix(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def test_matrix_unreadable_file_refused(tmp_path):
    with pytest.raises(SchemaError, match="cannot read matrix file"):
        load_matrix(tmp_path / "missing.txt")
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe 2 2\n")
    with pytest.raises(SchemaError, match="malformed matrix file"):
        load_matrix(tmp_path / "binary.txt")
    with pytest.raises(SchemaError, match="cannot write matrix file"):
        save_matrix(np.eye(2), tmp_path / "no-such-dir" / "m.txt")


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_io_streams(tmp_path, nprng):
    # neither direction holds the text or one str per token: at 512^2 the
    # whole text is about 5 MB and its tokens about 15 MB
    m = nprng.standard_normal((512, 512))
    path = tmp_path / "m.txt"
    save_peak = _traced_peak(lambda: save_matrix(m, path))
    assert save_peak <= m[0].nbytes + 64 * 1024
    # the last two rows on one line: numpy's reader refuses the body at its
    # end, and it is read again a line at a time
    head, last = path.read_text()[:-1].rsplit("\n", 1)
    ragged = tmp_path / "ragged.txt"
    ragged.write_text(f"{head} {last}\n")
    for p in (path, ragged):
        load_peak = _traced_peak(lambda: load_matrix(p))
        assert load_peak <= 3 * m.nbytes + 64 * 1024
        assert np.array_equal(load_matrix(p), m)
