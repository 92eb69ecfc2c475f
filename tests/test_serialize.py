import json
import math
import tracemalloc
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
from orbitmm.frames import simplex_frame
from orbitmm.tensor import Decomposition
from orbitmm.serialize import (
    SchemaError,
    _dump_stack,
    load_decomposition,
    load_matrix,
    save_decomposition,
    save_matrix,
)


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
    assert doc["scalar_kind"] == "rational" and doc["terms"][0]["a"] == ["1/1", "-1/3", "0/1", "5/7"]
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
    assert doc["format_version"] == 1
    assert doc["n"] == 2
    assert doc["scheme"] == "lattice"
    assert len(doc["terms"]) == 7
    assert set(doc["terms"][0]) == {"a", "b", "c"}


def test_rational_scalars_survive(tmp_path):
    path = tmp_path / "d.json"
    save_decomposition(lattice_decomposition(simplex_frame(2)), path)
    doc = json.loads(path.read_text())
    if doc["scalar_kind"] == "rational":
        flat = doc["terms"][0]["a"]
        assert all(isinstance(s, str) for s in flat)
        Fraction(flat[0])  # parses


def test_dump_stack_matches_per_entry_format(nprng):
    # float factors are pinned to one format(float(x), ".17g") per entry
    special = [0.0, -0.0, 5e-324, 1e300, -1e-300, 1 / 3, 1e16, -5e-324, 2.0**53 + 2]
    X = np.concatenate([special, nprng.standard_normal(27) * 10.0 ** nprng.integers(-300, 300, 27)]).reshape(4, 3, 3)
    assert _dump_stack(X) == [[format(float(x), ".17g") for x in f.flat] for f in X]
    assert _dump_stack(X)[0][:2] == ["0", "-0"]
    Q = np.array([Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(5, 7)], dtype=object).reshape(1, 2, 2)
    assert _dump_stack(Q) == [["1/3", "-2/1", "0/1", "5/7"]]


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
    terms = json.loads(path.read_text())["terms"]
    for s, X in zip("abc", (dec.U, dec.V, dec.W)):
        assert [t[s] for t in terms] == [[format(float(x), ".17g") for x in f.flat] for f in X]


def _json_doc(dec):
    """The document a decomposition file holds, as json would encode it."""
    a, b, c = (_dump_stack(X) for X in (dec.U, dec.V, dec.W))
    return {
        "format_version": 1,
        "n": dec.n,
        "scheme": dec.scheme,
        "params": dec.params,
        "scalar_kind": "rational" if dec.exact else "float64",
        "terms": [{"a": x, "b": y, "c": z} for x, y, z in zip(a, b, c)],
    }


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
    dec = WRITER_CASES[name]()
    path = tmp_path / "d.json"
    save_decomposition(dec, path)
    assert path.read_text() == json.dumps(_json_doc(dec), indent=1)
    if name == "rank-0":
        assert '"terms": []' in path.read_text()


def test_nonpositive_n_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 1, "n": 0, "scalar_kind": "float64", "terms": [{"a": [], "b": [], "c": []}]}))
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
    doc = {"format_version": 1, "n": 2, "scalar_kind": "rational", "terms": [{"a": ["1/0"] + q[1:], "b": q, "c": q}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="malformed"):
        load_decomposition(path)


@pytest.mark.parametrize("entry", [0.1, True])
def test_rational_entry_must_be_a_string(entry, tmp_path):
    # Fraction(0.1) is 3602879701896397/36028797018963968 and Fraction(True) is 1
    q = ["1/1", "0/1", "0/1", "1/1"]
    doc = {"format_version": 1, "n": 2, "scalar_kind": "rational", "terms": [{"a": q, "b": q[:3] + [entry], "c": q}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=f"must be 'p/q' strings, got {entry!r}"):
        load_decomposition(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    good = tmp_path / "good.json"
    save_decomposition(lattice_decomposition(simplex_frame(2)), good)
    path.write_text(good.read_text()[:50])
    with pytest.raises(SchemaError):
        load_decomposition(path)


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"format_version": 1, "n": 2, "terms": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
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
    doc["terms"][0]["a"] = doc["terms"][0]["a"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_decomposition(bad)


def test_wrong_rational_matrix_length_rejected(tmp_path):
    # one factor short and one long: the entry total still matches
    q = ["1/1", "0/1", "0/1", "1/1"]
    doc = {
        "format_version": 1, "n": 2, "scalar_kind": "rational",
        "terms": [{"a": q[:-1], "b": q, "c": q}, {"a": q + ["1/1"], "b": q, "c": q}],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
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
    load_peak = _traced_peak(lambda: load_matrix(path))
    assert load_peak <= 3 * m.nbytes + 64 * 1024
    assert np.array_equal(load_matrix(path), m)
