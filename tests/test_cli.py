import contextlib
import copy
import functools
import io
import json
import operator
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitmm
from orbitmm.cli import build_parser, main
from orbitmm.constructions import lattice_decomposition
from orbitmm.frames import fixture_frame
from orbitmm.serialize import load_decomposition, load_matrix, save_decomposition, save_matrix
from orbitmm.tensor import Decomposition

from conftest import set_term_entry, write_records


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_lattice(tmp_path, capsys, n=2):
    path = tmp_path / f"lat{n}.json"
    code, _, _ = run(capsys, "gen", "--n", str(n), "--scheme", "lattice", "-o", str(path))
    assert code == 0
    return path


def test_gen_lattice(tmp_path, capsys):
    path = gen_lattice(tmp_path, capsys, 3)
    dec = load_decomposition(path)
    assert dec.n == 3 and dec.rank == 25


def test_gen_orbit(tmp_path, capsys):
    path = tmp_path / "orb.json"
    code, out, _ = run(capsys, "gen", "--n", "4", "--scheme", "orbit", "-o", str(path))
    assert code == 0
    assert load_decomposition(path).rank == 61
    assert "rank=61" in out


def test_gen_strassen_theta(tmp_path, capsys):
    path = tmp_path / "st.json"
    code, _, _ = run(
        capsys, "gen", "--n", "2", "--scheme", "strassen-theta", "--theta-sixths", "2", "-o", str(path)
    )
    assert code == 0
    assert load_decomposition(path).rank == 7


def test_gen_s4_family(tmp_path, capsys):
    path = tmp_path / "s4.json"
    code, _, _ = run(
        capsys, "gen", "--n", "3", "--scheme", "s4-family", "--variant", "u-minus", "--theta", "0", "-o", str(path)
    )
    assert code == 0
    assert load_decomposition(path).rank == 25


@pytest.mark.parametrize("variant", ["u-minus", "u-plus", "v-minus", "v-plus"])
def test_gen_s4_family_variants(tmp_path, capsys, variant):
    path = tmp_path / "s4.json"
    code, _, _ = run(capsys, "gen", "--n", "3", "--scheme", "s4-family", "--variant", variant, "-o", str(path))
    which, sign = variant.split("-")
    dec = load_decomposition(path)
    assert code == 0 and dec.rank == 25
    assert dec.params == {"frame": "tetrahedron-3", "which": which, "sign": 1 if sign == "plus" else -1, "theta": 0.0}


def test_gen_s4_family_without_variant_writes_u_minus(tmp_path, capsys):
    plain, u_minus = tmp_path / "plain.json", tmp_path / "u-minus.json"
    assert run(capsys, "gen", "--n", "3", "--scheme", "s4-family", "--theta", "0.7", "-o", str(plain))[0] == 0
    argv = ("gen", "--n", "3", "--scheme", "s4-family", "--variant", "u-minus", "--theta", "0.7", "-o", str(u_minus))
    assert run(capsys, *argv)[0] == 0
    assert plain.read_bytes() == u_minus.read_bytes()


def test_gen_s4_family_theta_sixths_matches_theta(tmp_path, capsys):
    # s4-family reads --theta-sixths k as theta = k*pi/6, unlike strassen-theta's exact trig
    sixths, theta = tmp_path / "sixths.json", tmp_path / "theta.json"
    base = ("gen", "--n", "3", "--scheme", "s4-family")
    assert run(capsys, *base, "--theta-sixths", "3", "-o", str(sixths))[0] == 0
    assert run(capsys, *base, "--theta", "1.5707963267948966", "-o", str(theta))[0] == 0
    assert sixths.read_bytes() == theta.read_bytes()


def test_gen_s4_family_huge_theta_sixths_reads_k_mod_12(tmp_path, capsys):
    # k * pi / 6 overflows a float for a huge k; theta depends only on k mod 12
    huge, three = tmp_path / "huge.json", tmp_path / "three.json"
    base = ("gen", "--n", "3", "--scheme", "s4-family")
    assert run(capsys, *base, "--theta-sixths", str(12 * 10**400 + 3), "-o", str(huge))[0] == 0
    assert run(capsys, *base, "--theta-sixths", "3", "-o", str(three))[0] == 0
    assert huge.read_bytes() == three.read_bytes()


@pytest.mark.parametrize(
    "argv,option",
    [
        (("gen", "--n", "3", "--scheme", "lattice", "--theta", "0.3"), "--theta"),
        (("gen", "--n", "3", "--scheme", "lattice", "--variant", "v-plus"), "--variant"),
        (("gen", "--n", "2", "--scheme", "orbit", "--theta-sixths", "1"), "--theta"),
        (("gen", "--n", "2", "--scheme", "strassen-theta", "--variant", "u-plus"), "--variant"),
    ],
    ids=["lattice-theta", "lattice-variant", "orbit-theta-sixths", "strassen-theta-variant"],
)
def test_gen_refuses_options_the_scheme_ignores(tmp_path, capsys, argv, option):
    path = tmp_path / "x.json"
    code, out, err = run(capsys, *argv, "-o", str(path))
    assert code == 2 and option in err and out == "" and not path.exists()


@pytest.mark.parametrize(
    "target,option",
    [("s4-first", ("--theta", "0.5")), ("s5", ("--theta-sixths", "2")), ("file", ("--theta", "1"))],
    ids=["s4-first-theta", "s5-theta-sixths", "file-theta"],
)
def test_analyze_refuses_theta_outside_strassen(tmp_path, capsys, target, option):
    if target == "file":
        target = str(gen_lattice(tmp_path, capsys))
    code, out, err = run(capsys, "analyze", target, *option)
    assert code == 2 and "--theta" in err and out == ""


def test_gen_scheme_dimension_mismatch_exits_2(tmp_path, capsys):
    for n, scheme, rule in (("2", "s4-family", "n = 3"), ("3", "strassen-theta", "n = 2")):
        path = tmp_path / f"{scheme}.json"
        code, out, err = run(capsys, "gen", "--n", n, "--scheme", scheme, "-o", str(path))
        assert code == 2 and rule in err and out == "" and not path.exists()


def test_gen_lattice_n0_exits_2(tmp_path, capsys):
    path = tmp_path / "z.json"
    code, out, err = run(capsys, "gen", "--n", "0", "--scheme", "lattice", "-o", str(path))
    assert code == 2 and "n >= 1" in err and out == "" and not path.exists()


def test_gen_orbit_outside_standard_n_exits_2(tmp_path, capsys):
    path = tmp_path / "o5.json"
    code, out, err = run(capsys, "gen", "--n", "5", "--scheme", "orbit", "-o", str(path))
    assert code == 2 and "n=5" in err and out == "" and not path.exists()


def test_gen_unwritable_output_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "gen", "--n", "2", "--scheme", "strassen-theta", "-o", str(out_path))
    assert code == 2
    assert "cannot write decomposition file" in err and not out_path.exists()


def test_gen_theta_conflict_exits_2(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "gen", "--n", "2", "--scheme", "strassen-theta",
        "--theta", "0.5", "--theta-sixths", "1", "-o", str(tmp_path / "x.json"),
    )
    assert code == 2


def test_verify_float_pass(tmp_path, capsys):
    path = gen_lattice(tmp_path, capsys)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "valid" in out


def test_verify_float_json(tmp_path, capsys):
    path = gen_lattice(tmp_path, capsys)
    code, out, _ = run(capsys, "verify", str(path), "--json")
    doc = json.loads(out)
    assert code == 0 and doc["valid"] is True
    assert doc["invariants"]["rank"] == 7


INVARIANT_KEYS = ["n", "rank", "operator_trace", "frobenius_sq", "inner_with_mm"]


def test_verify_json_schema(tmp_path, capsys):
    path = gen_lattice(tmp_path, capsys, 3)
    _, out, _ = run(capsys, "verify", str(path), "--json")
    doc = json.loads(out)
    assert list(doc) == ["mode", "residual", "valid", "invariants"] and doc["mode"] == "float"
    assert list(doc["invariants"]) == INVARIANT_KEYS
    _, out, _ = run(capsys, "verify", str(path), "--mode", "exact-gram", "--json")
    doc = json.loads(out)
    assert list(doc) == ["mode", "residual", "file_deviation", "valid", "invariants"]
    assert doc["mode"] == "exact-gram" and doc["residual"] == "0"
    assert list(doc["invariants"]) == INVARIANT_KEYS


def test_main_calls_share_no_state(tmp_path, capsys):
    # main() parses with one parser per process; each call gets fresh options
    path = gen_lattice(tmp_path, capsys)
    _, out, _ = run(capsys, "verify", str(path), "--json")
    assert json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("max residual")
    assert build_parser() is not build_parser()


def test_verify_text_prints_each_invariant_once(tmp_path, capsys):
    path = gen_lattice(tmp_path, capsys, 3)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.count("operator trace") == 1 and out.count("<D, D>") == 1
    assert "max residual" in out
    lines = out.splitlines()  # n and the rank (25 terms) too
    assert sum(line.startswith("n ") for line in lines) == 1
    assert sum(line.split(":")[-1].strip() == "25" for line in lines) == 1


def test_verify_json_computes_no_factor_ranks(tmp_path, capsys, monkeypatch):
    # the JSON record has no factor ranks, so nothing may pay for them
    path = gen_lattice(tmp_path, capsys, 3)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "matrix_rank", lambda *a, **k: pytest.fail("matrix_rank called"))
        for mode in ("float", "exact-gram"):
            code, out, _ = run(capsys, "verify", str(path), "--mode", mode, "--json")
            assert code == 0 and json.loads(out)["valid"] is True
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "factor rank counts: {(1, 1, 1): 24, (3, 3, 3): 1}" in out


def test_verify_invalid_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    code, _, _ = run(
        capsys, "gen", "--n", "2", "--scheme", "strassen-theta", "--theta", "0.2617993877991494", "-o", str(path)
    )
    assert code == 0  # pi/12 generates fine, it just isn't a decomposition
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1


def test_verify_exact_gram(tmp_path, capsys):
    path = gen_lattice(tmp_path, capsys, 4)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "exact-gram")
    assert code == 0
    assert "0 (exact)" in out
    # the certificate covers the lattice regenerated from the file's frame label
    assert "exact |D - MM|^2 of the regenerated generic-4 lattice: 0 (exact)" in out.splitlines()


@pytest.mark.parametrize("name", ["triangle-2", "tetrahedron-3", "simplex-4"])
def test_verify_exact_gram_fixture_frames(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    save_decomposition(lattice_decomposition(fixture_frame(name)), path)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "exact-gram")
    assert code == 0
    assert f"exact |D - MM|^2 of the regenerated {name} lattice: 0 (exact)" in out.splitlines()
    code, out, _ = run(capsys, "verify", str(path), "--mode", "exact-gram", "--json")
    assert code == 0 and json.loads(out)["file_deviation"] == 0


def test_verify_exact_gram_rejects_nonlattice(tmp_path, capsys):
    path = tmp_path / "orb.json"
    run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(path))
    code, _, err = run(capsys, "verify", str(path), "--mode", "exact-gram")
    assert code == 2


def _count_tensor_of(monkeypatch):
    """Count the tensor_of calls made through the package's bindings of it."""
    calls = []
    real = orbitmm.tensor.tensor_of

    def counted(dec):
        calls.append(dec.n)
        return real(dec)

    for mod in ("orbitmm.verify", "orbitmm.cli"):
        monkeypatch.setattr(f"{mod}.tensor_of", counted)
    return calls


@pytest.mark.parametrize("case", ["orbit", "label-not-a-string", "label-of-another-n", "valid"])
def test_verify_exact_gram_refuses_before_any_dense_build(tmp_path, capsys, monkeypatch, case):
    if case == "orbit":
        path = tmp_path / "orb.json"
        run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(path))
    else:
        path = gen_lattice(tmp_path, capsys, 3)
        doc = json.loads(path.read_text())
        doc["params"]["frame"] = {"label-not-a-string": 5, "label-of-another-n": "triangle-2", "valid": "generic-3"}[case]
        path.write_text(json.dumps(doc))
    calls = _count_tensor_of(monkeypatch)
    code, _, _ = run(capsys, "verify", str(path), "--mode", "exact-gram")
    # a valid lattice file takes 4 dense builds: 1 float check, 1 invariants, 2 file tie
    assert (code, len(calls)) == ((0, 4) if case == "valid" else (2, 0))


def test_verify_exact_gram_refuses_oversized_n_before_building_a_frame(tmp_path, capsys, monkeypatch):
    # a rank-0 lattice file of about 100 bytes at n = 10^6: its generic
    # frame's n x (n+1) basis and (n+1)^2 Gram would need about 8e12 bytes
    calls = []
    real = orbitmm.frames.simplex_frame

    def recorded(n):
        calls.append(n)
        return real(1)

    monkeypatch.setattr("orbitmm.cli.simplex_frame", recorded)
    path = tmp_path / "huge-n.json"
    write_records(path, "float64", 10**6, [], scheme="lattice")
    code, out, err = run(capsys, "verify", str(path), "--mode", "exact-gram")
    assert code == 2 and out == "" and "n=1000000" in err
    assert calls == []


def _corrupted_lattice3(tmp_path, capsys):
    """The n=3 lattice file with term 1's a[0] set to 5.0."""
    path = gen_lattice(tmp_path, capsys, 3)
    doc = json.loads(path.read_text())
    set_term_entry(doc, 1, "a", 0, "5.0")
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("mode", ["float", "exact-gram"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_verify_tol_must_be_finite_and_positive(tmp_path, capsys, mode, tol):
    path = _corrupted_lattice3(tmp_path, capsys)
    code, out, err = run(capsys, "verify", str(path), "--mode", mode, "--tol", tol)
    assert code == 2 and "--tol" in err and out == ""


@pytest.mark.parametrize("changed", [False, True], ids=["as-written", "one-entry-changed"])
@pytest.mark.parametrize(
    "gen_args, mode",
    [
        (("--n", "5", "--scheme", "lattice"), "exact-gram"),
        (("--n", "7", "--scheme", "lattice"), "float"),
        (("--n", "3", "--scheme", "s4-family"), "float"),
    ],
    ids=["lattice-5-exact-gram", "lattice-7", "s4-family"],
)
def test_gen_file_verifies_until_one_entry_changes(tmp_path, capsys, gen_args, mode, changed):
    # the lattices repeat factor rows across terms: a change to one term
    # must not be read as a change to, or hidden behind, its repeats
    path = tmp_path / "d.json"
    assert run(capsys, "gen", *gen_args, "-o", str(path))[0] == 0
    if changed:
        doc = json.loads(path.read_text())
        set_term_entry(doc, 5, "b", 3, "0.25")
        path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--mode", mode, "--json")
    rec = json.loads(out)
    assert (code, rec["valid"]) == ((1, False) if changed else (0, True))
    if mode == "exact-gram":  # the regenerated lattice is certified; the file tie fails
        assert rec["residual"] == "0"


def test_verify_exact_gram_rejects_corrupted_lattice_file(tmp_path, capsys):
    # the frame's certificate is exact 0; the file tie is what fails
    path = _corrupted_lattice3(tmp_path, capsys)
    code, out, _ = run(capsys, "verify", str(path), "--mode", "exact-gram", "--json")
    rec = json.loads(out)
    assert code == 1 and rec["residual"] == "0" and rec["file_deviation"] > 5 and rec["valid"] is False


def test_verify_exact_gram_unknown_frame_label_exits_2(tmp_path, capsys):
    # the n=5 S5 seed pair is not a frame, so a lattice labelled with it is refused
    path = gen_lattice(tmp_path, capsys, 5)
    doc = json.loads(path.read_text())
    doc["params"]["frame"] = "s5-pair-5"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--mode", "exact-gram")
    assert code == 2 and "'s5-pair-5'" in err and out == ""


@pytest.mark.parametrize("label", ["triangle-2", 5, "generic-9"])
def test_verify_exact_gram_frame_label_not_fitting_file_exits_2(tmp_path, capsys, label):
    # a fixture of another n, a label that is not a string, a generic frame of another n
    path = gen_lattice(tmp_path, capsys, 3)
    doc = json.loads(path.read_text())
    doc["params"]["frame"] = label
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path), "--mode", "exact-gram")
    assert code == 2 and repr(label) in err and out == ""


@pytest.mark.parametrize("field, value", [("scalar_kind", "complex128"), ("n", 2.7), ("n", True), ("params", ["x"])])
def test_verify_malformed_header_exits_2(tmp_path, capsys, field, value):
    path = gen_lattice(tmp_path, capsys, 2)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and field in err and repr(value) in err and out == ""


def test_verify_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and "cannot read decomposition file" in err and out == ""


def test_verify_truncated_file_exits_2(tmp_path, capsys):
    path = gen_lattice(tmp_path, capsys)
    trunc = tmp_path / "trunc.json"
    trunc.write_text(path.read_text()[:40])
    code, _, err = run(capsys, "verify", str(trunc))
    assert code == 2
    assert "error" in err


def test_verify_non_finite_coefficient_exits_2(tmp_path, capsys):
    path = tmp_path / "orb.json"
    run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(path))
    doc = json.loads(path.read_text())
    assert doc["scalar_kind"] == "float64"
    set_term_entry(doc, 1, "b", 3, "inf")
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "non-finite" in err


def test_verify_oversized_n_exits_2(tmp_path, capsys):
    # one term at n = 40: its dense tensor would need 8 * 40^6 bytes (about 33 GB)
    n = 40
    eye = ["1" if i == j else "0" for i in range(n) for j in range(n)]
    path = tmp_path / "big.json"
    write_records(path, "float64", n, [(eye, eye, eye)], scheme="imported", params={})
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "n=40" in err and str(8 * n**6) in err


def test_analyze_builtin_strassen(capsys):
    code, out, _ = run(capsys, "analyze", "strassen", "--theta-sixths", "1")
    assert code == 0
    assert "Fourier coefficients" in out
    assert "necessary conditions" in out


def _fourier_rows(out):
    """The printed Fourier table as {(x, y, z): coefficient}."""
    rows = {}
    for line in out.splitlines():
        if line.startswith("  c("):
            key, value = line.strip()[2:].split(") = ")
            rows[tuple(k.strip() for k in key.split(","))] = float(value)
    return rows


def test_analyze_strassen_table_follows_theta(capsys):
    _, valid, _ = run(capsys, "analyze", "strassen")
    _, invalid, _ = run(capsys, "analyze", "strassen", "--theta", "0.3")
    at_zero, at_03 = _fourier_rows(valid), _fourier_rows(invalid)
    assert len(at_zero) == 16 and all(abs(abs(c) - 0.25) < 1e-12 for c in at_zero.values())
    assert at_zero.keys() < at_03.keys()
    assert at_zero != at_03


def test_analyze_orbit_file_drops_round_off(tmp_path, capsys):
    path = tmp_path / "orbit2.json"
    assert run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    rows = _fourier_rows(out)
    assert len(rows) == 16 and all(abs(abs(c) - 0.25) < 1e-12 for c in rows.values())


@pytest.mark.parametrize("target", ["s4-first", "s4-second", "s5"])
def test_analyze_builtin_s4_s5(capsys, target):
    code, out, _ = run(capsys, "analyze", target)
    assert code == 0
    assert "necessary conditions" in out


def test_analyze_theta_conflict_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "strassen", "--theta", "0.5", "--theta-sixths", "1")
    assert code == 2 and "not both" in err and out == ""


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_non_finite_theta_exits_2(tmp_path, capsys, theta):
    path = tmp_path / "t.json"
    code, _, err = run(capsys, "gen", "--n", "2", "--scheme", "strassen-theta", "--theta", theta, "-o", str(path))
    assert code == 2 and "finite" in err and not path.exists()
    code, out, err = run(capsys, "analyze", "strassen", "--theta", theta)
    assert code == 2 and "finite" in err and out == ""


def test_analyze_file(tmp_path, capsys):
    path = gen_lattice(tmp_path, capsys)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "Fourier coefficients" in out  # n=2 gets the table
    assert "factor rank counts" in out


def test_multiply_end_to_end(tmp_path, capsys, nprng):
    # 6^2 at cutoff 1, and 100^2 at cutoff 8, padded to 112^2
    dec = gen_lattice(tmp_path, capsys)
    fa, fb, fc = (tmp_path / x for x in ("a.txt", "b.txt", "c.txt"))
    for size, cutoff in ((6, "1"), (100, "8")):
        A = nprng.standard_normal((size, size))
        B = nprng.standard_normal((size, size))
        save_matrix(A, fa)
        save_matrix(B, fb)
        code, _, _ = run(capsys, "multiply", str(dec), str(fa), str(fb), "--cutoff", cutoff, "-o", str(fc))
        assert code == 0
        assert np.abs(load_matrix(fc) - A @ B).max() < 1e-9


def test_default_cutoff_runs_the_plain_product(tmp_path, capsys, monkeypatch, nprng):
    # without --cutoff, multiply and bench run A @ B on the inputs as given
    # (depth 0, size^3 multiplications); --cutoff 16 still recurses, 300
    # padded to 320 and split 5 times
    dec = gen_lattice(tmp_path, capsys)
    fa, fb, fc = (str(tmp_path / x) for x in ("a.txt", "b.txt", "c.txt"))
    save_matrix(nprng.standard_normal((300, 300)), fa)
    save_matrix(nprng.standard_normal((300, 300)), fb)
    AB = load_matrix(fa) @ load_matrix(fb)
    reports = []

    def recorded(*args, **kwargs):
        reports.append(orbitmm.multiply_recursive(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(orbitmm.cli, "multiply_recursive", recorded)
    law = functools.partial(orbitmm.predicted_mult_count, 2, 7, cutoff=16)
    assert run(capsys, "multiply", str(dec), fa, fb, "-o", fc)[0] == 0
    assert (reports[-1].recursion_depth, reports[-1].scalar_multiplications) == (0, 300**3)
    assert np.array_equal(load_matrix(fc), AB)
    assert run(capsys, "multiply", str(dec), fa, fb, "--cutoff", "16", "-o", fc)[0] == 0
    assert (reports[-1].recursion_depth, reports[-1].scalar_multiplications) == (5, law(300))
    assert np.abs(load_matrix(fc) - AB).max() <= 1e-12 * np.abs(AB).max()
    for extra, counts in (([], [64**3, 300**3]), (["--cutoff", "16"], [law(64), law(300)])):
        code, out, _ = run(capsys, "bench", str(dec), "--sizes", "64,300", *extra, "--json")
        assert code == 0 and [r["scalar_multiplications"] for r in json.loads(out)] == counts
    # both subcommands read the one named default, the crossover README cites
    for argv in (["multiply", "d", "a", "b", "-o", "c"], ["bench", "d", "--sizes", "8"]):
        assert build_parser().parse_args(argv).cutoff == orbitmm.cli.CROSSOVER == 4096


def test_multiply_non_finite_matrix_exits_2(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    save_matrix(np.eye(2), fa)
    fb.write_text("2 2\n1 nan\n0 1\n")
    code, out, err = run(capsys, "multiply", str(dec), str(fa), str(fb), "-o", str(tmp_path / "c.txt"))
    assert code == 2
    assert "non-finite" in err and out == ""


def test_multiply_negative_dimensions_exits_2(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    fa = tmp_path / "a.txt"
    fa.write_text("-2 -2\n1 0\n0 1\n")
    code, out, err = run(capsys, "multiply", str(dec), str(fa), str(fa), "-o", str(tmp_path / "c.txt"))
    assert code == 2
    assert "negative dimensions" in err and out == ""


@pytest.mark.parametrize(
    "a,b",
    [(np.ones((2, 3)), np.ones((2, 3))), (np.eye(2), np.eye(3))],
    ids=["non-square", "unequal-size"],
)
def test_multiply_shape_mismatch_exits_2(tmp_path, capsys, a, b):
    dec = gen_lattice(tmp_path, capsys)
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_matrix(a, fa)
    save_matrix(b, fb)
    code, out, err = run(capsys, "multiply", str(dec), str(fa), str(fb), "-o", str(tmp_path / "c.txt"))
    assert code == 2 and "square and of equal size" in err and out == ""


def test_multiply_unwritable_output_exits_2(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    fa = tmp_path / "a.txt"
    save_matrix(np.eye(2), fa)
    code, _, err = run(capsys, "multiply", str(dec), str(fa), str(fa), "-o", str(tmp_path / "missing" / "c.txt"))
    assert code == 2
    assert "cannot write matrix file" in err


def test_multiply_invalid_dec_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    run(capsys, "gen", "--n", "2", "--scheme", "strassen-theta", "--theta", "0.26", "-o", str(bad))
    fa = tmp_path / "a.txt"
    save_matrix(np.eye(2), fa)
    fc = tmp_path / "c.txt"
    code, _, err = run(capsys, "multiply", str(bad), str(fa), str(fa), "-o", str(fc))
    assert code == 1
    assert "warning" in err
    assert err.startswith("warning: decomposition residual ") and err.endswith(" exceeds tolerance\n")
    assert not fc.exists()


def test_multiply_checks_dec_before_reading_matrices(tmp_path, capsys):
    # an invalid decomposition is refused before A or B is read: a missing
    # A file does not turn the exit 1 into a read error
    bad = tmp_path / "bad.json"
    run(capsys, "gen", "--n", "2", "--scheme", "strassen-theta", "--theta", "0.3", "-o", str(bad))
    fb, fc = tmp_path / "b.txt", tmp_path / "c.txt"
    save_matrix(np.eye(2), fb)
    code, out, err = run(capsys, "multiply", str(bad), str(tmp_path / "missing.txt"), str(fb), "-o", str(fc))
    assert code == 1 and out == ""
    assert err.startswith("warning: decomposition residual ") and err.endswith(" exceeds tolerance\n")
    assert not fc.exists()


@pytest.mark.parametrize("command", ["verify", "analyze", "multiply"])
def test_rational_entry_beyond_float64_exits_2(tmp_path, capsys, command):
    # 10^400 has no float64 value: the file is refused, not called invalid
    q = ["1/1", "0/1", "0/1", "1/1"]
    path, fa = tmp_path / "huge.json", tmp_path / "a.txt"
    write_records(path, "rational", 2, [(["1" + "0" * 400 + "/1"] + q[1:], q, q)])
    save_matrix(np.eye(2), fa)
    extra = {"verify": (), "analyze": (), "multiply": (str(fa), str(fa), "-o", str(tmp_path / "c.txt"))}[command]
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2 and out == ""
    assert "outside float64's range" in err


@pytest.mark.parametrize("cutoff", [(), ("--cutoff", "1")])
def test_bench_n1_exits_2(tmp_path, capsys, cutoff):
    # the n = 1 lattice is valid, but its exponent estimate has no count at
    # cutoff 1 to take: refused at the default cutoff too, where nothing splits
    path = gen_lattice(tmp_path, capsys, 1)
    code, out, err = run(capsys, "bench", str(path), "--sizes", "2,3", *cutoff)
    assert (code, out, err) == (2, "", "error: benchmark needs n >= 2 for its exponent estimate, got n=1\n")


def test_multiply_n1_below_the_cutoff_is_the_plain_product(tmp_path, capsys, nprng):
    # at or below the cutoff nothing splits, so a 1x1 scheme multiplies any
    # size; above it there is nothing a 1x1 scheme can split into
    path = gen_lattice(tmp_path, capsys, 1)
    fa, fb, fc = (tmp_path / x for x in ("a.txt", "b.txt", "c.txt"))
    save_matrix(nprng.standard_normal((2, 2)), fa)
    save_matrix(nprng.standard_normal((2, 2)), fb)
    assert run(capsys, "multiply", str(path), str(fa), str(fb), "-o", str(fc)) == (0, f"wrote {fc}\n", "")
    assert np.array_equal(load_matrix(fc), load_matrix(fa) @ load_matrix(fb))
    fc.unlink()
    code, out, err = run(capsys, "multiply", str(path), str(fa), str(fb), "-o", str(fc), "--cutoff", "1")
    assert (code, out, err) == (2, "", "error: a 1x1 scheme cannot split a larger matrix\n")
    assert not fc.exists()
    code, out, err = run(capsys, "bench", str(path), "--sizes", "2")
    assert (code, out, err) == (2, "", "error: benchmark needs n >= 2 for its exponent estimate, got n=1\n")


@pytest.mark.parametrize("command,cutoff", [("multiply", "0"), ("bench", "-1")])
def test_cutoff_below_1_exits_2(tmp_path, capsys, command, cutoff):
    dec, fa, fc = gen_lattice(tmp_path, capsys), tmp_path / "a.txt", tmp_path / "C.txt"
    save_matrix(np.eye(4), fa)
    extra = (str(fa), str(fa), "-o", str(fc)) if command == "multiply" else ("--sizes", "4")
    code, out, err = run(capsys, command, str(dec), *extra, "--cutoff", cutoff)
    assert (code, out, err) == (2, "", "error: cutoff must be >= 1\n")
    assert not fc.exists()


def _unloadable(tmp_path, capsys, case):
    """A decomposition file that the loader cannot turn into factor stacks:
    a float64 file with the JSON integer 10^400, beyond float64's range, as
    an entry, or an array nested deeper than the JSON parser's recursion limit."""
    path = tmp_path / f"{case}.json"
    if case == "huge-int":
        run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(path))
        doc = json.loads(path.read_text())
        set_term_entry(doc, 1, "a", 0, 10**400)
        path.write_text(json.dumps(doc))
    else:
        path.write_text("[" * 100000)
    return path


@pytest.mark.parametrize("case, message", [("huge-int", "malformed"), ("deep", "cannot read")])
@pytest.mark.parametrize("command", ["verify", "analyze", "multiply", "bench"])
def test_unloadable_decomposition_file_exits_2(tmp_path, capsys, command, case, message):
    path, fa = _unloadable(tmp_path, capsys, case), tmp_path / "a.txt"
    save_matrix(np.eye(2), fa)
    extra = {
        "verify": (), "analyze": (), "bench": ("--sizes", "4"),
        "multiply": (str(fa), str(fa), "-o", str(tmp_path / "c.txt")),
    }[command]
    code, out, err = run(capsys, command, str(path), *extra)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message} decomposition file: ")


@pytest.mark.parametrize(
    "force,message",
    [(False, "required: --output/-o"), (True, "unrecognized arguments: --force")],
    ids=["no-output", "force"],
)
def test_multiply_refuses_no_output_and_force(tmp_path, capsys, force, message):
    # multiply writes its product only to the required -o file and has no --force
    dec = gen_lattice(tmp_path, capsys)
    fa, fc = tmp_path / "a.txt", tmp_path / "c.txt"
    save_matrix(np.eye(2), fa)
    extra = ["--force", "-o", str(fc)] if force else []
    with pytest.raises(SystemExit) as exc:
        main(["multiply", str(dec), str(fa), str(fa), *extra])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err
    assert not fc.exists()


def test_bench_json(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    code, out, _ = run(capsys, "bench", str(dec), "--sizes", "4,8", "--cutoff", "1", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["size"] for r in rows] == [4, 8]
    assert rows[1]["count_at_cutoff_1"] == 7**3
    assert all(
        list(r) == [
            "size", "recursive_time", "naive_time", "scalar_multiplications",
            "count_at_cutoff_1", "exponent_estimate", "max_error",
        ]
        for r in rows
    )


def _spilling_rank12():
    """The naive n=2 product plus the random pairs (a, b, c) and (a, b, -c):
    rank 12, whose children's stacks spill into the executor's workspace."""
    E = np.eye(4).reshape(4, 2, 2)
    i, j, k = np.indices((2, 2, 2)).reshape(3, -1)
    a, b, c = np.random.default_rng(0).standard_normal((3, 2, 2, 2))
    return Decomposition(
        np.concatenate([E[2 * i + j], a, a]), np.concatenate([E[2 * j + k], b, b]), np.concatenate([E[2 * k + i], c, -c])
    )


@pytest.mark.parametrize(
    "scheme, sizes",
    [("orbit", "2,16,24"), ("orbit", "64,100"), ("spill12", "40")],
    ids=["orbit-depths-0-1-2", "orbit-padded", "spill12"],
)
def test_bench_is_accurate_at_cutoff_8(tmp_path, capsys, scheme, sizes):
    # sizes 2, 16 and 24 run depths 0, 1 and 2, 100 is padded to 112, and
    # the rank-12 file, which verify accepts, spills at 40
    path = tmp_path / f"{scheme}.json"
    if scheme == "orbit":
        assert run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(path))[0] == 0
    else:
        save_decomposition(_spilling_rank12(), path)
        assert run(capsys, "verify", str(path))[0] == 0
    code, out, _ = run(capsys, "bench", str(path), "--sizes", sizes, "--cutoff", "8", "--json")
    rows = json.loads(out)
    assert code == 0 and [r["size"] for r in rows] == [int(x) for x in sizes.split(",")]
    assert all(r["max_error"] < 1e-9 for r in rows)


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def overflowing_lattice(tmp_path, capsys):
    """The n=2 lattice with two 1e200 entries: its dense tensor and its
    recursive products overflow to inf and NaN, which JSON cannot hold."""
    path = gen_lattice(tmp_path, capsys)
    dec = load_decomposition(path)
    dec.U[0, 0, 0] = dec.V[0, 0, 0] = 1e200
    save_decomposition(dec, path)
    return path


def test_verify_json_is_strict(tmp_path, capsys):
    # a non-finite figure prints as null; the keys stay as pinned
    path = overflowing_lattice(tmp_path, capsys)
    with np.errstate(all="ignore"):
        code, out, _ = run(capsys, "verify", str(path), "--json")
    doc = json.loads(out, parse_constant=_refuse_constant)
    assert code == 1 and list(doc) == ["mode", "residual", "valid", "invariants"]
    assert list(doc["invariants"]) == INVARIANT_KEYS
    assert doc["residual"] is None and doc["invariants"]["operator_trace"] is None


def test_bench_json_is_strict(tmp_path, capsys):
    # bench runs only files verify accepts: here the n=2 lattice plus the
    # pair (a, b, c), (a, b, -c) with a, b of 1e160 and c of 1e-320.  The
    # pair cancels in the dense tensor, built as (c a) b, but its leaf
    # products, a b, overflow, so the executor's results are inf and NaN
    path = gen_lattice(tmp_path, capsys)
    dec = load_decomposition(path)
    a, b, c = np.ones((3, 1, 2, 2)) * np.array([1e160, 1e160, 1e-320])[:, None, None, None]
    save_decomposition(
        Decomposition(np.concatenate([dec.U, a, a]), np.concatenate([dec.V, b, b]), np.concatenate([dec.W, c, -c])), path
    )
    assert run(capsys, "verify", str(path))[0] == 0
    with np.errstate(all="ignore"):
        code, out, _ = run(capsys, "bench", str(path), "--sizes", "4,8", "--cutoff", "1", "--json")
    rows = json.loads(out, parse_constant=_refuse_constant)
    assert code == 0 and [r["size"] for r in rows] == [4, 8]
    assert all(len(r) == 7 and r["max_error"] is None for r in rows)


def orbit_with_1e308(tmp_path, capsys):
    """The n=2 orbit file with one entry set to 1e308: invalid (residual
    1e308), and its dense tensor and products overflow."""
    path = tmp_path / "o1e308.json"
    assert run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(path))[0] == 0
    doc = json.loads(path.read_text())
    set_term_entry(doc, 0, "a", 0, 1e308)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", ["multiply", "bench"])
def test_bench_checks_the_file_as_multiply_does(tmp_path, capsys, command):
    path, fa, fc = orbit_with_1e308(tmp_path, capsys), tmp_path / "a.txt", tmp_path / "c.txt"
    save_matrix(np.eye(4), fa)
    extra = (str(fa), str(fa), "-o", str(fc)) if command == "multiply" else ("--sizes", "4", "--json")
    code, out, err = run(capsys, command, str(path), *extra, "--cutoff", "1")
    assert (code, out, err) == (1, "", "warning: decomposition residual 1.000e+308 exceeds tolerance\n")
    assert not fc.exists()


@pytest.mark.parametrize(
    "argv", [["verify"], ["verify", "--json"], ["bench", "--sizes", "4", "--cutoff", "1", "--json"], ["analyze"]]
)
def test_no_numpy_warning_beside_a_verdict(tmp_path, capsys, argv):
    # an overflow is reported in the verdict (an inf or NaN residual) or, by
    # analyze, in its tables; numpy warns of nothing, and stderr holds only
    # the command's own lines
    path = orbit_with_1e308(tmp_path, capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == (0 if argv[0] == "analyze" else 1)
    assert err == ("warning: decomposition residual 1.000e+308 exceeds tolerance\n" if argv[0] == "bench" else "")
    if argv[0] == "analyze":
        assert "c(    1,     1,     1) = inf" in out and "operator trace    : inf" in out
    else:
        assert argv[0] == "bench" or "valid (tol=1e-09): False" in out or '"valid": false' in out


@pytest.mark.parametrize("sizes", ["a", "4,", "0", "1", "4,-3"])
def test_bench_bad_sizes_exit_2(tmp_path, capsys, sizes):
    dec = gen_lattice(tmp_path, capsys)
    code, out, err = run(capsys, "bench", str(dec), "--sizes", sizes)
    assert code == 2 and "--sizes" in err and out == ""


def test_bench_refuses_rank_0(tmp_path, capsys):
    path = tmp_path / "r0.json"
    save_decomposition(Decomposition(*np.zeros((3, 0, 2, 2))), path)
    code, out, err = run(capsys, "bench", str(path), "--sizes", "4", "--cutoff", "1", "--json")
    assert code == 2 and "rank" in err and out == ""


def test_cli_paths_build_no_mm_tensor(tmp_path, capsys, monkeypatch):
    # MM_n is read through mm_support: no verify, analyze or multiply path
    # builds the dense mm_tensor
    lat = gen_lattice(tmp_path, capsys, 3)
    orbit, theta = tmp_path / "orb.json", tmp_path / "theta.json"
    run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(orbit))
    run(capsys, "gen", "--n", "2", "--scheme", "strassen-theta", "--theta", "0.26", "-o", str(theta))
    fa = tmp_path / "a.txt"
    save_matrix(np.arange(16.0).reshape(4, 4), fa)

    def refused(*args, **kwargs):
        raise AssertionError("mm_tensor called")

    bound = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "orbitmm" and hasattr(m, "mm_tensor")]
    assert orbitmm.tensor in bound
    for m in bound:
        monkeypatch.setattr(m, "mm_tensor", refused)
    assert run(capsys, "verify", str(lat))[0] == 0
    assert run(capsys, "verify", str(lat), "--mode", "exact-gram", "--json")[0] == 0
    assert run(capsys, "verify", str(theta))[0] == 1
    assert run(capsys, "analyze", str(orbit))[0] == 0
    assert run(capsys, "analyze", str(lat))[0] == 0
    assert run(capsys, "analyze", "strassen")[0] == 0
    fc = str(tmp_path / "c.txt")
    assert run(capsys, "multiply", str(orbit), str(fa), str(fa), "--cutoff", "1", "-o", fc)[0] == 0
    assert run(capsys, "multiply", str(theta), str(fa), str(fa), "-o", fc)[0] == 1


def test_internal_value_error_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    # only documented refusals exit 2; a ValueError from inside the program
    # is a fault and propagates with its traceback
    dec = gen_lattice(tmp_path, capsys)

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("orbitmm.cli.verify_float", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["verify", str(dec)])


def test_bench_table(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    code, out, _ = run(capsys, "bench", str(dec), "--sizes", "4")
    assert code == 0
    assert "size" in out


# Values that a JSON node of a decomposition file may be replaced with:
# JSON's other types, numbers float64 cannot hold or reads as NaN, and
# strings that float() or Fraction() read oddly or refuse.
FUZZ_POOL = [
    None, True, False, 0, -0.0, 1, -1, 2, 0.5, 1e308, 10**400, -(10**400), float("nan"), float("inf"),
    "nan", "-inf", "1e400", "1/0", "0/0", "1/3", "", " ", "1,2", "x", "0x1p3", "1_0", [], {}, [[]], ["1"], {"a": []},
]


def _fuzz_nodes(node, path=()):
    """Paths to a document's nodes: the root, every object member and the
    first two entries of every list."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node[:2]) if isinstance(node, list) else ()
    for key, child in items:
        yield from _fuzz_nodes(child, path + (key,))


def _v1_doc(doc: dict) -> dict:
    """A format_version 2 document spelled as version 1 wrote it: one
    {"a", "b", "c"} record of full rows per term, and no "rows"."""
    head = {k: v for k, v in doc.items() if k not in ("rows", "terms")}
    terms = [{s: doc["rows"][s][i] for s, i in zip("abc", t)} for t in doc["terms"]]
    return {**head, "format_version": 1, "terms": terms}


@pytest.mark.parametrize("command", ["verify", "analyze", "multiply", "bench"])
def test_format_version_1_file_exits_2(tmp_path, capsys, command):
    # the n = 2 lattice in the retired version 1 spelling; its version 2
    # spelling with identity triples runs
    records, fa = tmp_path / "records.json", tmp_path / "a.txt"
    doc = json.loads(gen_lattice(tmp_path, capsys).read_text())
    v1 = _v1_doc(doc)
    (tmp_path / "v1.json").write_text(json.dumps(v1))
    write_records(records, doc["scalar_kind"], 2, [[t[s] for s in "abc"] for t in v1["terms"]])
    save_matrix(np.eye(2), fa)
    extra = {"multiply": (str(fa), str(fa), "-o", str(tmp_path / "c.txt")), "bench": ("--sizes", "2")}.get(command, ())
    code, out, err = run(capsys, command, str(tmp_path / "v1.json"), *extra)
    assert (code, out) == (2, "")
    assert err == 'error: unsupported format_version 1: version 2 holds "rows" and [ia, ib, ic] triples\n'
    assert run(capsys, command, str(records), *extra)[0] == 0


@pytest.fixture(scope="module")
def fuzz_docs(tmp_path_factory):
    """The n = 2 orbit and lattice files that gen writes, the lattice with
    each entry rewritten as the exact "p/q" of its float64 value, and the
    lattice as a format_version 1 file, which is refused."""
    tmp = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for scheme in ("orbit", "lattice"):
        assert main(["gen", "--n", "2", "--scheme", scheme, "-o", str(tmp / f"{scheme}.json")]) == 0
        docs[scheme] = json.loads((tmp / f"{scheme}.json").read_text())
    rational = copy.deepcopy(docs["lattice"])
    rational["scalar_kind"] = "rational"
    for rows in rational["rows"].values():
        rows[:] = [[f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in row] for row in rows]
    docs["rational"] = rational
    docs["lattice-v1"] = _v1_doc(docs["lattice"])
    save_matrix(np.arange(4.0).reshape(2, 2), tmp / "a.txt")
    return tmp, docs


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(data=st.data())
def test_one_replaced_json_node_exits_0_1_or_2(fuzz_docs, data):
    # every command returns an exit code for any such file; an exception
    # that escapes cli.main is a loader or checker hole
    tmp, docs = fuzz_docs
    name = data.draw(st.sampled_from(sorted(docs)))
    path = data.draw(st.sampled_from(list(_fuzz_nodes(docs[name]))))
    value = data.draw(st.sampled_from(FUZZ_POOL))
    holder = [copy.deepcopy(docs[name])]  # the root is entry 0 of a list, so it can be replaced too
    *parents, last = (0, *path)
    functools.reduce(operator.getitem, parents, holder)[last] = value
    f, fa = tmp / "fuzz.json", str(tmp / "a.txt")
    f.write_text(json.dumps(holder[0]))
    commands = [
        ["verify", str(f)], ["verify", str(f), "--mode", "exact-gram"], ["analyze", str(f)],
        ["multiply", str(f), fa, fa, "--cutoff", "1", "-o", str(tmp / "c.txt")],
        ["bench", str(f), "--sizes", "4", "--cutoff", "1"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), np.errstate(all="ignore"):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's usage error
                code = e.code
        assert code in (0, 1, 2), (argv[0], path, value)
