import json

import numpy as np
import pytest

from orbitmm.cli import main
from orbitmm.serialize import load_decomposition, load_matrix, save_matrix


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


def test_gen_scheme_dimension_mismatch_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "gen", "--n", "2", "--scheme", "s4-family", "-o", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "error" in err


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


def test_verify_exact_gram_rejects_nonlattice(tmp_path, capsys):
    path = tmp_path / "orb.json"
    run(capsys, "gen", "--n", "2", "--scheme", "orbit", "-o", str(path))
    code, _, err = run(capsys, "verify", str(path), "--mode", "exact-gram")
    assert code == 2


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
    doc["terms"][1]["b"][3] = "inf"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "non-finite" in err


def test_verify_oversized_n_exits_2(tmp_path, capsys):
    # one term at n = 40: its dense tensor would need 8 * 40^6 bytes (about 33 GB)
    n = 40
    eye = ["1" if i == j else "0" for i in range(n) for j in range(n)]
    doc = {
        "format_version": 1,
        "n": n,
        "scheme": "imported",
        "params": {},
        "scalar_kind": "float64",
        "terms": [{"a": eye, "b": eye, "c": eye}],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
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
    dec = gen_lattice(tmp_path, capsys)
    A = nprng.standard_normal((6, 6))
    B = nprng.standard_normal((6, 6))
    fa, fb, fc = (tmp_path / x for x in ("a.txt", "b.txt", "c.txt"))
    save_matrix(A, fa)
    save_matrix(B, fb)
    code, _, _ = run(capsys, "multiply", str(dec), str(fa), str(fb), "--cutoff", "1", "-o", str(fc))
    assert code == 0
    assert np.abs(load_matrix(fc) - A @ B).max() < 1e-9


def test_multiply_stdout(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    save_matrix(np.array([[1.0, 2], [3, 4]]), fa)
    save_matrix(np.array([[5.0, 6], [7, 8]]), fb)
    code, out, _ = run(capsys, "multiply", str(dec), str(fa), str(fb))
    assert code == 0
    assert "19" in out and "50" in out
    # one format(x, ".12g") per entry
    save_matrix(np.array([[1 / 3, -1e-300], [1e300, 5e-324]]), fa)
    save_matrix(np.eye(2), fb)
    code, out, _ = run(capsys, "multiply", str(dec), str(fa), str(fb), "--cutoff", "2")
    assert code == 0
    assert out == "0.333333333333 -1e-300\n1e+300 4.94065645841e-324\n"


def test_multiply_non_finite_matrix_exits_2(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    save_matrix(np.eye(2), fa)
    fb.write_text("2 2\n1 nan\n0 1\n")
    code, out, err = run(capsys, "multiply", str(dec), str(fa), str(fb))
    assert code == 2
    assert "non-finite" in err and out == ""


def test_multiply_negative_dimensions_exits_2(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    fa = tmp_path / "a.txt"
    fa.write_text("-2 -2\n1 0\n0 1\n")
    code, out, err = run(capsys, "multiply", str(dec), str(fa), str(fa))
    assert code == 2
    assert "negative dimensions" in err and out == ""


def test_multiply_unwritable_output_exits_2(tmp_path, capsys):
    dec = gen_lattice(tmp_path, capsys)
    fa = tmp_path / "a.txt"
    save_matrix(np.eye(2), fa)
    code, _, err = run(capsys, "multiply", str(dec), str(fa), str(fa), "-o", str(tmp_path / "missing" / "c.txt"))
    assert code == 2
    assert "cannot write matrix file" in err


def test_multiply_invalid_dec_refused_without_force(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    run(capsys, "gen", "--n", "2", "--scheme", "strassen-theta", "--theta", "0.26", "-o", str(bad))
    fa = tmp_path / "a.txt"
    save_matrix(np.eye(2), fa)
    code, _, err = run(capsys, "multiply", str(bad), str(fa), str(fa))
    assert code == 1
    assert "warning" in err
    code, _, _ = run(capsys, "multiply", str(bad), str(fa), str(fa), "--force")
    assert code == 0


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


@pytest.mark.parametrize("sizes", ["a", "4,", "0", "1", "4,-3"])
def test_bench_bad_sizes_exit_2(tmp_path, capsys, sizes):
    dec = gen_lattice(tmp_path, capsys)
    code, out, err = run(capsys, "bench", str(dec), "--sizes", sizes)
    assert code == 2 and "--sizes" in err and out == ""


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
