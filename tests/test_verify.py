import math
from dataclasses import replace
from fractions import Fraction

import pytest

from orbitmm.constructions import lattice_decomposition, strassen_theta
from orbitmm.frames import corrupt, simplex_frame
from orbitmm.tensor import Decomposition
from orbitmm.verify import invariants_report, verify_exact_gram, verify_float

DELETED_TERM_RESIDUAL = 0.8660254037844382  # sqrt(3)/2, pinned
PERTURBED_GRAM_VALUE = Fraction(10370589409215729, 256000000000000000)


def perturbed_gram_frame():
    frame = simplex_frame(3)
    g = frame.gram.copy()
    g[0, 1] = Fraction(-1, 3) + Fraction(1, 1000)
    g[1, 0] = g[0, 1]
    return replace(frame, gram=g, label="perturbed")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_float_lattice(n):
    rep = verify_float(lattice_decomposition(simplex_frame(n)))
    assert rep.valid
    assert rep.max_residual < 1e-12
    assert abs(rep.operator_trace - n) < 1e-9
    assert abs(rep.frobenius_sq - n**3) < 1e-8


def test_verify_float_reports_failure():
    dec = lattice_decomposition(simplex_frame(2))
    broken = Decomposition(dec.U[:-1], dec.V[:-1], dec.W[:-1], scheme="broken")
    rep = verify_float(broken)
    assert not rep.valid
    assert abs(rep.max_residual - DELETED_TERM_RESIDUAL) < 1e-12


def test_verify_float_strassen_angles():
    assert verify_float(strassen_theta(math.pi / 6)).valid
    assert not verify_float(strassen_theta(math.pi / 12)).valid


def test_verify_float_tolerance_knob():
    dec = lattice_decomposition(simplex_frame(3))
    assert verify_float(dec, tol=1e-13).valid
    assert not verify_float(dec, tol=1e-17).valid


def test_verify_report_lines():
    rep = verify_float(lattice_decomposition(simplex_frame(2)))
    text = "\n".join(rep.lines())
    assert "rank" in text and "7" in text and "True" in text


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_gram_is_zero(n):
    assert verify_exact_gram(simplex_frame(n)) == 0


def test_exact_gram_returns_fraction():
    assert isinstance(verify_exact_gram(simplex_frame(2)), Fraction)


def test_exact_gram_detects_perturbation():
    val = verify_exact_gram(perturbed_gram_frame())
    assert val > 0
    assert val == PERTURBED_GRAM_VALUE


@pytest.mark.parametrize("num,den", [(1, 7), (-1, 100), (3, 1000)])
def test_exact_gram_nonzero_under_perturbation(num, den):
    # a perturbed gram need not be realizable by vectors, so the rational
    # value can drop below zero; it just must move off zero
    frame = simplex_frame(4)
    g = frame.gram.copy()
    g[2, 3] += Fraction(num, den)
    g[3, 2] = g[2, 3]
    assert verify_exact_gram(replace(frame, gram=g)) != 0


def test_exact_gram_rejects_pair_frame():
    from orbitmm.frames import fixture_frame

    with pytest.raises(ValueError):
        verify_exact_gram(fixture_frame("s5-pair-5"))


@pytest.mark.parametrize("n", range(2, 7))
def test_verifiers_agree(n):
    frame = simplex_frame(n)
    assert verify_exact_gram(frame) == 0
    assert verify_float(lattice_decomposition(frame)).valid


def test_verifiers_agree_on_corrupted_frame():
    # rescale one vector and patch the gram to match: both checkers see it
    bad = corrupt(simplex_frame(3), index=0, scale=1.01)
    g = bad.gram.copy()
    s = Fraction(101, 100)
    g[0, 0] *= s * s
    for j in range(1, 4):
        g[0, j] *= s
        g[j, 0] *= s
    bad = replace(bad, gram=g)
    exact = verify_exact_gram(bad)
    rep = verify_float(lattice_decomposition(bad), tol=1e-9)
    assert exact > 0 and not rep.valid
    # float |D - MM|^2 should approximate the exact rational value
    inv = invariants_report(lattice_decomposition(bad))
    resid_sq = inv.frobenius_sq - 2 * inv.inner_with_mm + 27
    assert abs(resid_sq - float(exact)) < 1e-6


def test_invariants_report_lattice():
    rep = invariants_report(lattice_decomposition(simplex_frame(3)))
    assert rep.rank == 25
    assert abs(rep.operator_trace - 3) < 1e-9
    assert abs(rep.frobenius_sq - 27) < 1e-8
    assert abs(rep.inner_with_mm - 27) < 1e-8
    assert all(r == (1, 1, 1) for r in rep.factor_ranks[1:])
    assert rep.factor_ranks[0] == (3, 3, 3)  # identity term leads


def test_invariants_report_lines():
    rep = invariants_report(lattice_decomposition(simplex_frame(2)))
    text = "\n".join(rep.lines())
    assert "expect n^3 = 8" in text
