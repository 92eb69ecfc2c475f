import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from orbitmm.constructions import compose
from orbitmm.frames import (
    FIXTURE_NAMES,
    fixture_frame,
    lift_permutation,
    simplex_frame,
)
from orbitmm.tensor import RefusedInput

SQ3 = math.sqrt(3)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8])
def test_simplex_frame_gram(n):
    f = simplex_frame(n)
    assert f.vectors.shape == (n + 1, n)
    g_float = f.vectors @ f.vectors.T
    for i in range(n + 1):
        for j in range(n + 1):
            expected = Fraction(1) if i == j else Fraction(-1, n)
            assert f.gram[i, j] == expected
            assert abs(g_float[i, j] - float(expected)) < 1e-12


def test_simplex_frame_sums_to_zero():
    f = simplex_frame(4)
    assert np.abs(f.vectors.sum(axis=0)).max() < 1e-12


def test_triangle_fixture_matches_generic_gram():
    fix = fixture_frame("triangle-2")
    gen = simplex_frame(2)
    assert np.array_equal(fix.gram, gen.gram)


def test_tetrahedron_fixture_coordinates():
    f = fixture_frame("tetrahedron-3")
    assert np.allclose(f.vectors[0], np.array([-1.0, 1.0, 1.0]) / SQ3)
    for v in f.vectors:
        assert abs(v @ v - 1.0) < 1e-12
    for i in range(4):
        for j in range(4):
            if i != j:
                assert abs(f.vectors[i] @ f.vectors[j] + 1 / 3) < 1e-12


def test_simplex4_fixture():
    f = fixture_frame("simplex-4")
    assert np.allclose(f.vectors[0], np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2))
    g = f.vectors @ f.vectors.T
    assert np.abs(g - (1.25 * np.eye(5) - 0.25)).max() < 1e-12


def test_unknown_fixture():
    with pytest.raises(ValueError):
        fixture_frame("hexagon-7")
    # every frame is a simplex frame: the n=5 S5 data is a seed pair, not a frame
    with pytest.raises(RefusedInput, match="unknown fixture"):
        fixture_frame("s5-pair-5")
    assert FIXTURE_NAMES == ("triangle-2", "tetrahedron-3", "simplex-4")


@pytest.mark.parametrize(
    "frame",
    [simplex_frame(n) for n in range(1, 9)] + [fixture_frame(name) for name in FIXTURE_NAMES],
    ids=lambda f: f.label,
)
def test_tight_frame_identities(frame):
    # sum_i w_i = 0, (n/(n+1)) sum_i |w_i><w_i| = 1, and exact Gram rows summing to 0
    n, w = frame.n, frame.vectors
    assert np.abs(w.sum(axis=0)).max() < 1e-12
    assert np.abs(n / (n + 1) * (w.T @ w) - np.eye(n)).max() < 1e-12
    assert all(sum(row) == 0 for row in frame.gram)


def test_lift_identity():
    f = simplex_frame(3)
    rho = lift_permutation(f, (0, 1, 2, 3))
    assert np.abs(rho - np.eye(3)).max() < 1e-12


def test_lift_triangle_three_cycle():
    f = fixture_frame("triangle-2")
    sigma = lift_permutation(f, (1, 2, 0))
    expected = np.array([[-0.5, -SQ3 / 2], [SQ3 / 2, -0.5]])
    assert np.abs(sigma - expected).max() < 1e-12


def test_lift_triangle_transposition():
    f = fixture_frame("triangle-2")
    phi = lift_permutation(f, (0, 2, 1))
    assert np.abs(phi - np.array([[1.0, 0.0], [0.0, -1.0]])).max() < 1e-12


def test_lift_tetrahedron_signed_permutations():
    f = fixture_frame("tetrahedron-3")
    goldens = {
        (1, 0, 2, 3): np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]]),
        (0, 2, 1, 3): np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0.0]]),
        (0, 1, 3, 2): np.array([[0, -1, 0], [-1, 0, 0], [0, 0, 1.0]]),
        (1, 2, 0, 3): np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0.0]]),
    }
    for perm, expected in goldens.items():
        assert np.abs(lift_permutation(f, perm) - expected).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lift_is_homomorphism_and_orthogonal(n):
    f = simplex_frame(n)
    rng = random.Random(7 + n)
    perms = list(permutations(range(n + 1)))
    for _ in range(50):
        g, h = rng.choice(perms), rng.choice(perms)
        lg, lh = lift_permutation(f, g), lift_permutation(f, h)
        assert np.abs(lift_permutation(f, compose(g, h)) - lg @ lh).max() < 1e-9
        assert np.abs(lg.T @ lg - np.eye(n)).max() < 1e-10


def test_lift_maps_vectors(nprng):
    f = simplex_frame(4)
    perm = (2, 0, 4, 1, 3)
    rho = lift_permutation(f, perm)
    for i in range(5):
        assert np.abs(rho @ f.vectors[i] - f.vectors[perm[i]]).max() < 1e-10


def test_lift_rejects_non_bijection():
    with pytest.raises(ValueError):
        lift_permutation(simplex_frame(2), (0, 0, 1))
