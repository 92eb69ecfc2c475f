import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from orbitmm.constructions import lattice_decomposition, orbit_decomposition, orbit_spec_for
from orbitmm.frames import simplex_frame
from orbitmm.tensor import (
    MAX_DENSE_BYTES,
    Decomposition,
    Rank1Term,
    exact_matrix,
    frobenius_inner,
    is_exact,
    mm_tensor,
    operator_trace,
    tensor_of,
)

from conftest import outer3, random_exact_matrix


def test_mm_tensor_n1():
    T = mm_tensor(1)
    assert T.shape == (1,) * 6
    assert T[0, 0, 0, 0, 0, 0] == 1.0


def test_mm_tensor_rejects_n0():
    with pytest.raises(ValueError):
        mm_tensor(0)


def test_mm_tensor_n2_entries():
    T = mm_tensor(2)
    assert T[0, 0, 0, 0, 0, 0] == 1.0
    assert T[0, 1, 0, 0, 0, 0] == 0.0


def test_mm_tensor_n3_nonzero_count():
    T = mm_tensor(3)
    assert np.count_nonzero(T) == 27
    assert set(np.unique(T)) == {0.0, 1.0}


@pytest.mark.parametrize("n", range(1, 9))
def test_mm_invariants_exact(n):
    T = mm_tensor(n, exact=True)
    assert operator_trace(T) == n
    assert frobenius_inner(T, T) == n**3
    assert sum(1 for idx in product(range(n), repeat=6) if T[idx] != 0) == n**3


def _pairing(A, B, C):
    """<MM, A (x) B (x) C> through the dense tensors."""
    return frobenius_inner(mm_tensor(len(A), exact=is_exact(A)), outer3(A, B, C))


def test_triple_trace_identity():
    eye = np.eye(2)
    assert _pairing(eye, eye, eye) == pytest.approx(2.0)


def test_triple_trace_pi_pi_one():
    pi = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert _pairing(pi, pi, np.eye(2)) == pytest.approx(-2.0)


def test_triple_trace_beta_x_cubed():
    bx = np.diag([1.0, -0.5, -0.5])
    assert _pairing(bx, bx, bx) == pytest.approx(0.75)


def test_triple_trace_cyclic_exact(rng):
    # MM is invariant under the cyclic shift of its three slots
    for _ in range(30):
        n = rng.randint(1, 4)
        A, B, C = (random_exact_matrix(rng, n) for _ in range(3))
        assert _pairing(A, B, C) == _pairing(B, C, A)


def test_pairing_matches_triple_trace_exact(rng):
    # <MM, A(x)B(x)C> via the dense tensors equals tr ABC, exactly
    for _ in range(100):
        n = rng.randint(1, 3)
        A, B, C = (random_exact_matrix(rng, n) for _ in range(3))
        assert _pairing(A, B, C) == np.trace(A.dot(B).dot(C))


def _exact_stack(rng, n, rank):
    return np.array([random_exact_matrix(rng, n) for _ in range(rank)], dtype=object).reshape(rank, n, n)


def test_tensor_of_empty():
    dec = Decomposition(*np.zeros((3, 0, 2, 2)))
    T = tensor_of(dec)
    assert T.shape == (2,) * 6 and T.dtype == np.float64
    assert np.all(T == 0.0)


def test_tensor_of_identity_term():
    eye = np.eye(2)[None]
    dec = Decomposition(eye, eye, eye)
    T = tensor_of(dec)
    for idx in product(range(2), repeat=6):
        a, b, c, d, e, f = idx
        expected = 1.0 if (a == d and b == e and c == f) else 0.0
        assert T[idx] == expected


def test_tensor_of_linearity(rng):
    U, V, W = (_exact_stack(rng, 2, 4) for _ in range(3))
    whole = tensor_of(Decomposition(U, V, W))
    parts = tensor_of(Decomposition(U[:2], V[:2], W[:2])) + tensor_of(Decomposition(U[2:], V[2:], W[2:]))
    assert np.array_equal(whole, parts)


def _reference_tensor_of(dec):
    """The per-term sum tensor_of replaced: one dense rank-1 tensor per term."""
    n = dec.n
    if dec.exact:
        T = np.full((n,) * 6, Fraction(0), dtype=object)
    else:
        T = np.zeros((n,) * 6)
    for t in dec.terms:
        T = T + outer3(t.a, t.b, t.c)
    return T


def _random_exact_dec(rng, n, rank):
    return Decomposition(*(_exact_stack(rng, n, rank) for _ in range(3)))


@pytest.mark.parametrize(
    "dec",
    [
        orbit_decomposition(orbit_spec_for(2)),
        orbit_decomposition(orbit_spec_for(4)),
        lattice_decomposition(simplex_frame(3)),  # rank 25, not a multiple of the chunk of 9
        lattice_decomposition(simplex_frame(5)),
    ],
    ids=["orbit2", "orbit4", "lattice3", "lattice5"],
)
@pytest.mark.parametrize("include_identity", [True, False])
def test_tensor_of_matches_reference_float(dec, include_identity):
    # without its leading identity term the rank drops by one, which moves
    # the chunk boundaries of n^2 terms
    if not include_identity:
        dec = Decomposition(dec.U[1:], dec.V[1:], dec.W[1:])
    got = tensor_of(dec)
    want = _reference_tensor_of(dec)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n, rank", [(1, 3), (2, 4), (2, 9), (3, 11)])
def test_tensor_of_matches_reference_exact(rng, n, rank):
    dec = _random_exact_dec(rng, n, rank)
    got = tensor_of(dec)
    assert got.dtype == object
    assert np.array_equal(got, _reference_tensor_of(dec))


def test_tensor_of_lattice12():
    dec = lattice_decomposition(simplex_frame(12))
    assert dec.rank == 1717
    assert np.abs(tensor_of(dec) - mm_tensor(12)).max() < 1e-9
    # the per-term reference costs ~20 ms a term here: take one chunk of
    # 144 terms and two more, so the sum crosses a chunk boundary
    head = Decomposition(dec.U[:146], dec.V[:146], dec.W[:146])
    assert np.abs(tensor_of(head) - _reference_tensor_of(head)).max() <= 1e-12


def test_dense_size_guard():
    n = 23  # 8 * 23^6 bytes is just above the limit; n = 22 is just below
    assert 8 * 22**6 <= MAX_DENSE_BYTES < 8 * n**6
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n={n} needs {8 * n**6} bytes"):
            tensor_of(Decomposition(*np.zeros((3, 0, n, n))))
        with pytest.raises(ValueError, match=f"n={n}"):
            mm_tensor(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any n^6 allocation


def test_frobenius_inner_examples():
    assert frobenius_inner(mm_tensor(2), mm_tensor(2)) == pytest.approx(8.0)
    assert frobenius_inner(mm_tensor(3), mm_tensor(3)) == pytest.approx(27.0)
    assert frobenius_inner(np.zeros((2,) * 6), mm_tensor(2)) == 0.0


def test_frobenius_inner_mismatch():
    with pytest.raises(ValueError):
        frobenius_inner(mm_tensor(2), mm_tensor(3))


def test_operator_trace_identity_cube():
    eye3 = exact_matrix(np.eye(3, dtype=int).tolist())[None]
    T = tensor_of(Decomposition(eye3, eye3, eye3))
    assert operator_trace(T) == 27


def test_decomposition_rejects_mismatched_term():
    # factors that are not square, or stacks that are not (rank, n, n)
    with pytest.raises(ValueError, match="rank, n, n"):
        Decomposition(*np.zeros((3, 1, 2, 3)))
    eye = np.eye(2)
    with pytest.raises(ValueError, match="rank, n, n"):
        Decomposition(eye, eye, eye)


def test_decomposition_rejects_mixed_scalar_kinds():
    exact, flt = exact_matrix([[1, 0], [0, 1]])[None], np.eye(2)[None]
    with pytest.raises(ValueError, match="mixes"):
        Decomposition(exact, flt, exact)
    with pytest.raises(ValueError, match="mixes"):
        Decomposition(flt, flt, exact)


def test_decomposition_rejects_unequal_stacks():
    with pytest.raises(ValueError, match="rank, n, n"):
        Decomposition(np.eye(2)[None], np.eye(3)[None], np.eye(2)[None])
    with pytest.raises(ValueError, match="rank, n, n"):
        Decomposition(np.zeros((2, 2, 2)), np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))


def test_decomposition_reads_shape_and_kind_from_stacks(rng):
    dec = lattice_decomposition(simplex_frame(3))
    assert (dec.n, dec.rank, dec.exact) == (3, 25, False)
    exact = _random_exact_dec(rng, 2, 3)
    assert (exact.n, exact.rank, exact.exact) == (2, 3, True)


def test_terms_are_views_of_the_stacks():
    dec = orbit_decomposition(orbit_spec_for(2))
    terms = dec.terms
    assert len(terms) == dec.rank and all(isinstance(t, Rank1Term) for t in terms)
    for r, t in enumerate(terms):
        for m, X in zip(t, (dec.U, dec.V, dec.W)):
            assert np.shares_memory(m, X) and np.array_equal(m, X[r])


def test_to_float(rng):
    dec = lattice_decomposition(simplex_frame(2))
    assert dec.to_float() is dec
    exact = _random_exact_dec(rng, 2, 3)
    flt = exact.to_float()
    assert not flt.exact and (flt.scheme, flt.params) == (exact.scheme, exact.params)
    for X, Y in zip((flt.U, flt.V, flt.W), (exact.U, exact.V, exact.W)):
        assert X.dtype == np.float64 and np.array_equal(X, Y.astype(np.float64))


def test_exact_matrix_values():
    m = exact_matrix([[1, "1/2"], [0, -2]])
    assert m[0, 1] == Fraction(1, 2)
    assert m[1, 1] == Fraction(-2)
