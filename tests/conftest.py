import random
from fractions import Fraction

import numpy as np
import pytest


def random_exact_matrix(rng: random.Random, n: int, span: int = 6) -> np.ndarray:
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = Fraction(rng.randint(-span, span), rng.randint(1, span))
    return out


def outer3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dense tensor of one separable term, T[a,b,c,d,e,f] = a[a,d] b[b,e] c[c,f],
    by outer products: a reference independent of tensor_of."""
    # outer products give axis order (a,d,b,e,c,f); permute to (a,b,c,d,e,f)
    return np.multiply.outer(np.multiply.outer(a, b), c).transpose(0, 2, 4, 1, 3, 5)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240817)
