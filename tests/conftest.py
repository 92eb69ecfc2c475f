import random
from fractions import Fraction

import numpy as np
import pytest


def exact_matrix(rows) -> np.ndarray:
    """An object-dtype matrix of Fractions from nested ints, Fractions or strings."""
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


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


def set_term_entry(doc: dict, term: int, side: str, k: int, value) -> None:
    """Set entry k of one term's `side` factor in a format_version 2 document:
    the edited row is appended to the side's rows and the term repointed to
    it, so exactly one term changes, whatever other terms share its row."""
    rows, col = doc["rows"][side], "abc".index(side)
    row = list(rows[doc["terms"][term][col]])
    row[k] = value
    rows.append(row)
    doc["terms"][term][col] = len(rows) - 1


def v1_doc(doc: dict) -> dict:
    """The format_version 1 document of a version 2 one, in the version 1
    writer's field order: one {"a", "b", "c"} record of full rows per term."""
    rows = doc["rows"]
    head = {k: v for k, v in doc.items() if k not in ("rows", "terms")}
    return {**head, "format_version": 1, "terms": [{s: rows[s][i] for s, i in zip("abc", t)} for t in doc["terms"]]}
