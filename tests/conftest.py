import json
import random
from fractions import Fraction
from itertools import permutations

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


def write_records(path, kind: str, n: int, records, **head) -> None:
    """Write one (a, b, c) record of factor rows per term as the format_version
    2 file a hand would write: each side's rows in term order, and term t's
    index triple [t, t, t].  `head` adds fields such as scheme and params."""
    rows = {s: [record[k] for record in records] for k, s in enumerate("abc")}
    doc = {"format_version": 2, "n": n, **head, "scalar_kind": kind, "rows": rows, "terms": [[t] * 3 for t in range(len(records))]}
    path.write_text(json.dumps(doc))


def integer_lattice(n: int) -> np.ndarray:
    """The paper's lattice in its integer frame basis, as int64 stacks
    (3, n^3 - n + 1, n, n): with x = (e_1, ..., e_n, -sum e) and
    e' = (e_1, ..., e_n, 0), the identity term, then for each ordered triple
    (i, j, k) of distinct indices of x, in permutations order,
    x_i (e'_j - e'_i)^T (x) x_j (e'_k - e'_j)^T (x) x_k (e'_i - e'_k)^T."""
    eye = np.eye(n, dtype=np.int64)
    x, e = np.vstack([eye, -eye.sum(0)]), np.vstack([eye, np.zeros(n, np.int64)])
    i, j, k = np.array(list(permutations(range(n + 1), 3)), dtype=np.intp).reshape(-1, 3).T
    dyads = [x[p][:, :, None] * (e[q] - e[p])[:, None, :] for p, q in ((i, j), (j, k), (k, i))]
    return np.stack([np.concatenate([eye[None], d]) for d in dyads])
