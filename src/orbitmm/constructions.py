"""Builders for the decomposition families.

Every builder returns a Decomposition of exactly n^3 - n + 1 terms: the
identity term 1 (x) 1 (x) 1 first, then either the lattice triple sum or a
group orbit.  Enumeration orders are lexicographic throughout (permutations
and index triples), so term lists are reproducible byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations, permutations

import numpy as np

from .constraints import z_from_y
from .frames import Frame, fixture_frame, lift_permutation
from .tensor import Decomposition, RefusedInput

__all__ = [
    "OrbitSpec",
    "symmetric_group",
    "alternating_group",
    "standard_sigma_perm",
    "lattice_decomposition",
    "orbit_decomposition",
    "orbit_spec_for",
    "strassen_theta_spec",
    "strassen_theta",
    "strassen_theta_sixths_spec",
    "strassen_theta_sixths",
    "s4_family_spec",
    "S5Fixture",
    "s5_fixture",
]


def symmetric_group(k: int) -> tuple:
    """All permutations of 0..k-1 in lexicographic order, as image tuples."""
    return tuple(permutations(range(k)))


def alternating_group(k: int) -> tuple:
    """The even permutations of 0..k-1 (an even number of inversions), in
    lexicographic order."""
    return tuple(p for p in permutations(range(k)) if sum(a > b for a, b in combinations(p, 2)) % 2 == 0)


def compose(p, q) -> tuple:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


SQ2, SQ3 = math.sqrt(2), math.sqrt(3)

# The standard orbit, for n = 2, 3, 4 only: its fixture frame and its group
# of order n^3 - n acting 3-transitively on the n+1 frame indices; its seed
# is the lattice's first factor (see orbit_spec_for).
_STANDARD_ORBITS = {
    2: ("triangle-2", symmetric_group(3)),
    3: ("tetrahedron-3", symmetric_group(4)),
    4: ("simplex-4", alternating_group(5)),
}


def standard_sigma_perm(k: int) -> tuple:
    """The 3-cycle sending w1 -> w2 -> w3 -> w1 on k frame indices."""
    return (1, 2, 0) + tuple(range(3, k))


@dataclass(frozen=True)
class OrbitSpec:
    """Data for one group-orbit decomposition: a frame, a permutation group of
    its indices with |G| = n^3 - n, the order-3 cycle defining the slot orbit,
    the seed vectors u, v of the rank-1 matrix m = |u><v|, and the scheme
    and parameters that the decomposition records beside the frame label."""

    frame: Frame
    group: tuple
    sigma_perm: tuple
    u: np.ndarray
    v: np.ndarray
    scheme: str = "orbit"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.frame.n
        if len(self.group) != n**3 - n:
            raise ValueError(f"group size {len(self.group)} != n^3-n = {n**3 - n}")
        ident = tuple(range(self.frame.size))
        if compose(self.sigma_perm, compose(self.sigma_perm, self.sigma_perm)) != ident:
            raise ValueError("sigma_perm must have order dividing 3")


def _with_identity(stacks, scheme: str, params: dict) -> Decomposition:
    """The decomposition 1 (x) 1 (x) 1 followed by the terms of the stacks."""
    eye = np.eye(stacks[0].shape[1])[None]
    U, V, W = (np.concatenate([eye, X]) for X in stacks)
    return Decomposition(U, V, W, scheme, params)


def lattice_decomposition(frame: Frame) -> Decomposition:
    """The triple-sum construction over a simplex frame.

    1 (x) 1 (x) 1 plus, for every ordered triple (i, j, k) of distinct frame
    indices, c|w_i><w_j - w_i| (x) c|w_j><w_k - w_j| (x) c|w_k><w_i - w_k|
    with c = n/(n+1) (the global c^3 split one factor per slot).
    """
    n = frame.n
    w = frame.vectors
    c = n / (n + 1)
    i, j, k = np.array(list(permutations(range(frame.size), 3)), dtype=int).reshape(-1, 3).T

    def dyads(x, y):  # c |w_x><w_y - w_x| for each pair of index arrays
        return c * (w[x][:, :, None] * (w[y] - w[x])[:, None, :])

    return _with_identity((dyads(i, j), dyads(j, k), dyads(k, i)), "lattice", {"frame": frame.label})


def orbit_decomposition(spec: OrbitSpec) -> Decomposition:
    """1 (x) 1 (x) 1 plus the orbit of m1 (x) m2 (x) m3 under diagonal
    conjugation by the group, where m1 = u v^T and m2, m3 are its conjugates
    by the lifted order-3 element."""
    frame = spec.frame
    sigma = lift_permutation(frame, spec.sigma_perm)
    m1 = np.outer(spec.u, spec.v)
    m2 = sigma @ m1 @ sigma.T
    m3 = sigma @ m2 @ sigma.T
    rho = np.array([lift_permutation(frame, g) for g in spec.group])
    rho_t = rho.transpose(0, 2, 1)
    params = {"frame": frame.label, **spec.params}
    return _with_identity([rho @ m @ rho_t for m in (m1, m2, m3)], spec.scheme, params)


def orbit_spec_for(n: int) -> OrbitSpec:
    """The standard orbit construction for n in {2, 3, 4}, on the explicit
    coordinate fixture for that n.  Its seed is the lattice's first factor
    c|w1><w2 - w1|: u = w1 and v = c (w2 - w1), with c = n/(n+1)."""
    if n not in _STANDARD_ORBITS:
        raise RefusedInput(f"the standard orbit exists for n in {tuple(_STANDARD_ORBITS)}, not for n={n}")
    fixture, group = _STANDARD_ORBITS[n]
    frame = fixture_frame(fixture)
    w = frame.vectors
    return OrbitSpec(frame, group, standard_sigma_perm(frame.size), w[0], n / (n + 1) * (w[1] - w[0]))


# Exact values of cos(k*pi/6) for k = 0..11; avoids pi rounding in goldens.
_COS_SIXTHS = [1.0, SQ3 / 2, 0.5, 0.0, -0.5, -SQ3 / 2, -1.0, -SQ3 / 2, -0.5, 0.0, 0.5, SQ3 / 2]


def strassen_theta_spec(theta: float) -> OrbitSpec:
    """The one-parameter n=2 family: u = (cos t, sin t), v = (2/3)(sigma u - u),
    orbit over S3 on the triangle frame.  Valid iff sin 6t = 0."""
    return _strassen_spec(np.array([math.cos(theta), math.sin(theta)]), {"theta": theta})


def strassen_theta(theta: float) -> Decomposition:
    """The decomposition of strassen_theta_spec(theta)."""
    return orbit_decomposition(strassen_theta_spec(theta))


def strassen_theta_sixths_spec(k: int) -> OrbitSpec:
    """strassen_theta_spec at theta = k*pi/6, built from exact trig values."""
    return _strassen_spec(np.array([_COS_SIXTHS[k % 12], _COS_SIXTHS[(k - 3) % 12]]), {"theta_sixths": k})


def strassen_theta_sixths(k: int) -> Decomposition:
    """The decomposition of strassen_theta_sixths_spec(k)."""
    return orbit_decomposition(strassen_theta_sixths_spec(k))


def _strassen_spec(u: np.ndarray, params: dict) -> OrbitSpec:
    base = orbit_spec_for(2)
    v = z_from_y(u, lift_permutation(base.frame, base.sigma_perm))
    return replace(base, u=u, v=v, scheme="strassen-theta", params=params)


def _y_of(theta: float) -> np.ndarray:
    return -math.sqrt(2.0 / 3.0) * np.array(
        [
            math.cos(theta),
            math.cos(theta - 2 * math.pi / 3),
            math.cos(theta - 4 * math.pi / 3),
        ]
    )


def s4_family_spec(which: str, sign: int, theta: float) -> OrbitSpec:
    """The two-parameter n=3 families on the tetrahedron.

    which "u": u = y(theta) + a*(-1,-1,-1), v = z, a = sign/(2 sqrt 6);
    which "v": u = y(theta), v = z + b*(-1,-1,-1), b = sign/(3 sqrt 2);
    where z = (2/3)(sigma y - y).  Valid only at the discrete theta values
    singled out by the constraint equations (e.g. sign=-1, which="u":
    theta in (2 pi/3) Z).
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    base = orbit_spec_for(3)
    y = _y_of(theta)
    z = z_from_y(y, lift_permutation(base.frame, base.sigma_perm))
    w4_raw = np.array([-1.0, -1.0, -1.0])  # unnormalized tetrahedron vertex
    if which == "u":
        u = y + sign / (2 * SQ2 * SQ3) * w4_raw
        v = z
    else:
        u = y
        v = z + sign / (3 * SQ2) * w4_raw
    params = {"which": which, "sign": sign, "theta": theta}
    return replace(base, u=u, v=v, scheme="s4-family", params=params)


@dataclass(frozen=True)
class S5Fixture:
    """The explicit n=5 data: the order-3 sigma and the seed pair u (the
    source's w1) and v = (5/6)(sigma u - u).  Used for constraint checks
    only; the n=5 decomposition itself comes from the lattice construction."""

    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray


def s5_fixture() -> S5Fixture:
    sigma = np.array(
        [
            [1, 0, 0, 0, 0],
            [0, -0.5, 0, SQ3 / 2, 0],
            [0, 0, -0.5, 0, SQ3 / 2],
            [0, -SQ3 / 2, 0, -0.5, 0],
            [0, 0, -SQ3 / 2, 0, -0.5],
        ]
    )
    u = np.array([1.0, SQ2, 0.0, 0.0, SQ2]) / math.sqrt(5)
    return S5Fixture(sigma=sigma, u=u, v=5.0 / 6.0 * (sigma @ u - u))
