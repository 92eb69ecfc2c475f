"""Symmetric rank decompositions of the matrix multiplication tensor.

Construct lattice and group-orbit decompositions of MM_n, verify them both
numerically and exactly (via rational Gram matrices), check the constraint
equations behind the constructions, and run verified decompositions as
recursive matrix multiplication algorithms.

Known discrepancy carried from the source material: the printed theta = 0
seed pair for n = 2 lists v = (-1, sqrt(3)), but v = (2/3)(sigma u - u) gives
(-1, 1/sqrt(3)), which is the value that satisfies the necessary conditions
(<v,u>, <v,sigma u>, <v,sigma^2 u>) = (-1, 1, 0).  This package uses
(-1, 1/sqrt(3)) throughout.
"""

from .bilinear import (
    MulReport,
    benchmark,
    multiply_recursive,
    multiply_via,
    naive_multiply,
    predicted_mult_count,
)
from .constraints import (
    necessary_conditions,
    s4_basis,
    s4_constraints,
    transpose_transform,
    z_from_y,
)
from .constructions import (
    OrbitSpec,
    lattice_decomposition,
    orbit_decomposition,
    orbit_spec_for,
    s5_fixture,
    strassen_theta,
    strassen_theta_sixths,
)
from .fourier2 import (
    BASIS,
    det_identities,
    fourier_coefficients,
    reconstruct,
    strassen_equations,
)
from .frames import Frame, fixture_frame, lift_permutation, simplex_frame
from .serialize import load_decomposition, load_matrix, save_decomposition, save_matrix
from .tensor import (
    Decomposition,
    Rank1Term,
    RefusedInput,
    mm_support,
    mm_tensor,
    tensor_of,
)
from .verify import invariants_report, verify_exact_gram, verify_float

__version__ = "0.1.0"
