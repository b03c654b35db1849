"""Exact computational pipeline for toric prequantization data.

From a Delzant polytope: lattice reduction data, closed-form spectra of the
twisted-shift quadratic forms, Laurent kernel modules with their shift action,
minimal-degree witnesses, and an exact translated-spectrum oracle for diagonal
torus maps.
"""

from toricspec.lattice import (
    LatticeBasis,
    hermite_normal_form,
    integer_kernel,
    is_primitive,
)
from toricspec.laurent import (
    BackendMismatchError,
    InconclusiveError,
    KernelModule,
    LinearSubspace,
    MonomialModule,
    RestrictedElement,
    ZERO_RING,
    kernel_K,
    kernel_K0,
    membership,
    novikov_shift,
    restrict,
)
from toricspec.memo import clear_caches, memo_counts
from toricspec.minimal import (
    BoundingData,
    MinimalDegreeWitness,
    NoMinimalElement,
    bounding_modules,
    degree_floor_violations,
    find_minimal_degree_element,
    min_degree_bound,
    nullstellensatz_exponents,
    translated_point_bound,
)
from toricspec.oracle import DiagonalMap, feasible_supports
from toricspec.polys import Poly
from toricspec.polytope import (
    DelzantPolytope,
    ToricData,
    ToricHypothesisError,
    ValidationReport,
    check_hypotheses,
    find_positive_b,
    is_cpn,
    parse_polytope,
    rationality_check,
    toric_data,
    validate,
)
from toricspec.quadforms import (
    EigenDescriptor,
    GenFormSpectrum,
    eigen_vector,
    front_membership,
    quad_form_matrix,
    shift_matrix,
    t_lambda_value,
)
from toricspec.quadforms import spectrum as quadform_spectrum

__version__ = "0.1.0"
