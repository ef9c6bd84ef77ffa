"""Exact-arithmetic toolkit for Lie superalgebra structures.

Core layers, bottom to top: ``exact_linalg`` (rational rank/kernel engine),
``graded`` (Koszul signs, wedge bases, direct sums), ``superalgebra`` (structure
constants, axiom checkers), ``cochains`` (the graded Lie algebra of
super-antisymmetric maps), ``triple`` and ``crossed`` (Maurer-Cartan
characterizations and cohomology; the semidirect product and the derivations,
both read from the structure element), ``deformation`` (order-by-order formal
deformation checks), ``cli`` (file-driven checks and reports).
"""

from .errors import (
    ArityMismatch,
    CompositionNonzero,
    DimensionMismatch,
    InternalInvariantError,
    InvalidAction,
    ParseError,
    ShapeMismatch,
    SpaceMismatch,
    SupercochainError,
    UsageError,
    ValidationError,
)
from .exact_linalg import Matrix, cohomology_dims, cohomology_table, format_scalar, kernel_basis
from .exact_linalg import parse_scalar, rank
from .graded import (
    GradedSpace,
    direct_sum,
    koszul_K,
    koszul_sign,
    normalize_tuple,
    wedge_basis,
)
from .cochains import BlockCochain, Cochain, bracket_matrix, bracket_sum, circ, circ_sum, f_membership
from .cochains import hat_extend, nr_bracket, project_block
from .superalgebra import (
    CheckReport,
    LinearMap,
    SuperAlgebra,
    abelian,
    check_jacobi,
    check_super_skew,
    gl,
    is_homomorphism,
)
from .triple import (
    ActionMap,
    LieSupActTriple,
    check_action,
    mc_element,
    mc_residual,
    semidirect,
    triple_coboundary_matrix,
    triple_cohomology,
    triple_cohomology_table,
)
from .crossed import (
    CHMorphism,
    CrossedHom,
    ch_cohomology,
    ch_cohomology_table,
    ch_mc_residual,
    check_crossed,
    check_morphism,
    compose_morphisms,
    d_D_matrix,
    derivation_space,
    graph_check,
    identity_morphism,
    verify,
)
from .deformation import CrossedHomDeformation, TripleDeformation, linear_check

__version__ = "0.1.0"
