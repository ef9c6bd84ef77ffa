"""Exact-arithmetic toolkit for Lie superalgebra structures.

Core layers, bottom to top: ``exact_linalg`` (rational rank/kernel engine),
``graded`` (wedge bases and normal forms with their Koszul signs, direct
sums), ``superalgebra`` (structure constants, axiom checkers), ``cochains``
(the graded Lie algebra of super-antisymmetric maps), ``triple`` and
``crossed`` (Maurer-Cartan characterizations and cohomology; the semidirect
product and the derivations, both read from the structure element),
``deformation`` (order-by-order formal deformation checks), ``cli``
(file-driven checks and reports).  The package holds what a command runs or
the paper states; cross-checks and test-only constructors live in ``tests/``.
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
from .exact_linalg import Matrix, cohomology_table, format_scalar, kernel_basis, parse_scalar, rank
from .graded import DirectSum, GradedSpace, normalize_tuple, wedge_basis
from .cochains import BlockCochain, Cochain, bracket_matrix, bracket_sum, circ, hat_extend, nr_bracket
from .cochains import project_block
from .superalgebra import CheckReport, LinearMap, SuperAlgebra, abelian, check_jacobi, check_super_skew, gl
from .triple import (
    ActionMap,
    LieSupActTriple,
    check_action,
    mc_element,
    mc_residual,
    semidirect,
    triple_coboundary_matrix,
    triple_cohomology_table,
)
from .crossed import (
    CrossedHom,
    ch_cohomology_table,
    ch_mc_residual,
    check_crossed,
    d_D_matrix,
    derivation_space,
    graph_check,
)
from .deformation import CrossedHomDeformation, TripleDeformation, linear_check

__version__ = "0.1.0"
