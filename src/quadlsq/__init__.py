"""quadlsq: interpolatory quadrature rules as least-squares/minimax problems.

From any ordered node set the package assembles the fundamental system
F w = c of the node-dependent canonical basis (whose top block is upper
triangular) in double-double, from running products of node differences
and a moment recurrence, without forming the basis polynomials.  It
solves for the weights by backward substitution -- the least-squares
solution of the full system -- derives the minimax solution
through the triangular correction A tau = |mu_Q| v, detects the degree of
exactness and principal moment, and reports the diagnostic parameters that
compare rule families: residual norms, the rule angle, norm parameters,
the error coefficient, and the conditioning bounds Omega and Gamma.
"""

from .analysis import (
    RuleReport,
    bounds_omega_gamma,
    build_report,
    cond_inf_upper,
    error_coefficient,
    norm_params,
    rule_angle,
)
from .basis import Interval, NodeSet, build_basis
from .errors import (
    ConvergenceError,
    DegreeOverflowError,
    MomentOverflowError,
    NumericalFailure,
    SelfCheckError,
    SingularDiagonalError,
    SingularSystemError,
)
from .minimax import epsilon_check, equioscillation_residual
from .nodes import (
    Family,
    FamilySpec,
    clenshaw_curtis_nodes,
    fejer1_nodes,
    generate,
    legendre_nodes,
    newton_cotes_nodes,
    read_nodes_file,
)
from .oracle import (
    RationalRule,
    degree_by_monomials,
    direct_sis4_minimax,
    lsq_normal_equations,
    rational_pipeline,
)
from .poly import Polynomial
from .system import (
    FundamentalSystem,
    RuleSolution,
    build_system,
    residual,
    residual_norms,
    solve_rule,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegreeOverflowError",
    "Family",
    "FamilySpec",
    "FundamentalSystem",
    "Interval",
    "MomentOverflowError",
    "NodeSet",
    "NumericalFailure",
    "Polynomial",
    "RationalRule",
    "RuleReport",
    "RuleSolution",
    "SelfCheckError",
    "SingularDiagonalError",
    "SingularSystemError",
    "bounds_omega_gamma",
    "build_basis",
    "build_report",
    "build_system",
    "clenshaw_curtis_nodes",
    "cond_inf_upper",
    "degree_by_monomials",
    "direct_sis4_minimax",
    "epsilon_check",
    "equioscillation_residual",
    "error_coefficient",
    "fejer1_nodes",
    "generate",
    "legendre_nodes",
    "lsq_normal_equations",
    "newton_cotes_nodes",
    "norm_params",
    "rational_pipeline",
    "read_nodes_file",
    "residual",
    "residual_norms",
    "rule_angle",
    "solve_rule",
]
