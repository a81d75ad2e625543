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

``import quadlsq`` loads the report path and the exact oracle.  The node
generators and the node-file reader (:mod:`quadlsq.nodes`) and
:class:`Polynomial` (:mod:`quadlsq.poly`) are served by the module
``__getattr__`` (PEP 562), which imports their module on first use, and
``fractions`` and ``decimal`` are imported where exact values are built.
A lazy name is read from its module on every access and never bound
here: a cached binding would hide a later rebinding in the defining
module (a by-name patch, such as a test's or a tracer's), and the first
access would add a name to this namespace.
"""

from importlib import import_module as _import_module
from sys import modules as _modules

from .analysis import (
    RuleReport,
    bounds_omega_gamma,
    build_report,
    cond_inf_upper,
    error_coefficient,
    norm_params,
    residual_norms,
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
from .oracle import (
    RationalRule,
    degree_by_monomials,
    direct_sis4_minimax,
    lsq_normal_equations,
    rational_pipeline,
)
from .system import (
    FundamentalSystem,
    RuleSolution,
    build_system,
    residual,
    solve_rule,
)

__version__ = "0.1.0"

#: The defining module of each name that is imported on first use.
_LAZY = {
    **dict.fromkeys(("Family", "FamilySpec", "clenshaw_curtis_nodes", "fejer1_nodes",
                     "generate", "legendre_nodes", "newton_cotes_nodes",
                     "read_nodes_file"), "quadlsq.nodes"),
    "Polynomial": "quadlsq.poly",
}


def __getattr__(name):
    """The binding that ``name``'s defining module holds now (see above)."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    try:
        return getattr(_modules[module], name)
    except (KeyError, AttributeError):  # not imported yet, or mid-import elsewhere
        return getattr(_import_module(module), name)


def __dir__():
    return sorted({*globals(), *_LAZY})

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
