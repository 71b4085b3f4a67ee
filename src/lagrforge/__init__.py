"""Derive and verify Lagrangians for finite-dimensional Lie transformation
groups: parse a group action, derive its Lie equations, solve the inverse
variational problem over a multiplier ansatz, and check the result."""

from .expr import (DEFAULT_SEED, Cos, Equivalence, Expr, Power, Product,
                   Rational, Role, Sin, Sum, Sym, SymbolInfo, canonicalize,
                   compile_numeric, differentiate, equals, eval_numeric,
                   format_expr, free_symbols, monomials, substitute)
from .printing import latex_expr, prefix_expr
from .dsl import (ArityMismatchError, DslError, DuplicateClauseError,
                  GroupActionSpec, GroupSyntaxError, UndeclaredSymbolError,
                  bundled_names, bundled_source, parse, parse_file,
                  pretty_print, validate_axioms)
from .lie import (ConventionViolationError, LieData, ResidualCoordinatesError,
                  auxiliary_functions, constraints, infinitesimal_coefficients)
from .solver import (BasisTooLargeError, LagrangianFamily, MultiplierAnsatz,
                     NonlinearInUnknownsError, SecondOrderJetError,
                     ansatz_from_basis, build_ansatz, collect_system,
                     lambda_map_residual, nullspace_vectors, solve_family,
                     strong_el, weak_el_residual_of)
from .verify import (ConverseResult, ShapeMismatchError,
                     VerificationReport, build_report, converse_check,
                     degeneracy_scan, forward_check, kinetic_identity_check,
                     numeric_orbit_check)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED", "Cos", "Equivalence", "Expr", "Power", "Product",
    "Rational", "Role", "Sin", "Sum", "Sym", "SymbolInfo", "canonicalize",
    "compile_numeric", "differentiate", "equals", "eval_numeric",
    "format_expr", "free_symbols", "monomials", "substitute",
    "latex_expr", "prefix_expr",
    "ArityMismatchError", "DslError", "DuplicateClauseError",
    "GroupActionSpec", "GroupSyntaxError", "UndeclaredSymbolError",
    "bundled_names", "bundled_source", "parse", "parse_file", "pretty_print",
    "validate_axioms",
    "ConventionViolationError", "LieData", "ResidualCoordinatesError",
    "auxiliary_functions", "constraints", "infinitesimal_coefficients",
    "BasisTooLargeError", "LagrangianFamily", "MultiplierAnsatz",
    "NonlinearInUnknownsError", "ansatz_from_basis", "build_ansatz",
    "collect_system", "lambda_map_residual", "nullspace_vectors",
    "solve_family", "weak_el_residual_of",
    "ConverseResult", "SecondOrderJetError", "ShapeMismatchError",
    "VerificationReport", "build_report", "converse_check",
    "degeneracy_scan", "forward_check", "kinetic_identity_check",
    "numeric_orbit_check", "strong_el",
    "__version__",
]
