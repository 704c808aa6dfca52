"""Toeplitz-operator calculus on the Segal-Bargmann space.

Radial symbols act diagonally in the monomial basis through their
γ-sequence; this package computes those sequences (closed forms and
generalized Gauss-Laguerre quadrature), builds truncated operators,
composes them, relates anti-Wick, Wick, and heat-transformed symbols, and
classifies Gaussian Wick parameters against the composition obstruction.
"""
from __future__ import annotations

from .calculus import (
    GaussianWickFit,
    RadialPowerSeries,
    diamond,
    fit_gaussian_wick,
    heat_transform,
    safe_fit_radius,
    wick_from_gamma,
)
from .composition import (
    BoundednessVerdict,
    CompositionReport,
    ObstructionCase,
    ObstructionVerdict,
    SquareClassVerdict,
    WorkedExampleReport,
    audit_hypotheses,
    audit_worked_example,
    classify_obstruction,
    compose_radial,
)
from .errors import (
    AccuracyError,
    DivergenceError,
    DomainError,
    FockToeplitzError,
    NonFiniteResultError,
    RuleConstructionError,
)
from .fock import (
    FockVector,
    SpectrumPrefix,
    TruncatedOperator,
    coherent_coefficients,
    eval_fock,
    ladder_matrices,
    norm_estimate,
    r_map,
    r_matrix,
    r_star,
    r_star_matrix,
    radial_operator_from_sequence,
    scaling_operator,
    spectrum_radial,
    toeplitz_matrix,
    wick_symbol_numeric,
)
from .quadrature import (
    GammaSequence,
    QuadratureRule,
    build_rule,
    gamma_sequence,
    integrate_weighted,
)
from .symbols import (
    ASeriesResult,
    BivariatePolynomial,
    Combination,
    MembershipVerdict,
    RadialExponential,
    RadialMonomial,
    Symbol,
    SymbolClass,
    a_series,
    evaluate,
    is_radial,
    membership,
    q_sequence,
    radial_terms,
    symbol_from_json,
    symbol_to_json,
    to_polynomial,
)

__version__ = "0.1.0"
