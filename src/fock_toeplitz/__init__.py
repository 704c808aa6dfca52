"""Toeplitz-operator calculus on the Segal-Bargmann space.

Radial symbols act diagonally in the monomial basis through their
γ-sequence; this package computes those sequences (closed forms and
generalized Gauss-Laguerre quadrature), builds truncated operators,
composes them, relates anti-Wick, Wick, and heat-transformed symbols, and
classifies Gaussian Wick parameters against the composition obstruction.

Each exported name, and each submodule, is imported on first use
(PEP 562), so ``import fock_toeplitz`` loads no numpy and a caller of the
exact calculus in :mod:`fock_toeplitz.algebra` never does.
"""
from __future__ import annotations

import importlib

# submodule -> the names it defines for the package
_DEFINED_IN = {
    "algebra": "ObstructionCase ObstructionVerdict classify_obstruction diamond heat_transform",
    "calculus": (
        "GaussianWickFit RadialPowerSeries fit_gaussian_wick safe_fit_radius wick_from_gamma"
    ),
    "composition": (
        "BoundednessVerdict CompositionReport SquareClassVerdict WorkedExampleReport "
        "audit_hypotheses audit_worked_example compose_radial"
    ),
    "errors": (
        "AccuracyError DivergenceError DomainError FockToeplitzError NonFiniteResultError "
        "RuleConstructionError"
    ),
    "fock": (
        "FockVector SpectrumPrefix TruncatedOperator coherent_coefficients eval_fock "
        "ladder_matrices norm_estimate r_map r_matrix r_star r_star_matrix "
        "radial_operator_from_sequence scaling_operator spectrum_radial toeplitz_matrix "
        "wick_symbol_numeric"
    ),
    "quadrature": "GammaSequence QuadratureRule build_rule gamma_sequence integrate_weighted",
    "symbols": (
        "BivariatePolynomial Combination MembershipVerdict RadialExponential RadialMonomial "
        "Symbol SymbolClass evaluate is_radial membership radial_terms symbol_from_json "
        "symbol_to_json to_polynomial"
    ),
}
_EXPORTS = {name: module for module, names in _DEFINED_IN.items() for name in names.split()}
_SUBMODULES = frozenset(_DEFINED_IN) | {"cli"}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
