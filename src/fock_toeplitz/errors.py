"""Exception hierarchy shared by all modules.

The command-line front end maps these by type onto its exit codes:
:class:`AccuracyError` to 3 and :class:`DomainError` to 4.
"""
from __future__ import annotations


class FockToeplitzError(Exception):
    """Base class for all library errors."""


class DomainError(FockToeplitzError):
    """The input is outside the domain of the requested operation.

    Examples: a non-radial symbol passed to a gamma-sequence computation,
    a non-polynomial symbol passed to the diamond product.
    """


class DivergenceError(DomainError):
    """A defining integral or series diverges for the given parameters."""


class AccuracyError(FockToeplitzError):
    """The requested tolerance cannot be certified."""


class NonFiniteResultError(AccuracyError):
    """A computation produced an overflow / NaN instead of a usable value."""


class RuleConstructionError(AccuracyError):
    """Quadrature-rule construction failed (eigen-solver did not converge)."""
