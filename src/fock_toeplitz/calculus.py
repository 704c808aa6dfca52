"""Symbol calculus: diamond products, Wick-symbol series, heat transforms.

Three views of the same operator meet here.  The diamond product gives the
symbol of a composition of Toeplitz operators with polynomial symbols by
exact differentiation.  The Wick symbol of a radial operator is recovered
from its γ-sequence through the series ``σ(r) = e^{−r²} Σ γ(n) r^{2n}/n!``.
The heat transform ``H_t`` smooths a symbol by a complex Gaussian of
variance ``t``, normalized so that ``H₁`` carries the anti-Wick symbol of
an operator onto its Wick symbol.  The diamond product and the heat
transform are exact arithmetic, defined in :mod:`fock_toeplitz.algebra`
and re-exported here.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import diamond, heat_transform
from .errors import AccuracyError, DomainError
from .quadrature import GammaSequence

__all__ = [
    "RadialPowerSeries",
    "GaussianWickFit",
    "diamond",
    "wick_from_gamma",
    "heat_transform",
    "fit_gaussian_wick",
]


# ---------------------------------------------------------------------------
# Wick symbol from a γ-sequence


@dataclass(frozen=True, eq=False)
class RadialPowerSeries:
    """The radial function ``σ(r) = e^{−r²} Σ_{n<N} γ(n) r^{2n}/n!``.

    Evaluation enforces the truncation-tail bound
    ``max|γ| · r^{2N}/N!`` (the ``e^{±r²}`` factors cancel against the
    prefactor); radii where the bound exceeds the tolerance are refused
    rather than silently extrapolated.
    """

    gamma: GammaSequence

    def eval(self, r: float, tol: float = 1e-10) -> complex:
        x = float(r) * float(r)
        values = self.gamma.values
        peak = float(np.max(np.abs(values))) if len(values) else 0.0
        log_peak = math.log(peak) if peak else -math.inf
        bound = _series_tail(x, len(values), log_peak)
        if bound > tol:
            needed = _terms_needed(lambda n: _series_tail(x, n, log_peak), len(values), tol)
            hint = _TOO_MANY_TERMS if needed is None else f"~{needed} terms would suffice"
            raise AccuracyError(
                f"series tail {bound:.3e} exceeds tol {tol:.3e} at r={r} with "
                f"{len(values)} terms; {hint}"
            )
        # each accumulate runs in the order of the scalar recurrence for x^n/n!
        # and its running sum from 0j, so the value matches it bit for bit
        ratios = x / np.arange(1.0, len(values))
        weights = np.multiply.accumulate(np.concatenate(([1.0], ratios)))
        terms = np.concatenate(([0j], values * weights))
        return math.exp(-x) * np.add.accumulate(terms)[-1]


def _series_tail(x: float, n: int, log_scale: float) -> float:
    """``xⁿ/n! · e^{log_scale}`` in log space: with ``Σ_{k≥n} xᵏ/k! ≤ xⁿ/n! · eˣ``,
    the tail bound of every exponential series here."""
    if x == 0.0:
        return 0.0
    log_bound = n * math.log(x) - math.lgamma(n + 1.0) + log_scale
    return math.exp(log_bound) if log_bound < 700.0 else math.inf


_TOO_MANY_TERMS = "more than 100000 terms are needed"


def _terms_needed(bound, n: int, tol: float) -> int | None:
    """The first doubling of ``n`` whose tail ``bound(n)`` meets ``tol``, or None when
    the first doubling past 100 000 still fails it (a nan radius fails every bound)."""
    n = max(n, 1)
    while n < 100_000 and bound(n) > tol:
        n *= 2
    return n if bound(n) <= tol else None


def wick_from_gamma(gamma: GammaSequence, r: float, tol: float = 1e-10) -> complex:
    """Value of the Wick symbol of the radial operator with sequence γ at radius ``r``."""
    return RadialPowerSeries(gamma).eval(r, tol=tol)


# ---------------------------------------------------------------------------
# Gaussian recognition of a Wick symbol


@dataclass(frozen=True)
class GaussianWickFit:
    """Result of fitting ``σ(r) ≈ amplitude · e^{−rate·r²}`` on a radius grid."""

    amplitude: complex
    rate: complex
    residual: float
    grid_points: int


def safe_fit_radius(gamma: GammaSequence, tol: float = 1e-10, r_cap: float = 2.0) -> float:
    """Largest radius (capped at ``r_cap``) where the series prefix meets ``tol``.

    Inverts the truncation-tail bound ``max|γ| · r^{2N}/N! ≤ tol`` for the
    radius and shrinks the root slightly so later evaluations sit strictly
    inside the bound.  Lets fit grids adapt to short prefixes instead of
    refusing them.
    """
    n = len(gamma)
    peak = float(np.max(np.abs(gamma.values))) if n else 0.0
    if n == 0 or peak == 0.0:
        return r_cap
    log_x = (math.log(tol) - math.log(peak) + math.lgamma(n + 1.0)) / n
    return min(r_cap, 0.999 * math.exp(0.5 * log_x))


def fit_gaussian_wick(
    gamma: GammaSequence,
    r_max: float = 2.0,
    n_points: int = 25,
    tol: float = 1e-10,
) -> GaussianWickFit:
    """Log-linear least-squares fit of the Wick series against ``r²``.

    ``log σ(r) = log C − K r²`` is linear in ``r²``; the phase is unwrapped
    along the grid so complex logarithms stay on one branch.  The residual
    is the maximum absolute deviation of the model on the grid, which the
    caller compares against its own tolerance.
    """
    if n_points < 3:
        raise DomainError("need at least 3 grid points for a fit")
    r = np.linspace(0.0, r_max, n_points)
    values = np.array([wick_from_gamma(gamma, float(ri), tol=tol) for ri in r])
    if np.any(values == 0):
        return GaussianWickFit(amplitude=0j, rate=0j, residual=math.inf, grid_points=n_points)
    logs = np.log(np.abs(values)) + 1j * np.unwrap(np.angle(values))
    design = np.column_stack([np.ones_like(r), -(r * r)])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    amplitude = cmath.exp(complex(coef[0]))
    rate = complex(coef[1])
    model = amplitude * np.exp(-rate * r * r)
    residual = float(np.max(np.abs(values - model)))
    return GaussianWickFit(
        amplitude=amplitude, rate=rate, residual=residual, grid_points=n_points
    )
