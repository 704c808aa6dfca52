"""Symbol calculus: diamond products, Wick-symbol series, heat transforms.

Three views of the same operator meet here.  The diamond product gives the
symbol of a composition of Toeplitz operators with polynomial symbols by
exact differentiation.  The Wick symbol of a radial operator is recovered
from its γ-sequence through the series ``σ(r) = e^{−r²} Σ γ(n) r^{2n}/n!``.
The heat transform ``H_t`` smooths a symbol by a complex Gaussian of
variance ``t``, normalized so that ``H₁`` carries the anti-Wick symbol of
an operator onto its Wick symbol.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DivergenceError, DomainError, NonFiniteResultError
from .quadrature import GammaSequence
from .symbols import (
    BivariatePolynomial,
    Combination,
    RadialExponential,
    RadialMonomial,
    Symbol,
    to_polynomial,
)

__all__ = [
    "RadialPowerSeries",
    "GaussianWickFit",
    "diamond",
    "wick_from_gamma",
    "heat_transform",
    "fit_gaussian_wick",
]


# ---------------------------------------------------------------------------
# diamond product


def diamond(phi: Symbol, psi: Symbol) -> BivariatePolynomial:
    """The product ``φ ◇ ψ = Σ_k (−1)ᵏ/k! (∂_z^k φ)(∂_z̄^k ψ)``.

    Both factors must be polynomial (radial monomials convert via
    ``r^{2m} = z^m z̄^m``); the sum terminates at ``k = min(deg_z φ, deg_z̄ ψ)``,
    past which one of the derivatives vanishes, and all coefficient
    arithmetic is exact products of integers and inputs.
    :class:`NonFiniteResultError` names the term of ``φ`` whose derivatives
    leave float64 (``1/k!`` does from ``k = 171`` on).
    """
    p = to_polynomial(phi)
    q = to_polynomial(psi)
    deg_z_phi = max((j for j, _k in p.coefficients), default=0)
    max_k = min(deg_z_phi, max((k for _j, k in q.coefficients), default=0))
    out: dict[tuple[int, int], complex] = {}
    for k_order in range(max_k + 1):
        for (pj, pk), pc in p.coefficients.items():
            if pj < k_order:
                continue
            try:
                # (−1)ᵏ/k! · ∂_z^k of the term: j!/(j−k)!
                dz = (-1.0) ** k_order / math.factorial(k_order) * (pc * math.perm(pj, k_order))
                for (qj, qk), qc in q.coefficients.items():
                    if qk < k_order:
                        continue
                    key = (pj - k_order + qj, pk + qk - k_order)
                    out[key] = out.get(key, 0j) + dz * (qc * math.perm(qk, k_order))
            except OverflowError as exc:
                raise NonFiniteResultError(
                    f"diamond product overflows float64 at the term z^{pj}*zbar^{pk} of phi"
                ) from exc
    return BivariatePolynomial(out)


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
# heat transform


def heat_transform(symbol: Symbol, t: float) -> Symbol:
    """Gaussian smoothing ``H_t(a)(z) = (πt)⁻¹ ∫ a(w) e^{−|z−w|²/t} dv(w)``.

    Normalized so that ``H₁`` maps anti-Wick symbols to Wick symbols.
    Closed forms on the representable family:

    - ``H_t(z^j z̄^k) = Σ_i C(j,i) C(k,i) i! tⁱ z^{j−i} z̄^{k−i}``
      (moments of a complex Gaussian), so ``H₁(|z|²) = |z|² + 1``;
    - ``H_t(e^{λ|z|²}) = (1−tλ)⁻¹ e^{λ|z|²/(1−tλ)}`` for ``Re(λ) < 1/t``,
      outside which the defining integral diverges.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"heat-transform time must be positive and finite, got {t}")
    if isinstance(symbol, RadialMonomial):
        return heat_transform(to_polynomial(symbol), t)
    if isinstance(symbol, BivariatePolynomial):
        out: dict[tuple[int, int], complex] = {}
        for (j, k), c in symbol.coefficients.items():
            try:
                for i in range(min(j, k) + 1):
                    w = c * math.comb(j, i) * math.comb(k, i) * math.factorial(i) * t**i
                    key = (j - i, k - i)
                    out[key] = out.get(key, 0j) + w
                    if not cmath.isfinite(out[key]):  # complex products overflow silently
                        raise OverflowError(f"coefficient of z^{key[0]}*zbar^{key[1]}")
            except OverflowError as exc:
                raise _heat_overflow(f"z^{j}*zbar^{k}", t) from exc
        return BivariatePolynomial(out)
    if isinstance(symbol, RadialExponential):
        lam = symbol.lam
        if lam.real * t >= 1.0:
            raise DivergenceError(
                f"heat transform diverges: Re(lambda)={lam.real:g} is not < 1/t={1.0 / t:g}"
            )
        scale = 1.0 / (1.0 - t * lam)
        if lam == 0:
            return RadialExponential(0j)
        if scale == 0 or not (cmath.isfinite(scale) and cmath.isfinite(lam * scale)):
            raise _heat_overflow(f"exp({lam}*r^2)", t)  # 1 − tλ or λ/(1 − tλ) did
        return Combination(((scale, RadialExponential(lam * scale)),))
    if isinstance(symbol, Combination):
        return Combination(tuple((w, heat_transform(s, t)) for w, s in symbol.terms))
    raise DomainError(f"heat transform not defined for {symbol!r}")


def _heat_overflow(term: str, t: float) -> NonFiniteResultError:
    return NonFiniteResultError(f"heat transform at t={t:g} overflows float64 at the term {term}")


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
