"""The exact symbolic calculus: diamond products, heat transforms, and the
classification of Gaussian Wick parameters.

Everything here is closed-form arithmetic on the symbol family of
:mod:`fock_toeplitz.symbols`, so the module imports no numpy: the
``diamond``, ``heat`` and ``classify`` commands load only this, the symbols
and the errors.  :mod:`fock_toeplitz.calculus` and
:mod:`fock_toeplitz.composition` re-export each name.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import DivergenceError, DomainError, NonFiniteResultError
from .symbols import (
    BivariatePolynomial,
    Combination,
    RadialExponential,
    RadialMonomial,
    Symbol,
    complex_to_json,
    to_polynomial,
)

__all__ = [
    "diamond",
    "heat_transform",
    "ObstructionCase",
    "ObstructionVerdict",
    "classify_obstruction",
    "DEFAULT_X_SAMPLES",
]

# the x at which a composition report echoes the A-series verdict
DEFAULT_X_SAMPLES = (0.5, 1.0, 2.0, 4.0)
# tolerance of the circle |β| = 1 (and |θ|² = 2 Re θ), and of merging equal rates β
_CIRCLE_TOL = 1e-9


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
# the Gaussian obstruction


class ObstructionCase(enum.Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"
    NONE_ASSERTED = "NoneAsserted"


@dataclass(frozen=True)
class ObstructionVerdict:
    """Classification of a Gaussian Wick parameter θ.

    ``Case1``: θ on the circle ``|θ|² = 2 Re θ`` with ``Re θ > 1``;
    ``Case2``: strictly outside that circle, ``|θ|² > 2 Re θ``.  Both imply
    no bounded Toeplitz operator has Wick symbol ``e^{−θ|z|²}``; anything
    else asserts nothing.  ``margin`` is the distance from the deciding
    boundary: ``Re θ − 1`` for Case1, ``|θ|² − 2 Re θ`` for Case2, and the
    depth inside the circle otherwise.
    """

    theta: complex
    case: ObstructionCase
    margin: float

    def to_json(self) -> dict:
        return {
            "theta": complex_to_json(self.theta),
            "case": self.case.value,
            "margin": self.margin,
        }


def classify_obstruction(theta: complex, tol: float = _CIRCLE_TOL) -> ObstructionVerdict:
    """Place θ relative to the obstruction regions with tolerance ``tol``."""
    theta = complex(theta)
    circle = abs(theta) ** 2 - 2.0 * theta.real
    if abs(circle) <= tol and theta.real > 1.0 + tol:
        return ObstructionVerdict(theta=theta, case=ObstructionCase.CASE1, margin=theta.real - 1.0)
    if circle > tol:
        return ObstructionVerdict(theta=theta, case=ObstructionCase.CASE2, margin=circle)
    return ObstructionVerdict(
        theta=theta, case=ObstructionCase.NONE_ASSERTED, margin=max(0.0, -circle)
    )
