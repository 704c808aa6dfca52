"""Weighted integrals against ``r^α e^{−r}`` and γ-sequences of radial symbols.

The central quantity is the eigenvalue sequence of a radial Toeplitz
operator,

    γ_a(n) = (1/n!) ∫₀^∞ a(√u) uⁿ e^{−u} du,

computed either from closed forms (available for every symbol in the
closed-form family) or by generalized Gauss–Laguerre quadrature with the
weight exponent ``α = n``.

Numerical notes.  The quadrature path normalizes the weight to unit mass,
so the division by ``n!`` never happens explicitly.  For oscillatory
profiles such as ``e^{λu}`` with complex ``λ`` the integrand alternates in
sign and the sum cancels down from ``Σ w|f| ≈ (1−Re λ)^{−(n+1)}`` to a
unit-modulus result; at ``n = 40`` that is a factor ~10⁹, which double
precision cannot absorb at 1e−9 accuracy.  Rules are therefore refined to
``np.longdouble`` (Newton-polished nodes, Christoffel weights) and summed
in ``np.clongdouble``, and the adaptive ladder stops either at the
requested tolerance or at the computable rounding floor
``eps · Σ w|f|`` — whichever comes first — reporting the honest estimate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._special import gammaln, poch
from .errors import DivergenceError, DomainError, NonFiniteResultError, RuleConstructionError
from .symbols import (
    Symbol,
    SymbolClass,
    describe,
    is_radial,
    membership,
    radial_profile,
    radial_terms,
)

__all__ = [
    "QuadratureRule",
    "GammaSequence",
    "build_rule",
    "integrate_weighted",
    "gamma_sequence",
    "DEFAULT_TOL",
    "MAX_ORDER",
]

_LD = np.longdouble
_CLD = np.clongdouble
_EPS_LD = float(np.finfo(_LD).eps)

DEFAULT_TOL = 1e-12
MAX_ORDER = 512
_FLOOR_FACTOR = 32.0  # multiples of eps·Σw|f| treated as unreachable
# Rules kept per process: full ladders (orders 8..512) for ~146 weight
# exponents, about 80 bytes per node, so ~12 MB when every ladder is full.
_RULE_CACHE_SIZE = 1024


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Generalized Gauss–Laguerre rule for ``∫ f(u) u^α e^{−u} du``.

    ``unit_weights`` integrate against the probability-normalized weight
    (they sum to 1); ``weights`` carries the raw normalization summing to
    ``Γ(α+1)``.  Both are stored in ``np.longdouble`` together with the
    nodes.  At high order the most extreme unit weights can underflow to
    exact zero; those nodes are masked once, at construction, and never
    reach an integrand.
    """

    order: int
    alpha: float
    nodes: np.ndarray
    unit_weights: np.ndarray
    _live_nodes: np.ndarray = field(init=False, repr=False)
    _live_weights: np.ndarray = field(init=False, repr=False)  # np.clongdouble

    def __post_init__(self) -> None:
        mask = self.unit_weights > 0
        object.__setattr__(self, "_live_nodes", self.nodes[mask])
        object.__setattr__(self, "_live_weights", self.unit_weights[mask].astype(_CLD))

    @property
    def weights(self) -> np.ndarray:
        if self.alpha < 170.0:
            scale = _LD(math.gamma(self.alpha + 1.0))
        else:
            scale = np.exp(_LD(math.lgamma(self.alpha + 1.0)))
        return self.unit_weights * scale

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> complex:
        """Unit-normalized integral ``∫ f(u) u^α e^{−u} du / Γ(α+1)``."""
        return self.integrate_with_gauge(f)[0]

    def integrate_with_gauge(
        self, f: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[complex, float]:
        """:meth:`integrate` and ``Σ w |f|`` against the unit weights — the
        cancellation gauge — from one evaluation of ``f``."""
        fx = np.asarray(f(self._live_nodes))
        value = complex(np.sum(self._live_weights * fx))
        gauge = float(np.sum(self._live_weights.real * np.abs(fx)).real)
        return value, gauge


def build_rule(order: int, alpha: float) -> QuadratureRule:
    """The rule of ``order`` nodes for the weight ``u^α e^{−u}``.

    Rules are built by the Golub–Welsch scheme, refined in longdouble: the
    double-precision eigenvalues of the Jacobi matrix (recurrence
    ``a_k = 2k+α+1``, ``b_k = √(k(k+α))``) seed two Newton iterations on the
    orthonormal-polynomial recurrence carried in ``np.longdouble``; weights
    are the Christoffel numbers ``1 / Σ_k p_k(x_i)²``.

    Each rule is built once per process and kept in a bounded LRU cache keyed
    on ``(order, float(alpha))``, so every caller asking for the same rule
    gets the same object.  Its ``nodes`` and ``unit_weights`` are therefore
    read-only; copy them before writing.  Invalid arguments raise
    :class:`DomainError` before the cache is consulted.
    ``build_rule.cache_clear()`` empties the cache and
    ``build_rule.cache_info()`` reports its hits, misses and size.
    """
    if order < 1:
        raise DomainError(f"rule order must be >= 1, got {order}")
    if alpha < 0:
        raise DomainError(f"weight exponent alpha must be >= 0, got {alpha}")
    return _cached_rule(order, float(alpha))


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _cached_rule(order: int, alpha: float) -> QuadratureRule:
    if order == 1:
        # single node at the first moment of the normalized weight
        nodes = np.array([alpha + 1.0], dtype=_LD)
        return _frozen_rule(1, alpha, nodes, np.array([1.0], dtype=_LD))

    # imported here so that callers who never build a rule skip scipy.linalg
    from scipy.linalg import LinAlgError, eigh_tridiagonal

    k = np.arange(order, dtype=float)
    diag = 2.0 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    try:
        seed, _ = eigh_tridiagonal(diag, off)
    except LinAlgError as exc:
        raise RuleConstructionError(
            f"eigen-solver failed for order={order}, alpha={alpha}"
        ) from exc

    a = 2.0 * np.arange(order, dtype=_LD) + _LD(alpha) + 1.0
    kk = np.arange(1, order, dtype=_LD)
    b = np.sqrt(kk * (kk + _LD(alpha)))

    x = seed.astype(_LD)
    for _ in range(2):
        p_prev = np.zeros_like(x)
        p = np.ones_like(x)
        dp_prev = np.zeros_like(x)
        dp = np.zeros_like(x)
        for j in range(order):
            if j == 0:
                p_next = (x - a[0]) * p / b[0]
                dp_next = (p + (x - a[0]) * dp) / b[0]
            elif j < order - 1:
                p_next = ((x - a[j]) * p - b[j - 1] * p_prev) / b[j]
                dp_next = (p + (x - a[j]) * dp - b[j - 1] * dp_prev) / b[j]
            else:
                # last step needs no division: only the root matters
                p_next = (x - a[j]) * p - b[j - 1] * p_prev
                dp_next = p + (x - a[j]) * dp - b[j - 1] * dp_prev
            p_prev, p = p, p_next
            dp_prev, dp = dp, dp_next
        x = x - p / dp

    # Christoffel weights from the orthonormal recurrence at the final nodes
    kernel = np.ones_like(x)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    for j in range(order - 1):
        if j == 0:
            p_next = (x - a[0]) * p / b[0]
        else:
            p_next = ((x - a[j]) * p - b[j - 1] * p_prev) / b[j]
        p_prev, p = p, p_next
        kernel += p * p
    unit_weights = 1.0 / kernel

    if not np.all(np.isfinite(x)) or np.any(np.diff(x) <= 0):
        raise RuleConstructionError(
            f"node refinement failed for order={order}, alpha={alpha}"
        )
    return _frozen_rule(order, alpha, x, unit_weights)


def _frozen_rule(
    order: int, alpha: float, nodes: np.ndarray, unit_weights: np.ndarray
) -> QuadratureRule:
    nodes.flags.writeable = False
    unit_weights.flags.writeable = False
    return QuadratureRule(order=order, alpha=alpha, nodes=nodes, unit_weights=unit_weights)


build_rule.cache_clear = _cached_rule.cache_clear
build_rule.cache_info = _cached_rule.cache_info


def _adaptive_unit(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    tol: float,
    max_order: int,
) -> tuple[complex, float]:
    """Order-doubling ladder for the unit-normalized integral.

    Returns ``(value, err)`` where ``err`` is the last successive difference,
    clipped from below by the rounding floor of the final sum.  When the
    floor is hit before ``tol``, the best value seen is returned with the
    floor-aware estimate; the caller decides whether that is reliable.
    """
    order = 8
    prev: complex | None = None
    best: tuple[complex, float] | None = None
    while order <= max_order:
        value, gauge = build_rule(order, alpha).integrate_with_gauge(f)
        floor = _FLOOR_FACTOR * _EPS_LD * gauge
        if prev is not None:
            est = abs(value - prev)
            if best is None or est < best[1]:
                best = (value, max(est, floor))
            if est < tol:
                return value, max(est, floor)
            if est < floor:
                # further refinement only re-rounds: report the floor
                return value, floor
        prev = value
        order *= 2
    assert best is not None or prev is not None
    if best is None:
        return prev, math.inf  # single evaluation, no estimate possible
    return best


def integrate_weighted(
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    tol: float = DEFAULT_TOL,
    max_order: int = MAX_ORDER,
) -> tuple[complex, float]:
    """Adaptive ``∫₀^∞ f(u) u^α e^{−u} du`` with an error estimate.

    ``f`` must accept an ``np.ndarray`` of nodes (``np.longdouble``) and
    return values elementwise; complex values are fine.  The result carries
    the raw ``Γ(α+1)`` normalization.  ``err > tol`` in the returned pair
    flags a partial result (max order reached or rounding floor hit).
    """
    value, err = _adaptive_unit(f, alpha, tol, max_order)
    if alpha < 170.0:
        scale = math.gamma(alpha + 1.0)
    else:
        scale = math.exp(math.lgamma(alpha + 1.0))
    return value * scale, err * scale


@dataclass(frozen=True, eq=False)
class GammaSequence:
    """Finite prefix of the eigenvalue sequence of a radial Toeplitz operator.

    ``abs_err[n]`` estimates the absolute error of ``values[n]``; entries
    whose estimate exceeds ``tol`` are reported by :attr:`unreliable`.
    """

    values: np.ndarray
    abs_err: np.ndarray
    source: str
    tol: float
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "abs_err", np.asarray(self.abs_err, dtype=float))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def unreliable(self) -> tuple[int, ...]:
        return tuple(int(n) for n in np.nonzero(self.abs_err > self.tol)[0])

    def to_json(self) -> dict:
        return {
            "symbol": self.source,
            "method": self.method,
            "tol": self.tol,
            "entries": [
                {
                    "n": n,
                    "gamma": {"re": v.real, "im": v.imag},
                    "abs_err": float(e),
                }
                for n, (v, e) in enumerate(zip(self.values, self.abs_err))
            ],
            "unreliable": list(self.unreliable),
        }


def _gamma_closed(terms, n_entries: int) -> np.ndarray:
    """Closed-form γ for a sum of terms ``c · r^{2m} e^{λr²}``.

    Each term contributes ``c · Γ(n+m+1)/n! · (1−λ)^{−(n+m+1)}``; the ``λ=0``
    case reduces to the rising factorial ``(n+1)_m`` and is computed exactly.
    Raises :class:`NonFiniteResultError` when an entry overflows float64.
    """
    n = np.arange(n_entries, dtype=float)
    out = np.zeros(n_entries, dtype=complex)
    with np.errstate(all="ignore"):  # overflow is reported below, not warned
        for c, m, lam in terms:
            if lam == 0:
                out += c * poch(n + 1.0, m)
            else:
                power = n + m + 1.0
                log_term = gammaln(n + m + 1.0) - gammaln(n + 1.0) - power * np.log(
                    complex(1.0 - lam)
                )
                out += c * np.exp(log_term)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise _overflow_error("closed-form", int(bad[0]))
    return out


def _overflow_error(path: str, first: int) -> NonFiniteResultError:
    hint = f"; request at most {first} entries" if first else ""
    return NonFiniteResultError(f"{path} gamma overflows float64 at n = {first}{hint}")


def gamma_sequence(
    symbol: Symbol,
    n_entries: int,
    tol: float = DEFAULT_TOL,
    method: str = "auto",
    max_order: int = MAX_ORDER,
) -> GammaSequence:
    """γ_a(n) for ``n < n_entries`` with per-entry error estimates.

    ``method`` selects the computation path: ``"closed"`` uses the
    term-by-term closed forms, ``"quadrature"`` forces generalized
    Gauss–Laguerre with weight exponent ``α = n`` for each ``n``, and
    ``"auto"`` prefers the closed forms, which exist for the whole
    representable family.  The quadrature rules come from the per-process
    cache of :func:`build_rule`, so a later sequence over the same ``n``
    builds no rule again; each rung of the order ladder evaluates the
    profile once.  Either path raises :class:`NonFiniteResultError`, naming
    the first ``n``, when an entry overflows float64.
    """
    if n_entries < 1:
        raise DomainError("need at least one gamma entry")
    if not is_radial(symbol):
        raise DomainError("gamma sequence requires a radial symbol")
    if not membership(symbol, SymbolClass.L1_INF_WEIGHTED).member:
        raise DivergenceError(
            "gamma integrals diverge: symbol is outside the weighted L1 class"
        )
    if method not in ("auto", "closed", "quadrature"):
        raise DomainError(f"unknown gamma method: {method!r}")

    terms = radial_terms(symbol)
    if method in ("auto", "closed"):
        values = _gamma_closed(terms, n_entries)
        abs_err = 16.0 * np.finfo(float).eps * np.abs(values)
        return GammaSequence(
            values=values, abs_err=abs_err, source=describe(symbol), tol=tol, method="closed"
        )

    values = np.zeros(n_entries, dtype=complex)
    abs_err = np.zeros(n_entries, dtype=float)
    profile = lambda u: radial_profile(symbol, u)  # noqa: E731
    for n in range(n_entries):
        # unit weights already divide by Γ(n+1): the sum is γ(n) directly
        values[n], abs_err[n] = _adaptive_unit(profile, float(n), tol, max_order)
        if not np.isfinite(values[n]):
            raise _overflow_error("quadrature", n)
    return GammaSequence(
        values=values, abs_err=abs_err, source=describe(symbol), tol=tol, method="quadrature"
    )
