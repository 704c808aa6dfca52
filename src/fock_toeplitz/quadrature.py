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
γ is summed term by term, one row per term ``w·r^{2m}e^{λr²}``: a decaying
term (``Re λ < 0``) in ``v = (1−λ)u``, on a ray that Cauchy's theorem
rotates when ``λ`` is complex, where its row is a constant; every other
term in ``v = u``.  Each term's scale ``(1−λ)^{−(n+1)}`` and its error bound
(:func:`_scale`) are computed once per call, and the quadrature rows reuse them.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NonFiniteResultError, RuleConstructionError
from .symbols import Symbol, SymbolClass, _radial_in, complex_to_json, describe

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
_LOG_MAX_LD = np.log(np.finfo(_LD).max)
_UNDERFLOW, _SUBNORMAL = 2.0**-1021, 2.0**-1074  # see _underflow_floor

DEFAULT_TOL = 1e-12
MAX_ORDER = 512
_FLOOR_FACTOR = 32.0  # multiples of eps·Σw|f| treated as unreachable
_GAUGE_FACTOR = 16.0 * float(np.finfo(float).eps)  # closed forms: rounding per |term|
# Rules kept per process: full ladders (orders 8..512) for ~146 weight
# exponents, 32 bytes per node, so about 5 MB when every ladder is full.
_RULE_CACHE_SIZE = 1024
# Nodes per batched build: bounds the recurrence's transient arrays (about
# a dozen of this many longdoubles) while keeping a rung's batch whole.
_BATCH_NODES = 1 << 15


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Generalized Gauss–Laguerre rule for ``∫ f(u) u^α e^{−u} du``.

    ``unit_weights`` integrate against the probability-normalized weight
    (they sum to 1); ``weights`` carries the raw normalization summing to
    ``Γ(α+1)``.  Both are stored in ``np.longdouble`` together with the
    nodes.  At high order the most extreme unit weights can underflow to
    exact zero; an integrand sees ``0.0`` in place of those nodes, so every
    rule of an order sums ``order`` terms.
    """

    order: int
    alpha: float
    nodes: np.ndarray
    unit_weights: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return self.unit_weights * _gamma_scale(self.alpha)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> complex:
        """Unit-normalized integral ``∫ f(u) u^α e^{−u} du / Γ(α+1)``."""
        nodes = np.where(self.unit_weights > 0, self.nodes, 0.0)
        return complex(np.sum(self.unit_weights.astype(_CLD) * np.asarray(f(nodes))))


def _gamma_scale(alpha: float) -> np.longdouble:
    """``Γ(α+1)`` in longdouble, which holds it past the float64 range."""
    if alpha < 170.0:
        return _LD(math.gamma(alpha + 1.0))
    log_gamma = _LD(math.lgamma(alpha + 1.0))
    # past the longdouble range the scale is inf, without an overflow warning
    return np.exp(log_gamma) if log_gamma < _LOG_MAX_LD else _LD(np.inf)


def build_rule(order: int, alpha: float) -> QuadratureRule:
    """The rule of ``order`` nodes for the weight ``u^α e^{−u}``.

    Rules are built by the Golub–Welsch scheme, refined in longdouble: the
    double-precision eigenvalues of the Jacobi matrix (recurrence
    ``a_k = 2k+α+1``, ``b_k = √(k(k+α))``), from ``np.linalg.eigvalsh``, seed
    one Newton iteration on the orthonormal-polynomial recurrence carried in
    ``np.longdouble``; weights are the Christoffel numbers
    ``1 / Σ_k p_k(x_i)²``.

    Each rule is built once per process and kept in a bounded LRU cache keyed
    on ``(order, float(alpha))``, so every caller asking for the same rule
    gets the same object.  Its ``nodes`` and ``unit_weights`` are therefore
    read-only; copy them before writing.  Invalid arguments raise
    :class:`DomainError` before the cache is consulted.
    ``build_rule.cache_clear()`` empties the cache and
    ``build_rule.cache_info()`` reports its hits (the rules found in it, as
    for ``functools.lru_cache``), misses (the rules built) and size.
    """
    if order < 1:
        raise DomainError(f"rule order must be >= 1, got {order}")
    _check_alpha(alpha)
    (rule,) = _cached_rules(order, [float(alpha)])
    return rule


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise DomainError(f"weight exponent alpha must be finite and >= 0, got {alpha}")


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_RULES: OrderedDict[tuple[int, float], QuadratureRule] = OrderedDict()
_RULES_LOCK = threading.Lock()
_RULE_COUNTS = [0, 0]  # hits, misses


def _cached_rules(order: int, alphas: list[float]) -> list[QuadratureRule]:
    """The rules of ``order`` for ``alphas`` from the LRU cache of :func:`build_rule`.

    Each rule found becomes the most recent and counts one hit.  The missing
    ones are built outside the lock, in batches of at most ``_BATCH_NODES``
    nodes, and enter the cache under it, each counting one miss; the least
    recent rules past ``_RULE_CACHE_SIZE`` are then dropped.  Built rules are
    returned as built, so a request wider than the cache still gets them all.
    """
    with _RULES_LOCK:
        rules = [_RULES.get((order, a)) for a in alphas]
        for a, rule in zip(alphas, rules):
            if rule is not None:
                _RULES.move_to_end((order, a))
        _RULE_COUNTS[0] += len(rules) - rules.count(None)
    missing = [a for a, rule in zip(alphas, rules) if rule is None]
    step = max(1, _BATCH_NODES // order)
    chunks = [missing[i : i + step] for i in range(0, len(missing), step)]
    built = [rule for chunk in chunks for rule in _build_rules(order, chunk)]
    with _RULES_LOCK:
        for rule in built:
            _RULES[order, rule.alpha] = rule
            _RULES.move_to_end((order, rule.alpha))
        _RULE_COUNTS[1] += len(built)
        while len(_RULES) > _RULE_CACHE_SIZE:
            _RULES.popitem(last=False)
    fresh = iter(built)
    return [rule or next(fresh) for rule in rules]


def _cache_clear() -> None:
    with _RULES_LOCK:
        _RULES.clear()
        _RULE_COUNTS[:] = [0, 0]


def _cache_info() -> _CacheInfo:
    with _RULES_LOCK:
        return _CacheInfo(*_RULE_COUNTS, _RULE_CACHE_SIZE, len(_RULES))


build_rule.cache_clear = _cache_clear
build_rule.cache_info = _cache_info


def _build_rules(order: int, alphas: list[float]) -> list[QuadratureRule]:
    """The rules of ``order`` for every weight exponent in ``alphas``.

    One recurrence runs over an ``(len(alphas), order)`` longdouble array, so
    its Python loop is paid once per batch, not once per rule.  Each row sees
    the IEEE operations a single-rule build would apply, so every rule is
    bit-identical to one built alone.
    """
    # seeds: the eigenvalues of each dense Jacobi matrix, one at a time, so
    # at most one order x order matrix is alive (2 MB at order 512)
    k = np.arange(order, dtype=float)
    seeds = []
    for alpha in alphas:
        # eigvalsh reads the lower triangle only
        jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(np.sqrt(k[1:] * (k[1:] + alpha)), -1)
        try:
            seeds.append(np.linalg.eigvalsh(jacobi))
        except np.linalg.LinAlgError as exc:
            raise RuleConstructionError(
                f"eigen-solver failed for order={order}, alpha={alpha}"
            ) from exc

    # recurrence coefficients, one column per step j: a[j], b_prev[j] and
    # b_next[j] have shape (len(alphas), 1) and broadcast along each row of
    # nodes.  b_prev[0] = 0 and b_next[-1] = 1 are exact no-ops, so the first
    # and the last step take the same form as the others.
    col = np.array(alphas, dtype=_LD)[:, None]
    a = (2.0 * np.arange(order, dtype=_LD) + col + 1.0).T[:, :, None]
    kk = np.arange(1, order, dtype=_LD)
    b = np.sqrt(kk * (kk + col))
    b_prev = np.hstack([np.zeros_like(col), b]).T[:, :, None]
    b_next = np.hstack([b, np.ones_like(col)]).T[:, :, None]

    # one Newton pass on the recurrence's last polynomial
    x = np.array(seeds).astype(_LD)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    dp_prev = np.zeros_like(x)
    dp = np.zeros_like(x)
    for j in range(order):
        shift = x - a[j]
        p_next = (shift * p - b_prev[j] * p_prev) / b_next[j]
        dp_next = (p + shift * dp - b_prev[j] * dp_prev) / b_next[j]
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    x = x - p / dp

    # Christoffel weights from the orthonormal recurrence at the final nodes
    kernel = np.ones_like(x)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    for j in range(order - 1):
        p_next = ((x - a[j]) * p - b_prev[j] * p_prev) / b_next[j]
        p_prev, p = p, p_next
        kernel += p * p
    unit_weights = 1.0 / kernel

    bad = ~np.all(np.isfinite(x), axis=1) | np.any(np.diff(x, axis=1) <= 0, axis=1)
    if bad.any():
        raise RuleConstructionError(
            f"node refinement failed for order={order}, alpha={alphas[int(np.argmax(bad))]}"
        )
    rules = [
        QuadratureRule(order, a, nodes.copy(), w.copy()) for a, nodes, w in zip(alphas, x, unit_weights)
    ]
    for rule in rules:
        rule.nodes.flags.writeable = rule.unit_weights.flags.writeable = False
    return rules


def _rung_rules(order: int, alphas: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The padded nodes and the unit weights of the rules of ``order`` for
    ``alphas``, as ``(len(alphas), order)`` longdouble arrays."""
    rules = _cached_rules(order, alphas)
    weights = np.array([r.unit_weights for r in rules])
    return np.where(weights > 0, np.array([r.nodes for r in rules]), 0.0), weights


def _ladder(
    f: Callable[[np.ndarray], np.ndarray],
    alphas: list[float],
    tol: float,
    max_order: int,
    scales: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Order-doubling ladders for the unit-normalized integrals of ``f``, one
    per weight exponent in ``alphas``, run in lockstep; returns the values and
    their ``err``s.  ``f`` returns ``K`` rows, one per term, for the
    (complex) longdouble ``scales`` of shape ``(K, len(alphas))``: an entry's
    value and gauge are its rows' sums weighted by its column of ``scales``
    and of ``|scales|``, before the rounding to float64.  A single integrand
    is one row with the unit scale.

    Each rung (order 8, 16, 32, …) evaluates ``f`` once, on the flattened
    ``(entries, order)`` nodes of every entry still climbing, and sums each
    row.  ``err`` is the last successive difference, clipped from below by
    the rounding floor of the final sum.  An entry stops at the first rung
    whose difference is below ``tol`` or below its floor; at ``max_order`` it
    returns the best value seen with its floor-aware estimate.  The caller
    decides whether that is reliable.
    """
    if max_order < 8:
        raise DomainError(f"max_order must be >= 8, got {max_order}")
    alphas = np.array(alphas, dtype=float)
    values, prev, best = (np.zeros(alphas.size, dtype=complex) for _ in range(3))
    errs, best_err = np.full(alphas.size, math.inf), np.full(alphas.size, math.inf)
    active = np.arange(alphas.size)
    gauges = np.abs(scales)
    order = 8
    while active.size and order <= max_order:
        nodes, weights = _rung_rules(order, alphas[active].tolist())
        fx = np.asarray(f(nodes.ravel()))
        # reshaped after the product, so a scalar fx broadcasts; np.add.reduce
        # along a row is np.sum's pairwise sum of that row alone
        # in clongdouble even for a real fx, so every row has one summation order
        value = _row_sums(np.multiply(weights.ravel(), fx, dtype=_CLD), nodes.shape)
        gauge = _row_sums(weights.ravel() * np.abs(fx), nodes.shape)
        value = np.add.reduce(value * scales, axis=0)
        gauge = np.add.reduce(gauge * gauges, axis=0)
        # a sum past float64 reads inf, and inf − inf nan, without a warning
        with np.errstate(all="ignore"):
            value, floor = value.astype(complex), _FLOOR_FACTOR * _EPS_LD * gauge.astype(float)
            if order > 8:
                diff = value - prev[active]
                # hypot is Python's complex abs; np.abs can differ from it by an ulp
                est = np.hypot(diff.real, diff.imag)
                err = np.maximum(est, floor)
                better = (est < best_err[active]) | (order == 16)  # the first is the best yet
                best[active[better]], best_err[active[better]] = value[better], err[better]
                # below the floor, refinement only re-rounds; err is then the floor
                stop = (est < tol) | (est < floor)
                values[active[stop]], errs[active[stop]] = value[stop], err[stop]
                active, value = active[~stop], value[~stop]
                scales, gauges = scales[:, ~stop], gauges[:, ~stop]
        prev[active] = value
        order *= 2
    if order > 16:
        values[active], errs[active] = best[active], best_err[active]
    else:  # a single rung gives no estimate
        values[active] = prev[active]
    return values, errs


def _row_sums(products: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The sums of each row of ``shape`` in the last axis of ``products``."""
    return np.add.reduce(products.reshape(products.shape[:-1] + shape), axis=-1)


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
    :class:`NonFiniteResultError` is raised when the value overflows float64.
    """
    _check_alpha(alpha)
    values, errs = _ladder(f, [float(alpha)], tol, max_order, np.ones((1, 1), dtype=_LD))
    scale = float(_gamma_scale(alpha))  # inf past the float64 range
    value = complex(values[0]) * scale
    if not np.isfinite(value):
        raise NonFiniteResultError(f"weighted integral overflows float64 at alpha = {alpha}")
    return value, float(errs[0]) * scale


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
                    "gamma": complex_to_json(v),
                    "abs_err": float(e),
                }
                for n, (v, e) in enumerate(zip(self.values, self.abs_err))
            ],
            "unreliable": list(self.unreliable),
        }


def _rising(a: np.ndarray, m: int) -> np.ndarray:
    """Rising factorial ``(a)_m = a(a+1)…(a+m−1)``, multiplied as ``(a+m−1)…a``.

    An overflowing product comes back as ``inf``, without a warning.  Every
    64 factors the loop stops if each entry is ``inf`` with a positive ``a``,
    which no later factor can change.
    """
    r = a + (m - 1) if m else np.ones_like(a)
    with np.errstate(over="ignore"):
        for j in range(m - 2, -1, -1):
            r *= a + j
            if j % 64 == 63 and np.all(np.isinf(r) & (a > 0)):
                break
    return r


def _scale(w, lam, power):
    """``c^{power}``, ``c = 1 − λ`` formed in clongdouble, and a bound on the error of
    ``w·c^{power}``, ``2·|power|·(eps_ld·|w·log c| + |w·δ/c|)·|c^{power}|``: twice the power's
    error and that of ``c``'s rounding ``δ``, found exactly by TwoSum (0 if ``1 − Re λ`` fits)."""
    c, w = 1 - _CLD(lam), _CLD(w)
    back = c.real - 1
    delta = (1 - (c.real - back)) + (-lam.real - back)
    scale = c**power
    if abs(c) > 1:  # |c|^{−power} past the longdouble range reads nan: the scale underflows to 0
        scale[~np.isfinite(scale)] = 0
    return scale, 2 * (_EPS_LD * abs(w * np.log(c)) + abs(w * delta / c)) * abs(scale) * -power


def _gamma_closed(terms, n_entries: int):
    """Closed-form γ of terms ``w·(n+1)_m·(1−λ)^{−(n+1)}``, ``n < n_entries``; its abs_err,
    ``16·eps·Σ_k |term_k|`` plus the bounds of :func:`_scale`; and each term's ``(scale,
    bound)`` from :func:`_scale`, None where ``λ = 0``.  No term has both ``m > 0`` and
    ``λ ≠ 0``: rising factorials are summed in complex128, scales in clongdouble and rounded
    once.  Entries past float64 come back non-finite, unwarned."""
    power = np.arange(-1, -n_entries - 1, -1, dtype=_LD)
    monomials, gauge = np.zeros(n_entries, dtype=complex), np.zeros(n_entries)
    powers, power_err = np.zeros(n_entries, dtype=_CLD), np.zeros(n_entries, dtype=_LD)
    with np.errstate(all="ignore"):  # overflow is reported by the caller, not warned
        pairs = [_scale(w, lam, power) if lam else None for w, _m, lam in terms]
        for (w, m, lam), pair in zip(terms, pairs):
            if pair:
                scale, bound = pair
                powers += w * scale
                power_err += _GAUGE_FACTOR * abs(w) * abs(scale) + bound
            else:
                term = w * _rising(np.arange(1.0, n_entries + 1), m)
                monomials += term
                gauge += np.abs(term)
        values = monomials + powers.astype(complex)
        return values, _GAUGE_FACTOR * gauge + power_err.astype(float), pairs


def _underflow_floor(abs_err: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """``abs_err`` raised to at least 2^−1074 where ``magnitude`` is below
    2^−1021: there both parts of a complex float64 may be subnormal, each
    rounded to a multiple of 2^−1074 (or to 0), which u·|γ| does not cover."""
    return np.maximum(abs_err, np.where(magnitude < _UNDERFLOW, _SUBNORMAL, 0.0))


def _first_overflow(values: np.ndarray) -> int:
    """Index of the first non-finite entry, or ``len(values)`` if none."""
    bad = np.flatnonzero(~np.isfinite(values))
    return int(bad[0]) if bad.size else len(values)


def _check_finite(path: str, values: np.ndarray, n_entries: int) -> None:
    """:class:`NonFiniteResultError` naming the first of ``n_entries`` entries
    that ``values`` leaves non-finite or out."""
    first = _first_overflow(values)
    if first < n_entries:
        hint = f"; request at most {first} entries" if first else ""
        raise NonFiniteResultError(f"{path} gamma overflows float64 at n = {first}{hint}")


def gamma_sequence(
    symbol: Symbol,
    n_entries: int,
    tol: float = DEFAULT_TOL,
    method: str = "closed",
    max_order: int = MAX_ORDER,
) -> GammaSequence:
    """γ_a(n) for ``n < n_entries`` with per-entry error estimates.

    ``method`` selects the computation path: ``"closed"`` uses the
    term-by-term closed forms, which exist for the whole representable
    family, and ``"quadrature"`` forces generalized Gauss–Laguerre with
    weight exponent ``α = n`` for each ``n``.  The quadrature path runs the order ladders of
    every ``n`` in lockstep: each rung builds its missing rules in one batch
    into the per-process cache of :func:`build_rule` (so a later sequence
    over the same ``n`` builds no rule again) and evaluates the profile once
    for all ``n`` still climbing.  Either path raises
    :class:`NonFiniteResultError`, naming the first ``n``, when an entry
    overflows float64; the quadrature path also does so where the closed
    form overflows but the rule's nodes do not reach that far.
    """
    if n_entries < 1:
        raise DomainError("need at least one gamma entry")
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    terms = _radial_in(symbol, SymbolClass.L1_INF_WEIGHTED, "gamma integrals") or ((0j, 0, 0j),)
    if method not in ("closed", "quadrature"):
        raise DomainError(f"unknown gamma method: {method!r}")

    closed, abs_err, pairs = _gamma_closed(terms, n_entries)
    if method == "closed":
        _check_finite("closed-form", closed, n_entries)
        abs_err = _underflow_floor(abs_err, np.abs(closed))
        return GammaSequence(closed, abs_err, source=describe(symbol), tol=tol, method="closed")

    # Entries from closed_end on overflow float64 even where the ladder's
    # nodes cannot reach the mass that makes them overflow, so they are not
    # integrated.  Unit weights already divide by Γ(n+1): each sum is γ(n).
    # Each term w·u^m e^{λu} is one row.  A decaying term has its mass near
    # n/|c|, c = 1 − λ, where the rule of uⁿe^{−u} has few nodes; in v = c·u
    # (a ray rotated by Cauchy's theorem if λ is complex) its row is the
    # constant w, with the closed form's scale and bound.  Other rows are w·vᵐe^{λv}.
    closed_end = _first_overflow(closed)
    rows, scales = [], np.ones((len(terms), closed_end), dtype=_CLD)
    power_err = np.zeros(closed_end, dtype=_LD)
    for (w, m, lam), scale, pair in zip(terms, scales, pairs):
        if lam.real < 0:
            scale[:] = pair[0][:closed_end]
            power_err += pair[1][:closed_end]
            lam = 0
        rows.append((m, _CLD(lam)))
    weights = np.array([[w] for w, _m, _lam in terms], dtype=_CLD)
    constant = not any(m or rate for m, rate in rows)

    def profile(v):
        fx = weights if constant else np.repeat(weights, v.size, axis=1)
        for row, (m, rate) in zip(fx, rows):
            if m:
                row *= v.astype(_CLD) ** m
            if rate:
                row *= np.exp(rate * v)
        return fx

    values, abs_err = _ladder(profile, [float(n) for n in range(closed_end)], tol, max_order, scales)
    _check_finite("quadrature", values, n_entries)
    abs_err = _underflow_floor(abs_err + power_err.astype(float), np.abs(values))
    return GammaSequence(values, abs_err, source=describe(symbol), tol=tol, method="quadrature")
