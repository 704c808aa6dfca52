"""Closed-form symbol functions on the complex plane.

A symbol is a function of ``z`` (and ``z̄``) drawn from a small closed-form
family: radial monomials ``r^{2m}``, radial exponentials ``e^{λr²}``,
bivariate polynomials ``Σ c_{jk} z^j z̄^k``, and finite linear combinations
of the above.  Restricting to this family keeps every class-membership
question decidable by inspecting integral convergence conditions instead of
sampling.

The module imports no numpy at load time; :func:`radial_profile`, the one
vectorized evaluator, imports it when called.
"""
from __future__ import annotations

import cmath
import enum
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Union

from .errors import DivergenceError, DomainError, NonFiniteResultError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RadialMonomial",
    "RadialExponential",
    "BivariatePolynomial",
    "Combination",
    "Symbol",
    "SymbolClass",
    "MembershipVerdict",
    "is_radial",
    "radial_terms",
    "to_polynomial",
    "evaluate",
    "radial_profile",
    "membership",
    "describe",
    "symbol_to_json",
    "symbol_from_json",
    "complex_to_json",
    "complex_from_json",
]


# ---------------------------------------------------------------------------
# symbol variants


@dataclass(frozen=True)
class RadialMonomial:
    """The radial symbol ``a(r) = r^{2m}``."""

    m: int

    def __post_init__(self) -> None:
        # int first: it is far cheaper than a test against the ABC, which numpy's ints need
        if not isinstance(self.m, (int, numbers.Integral)) or self.m < 0:
            raise ValueError(f"monomial exponent must be a nonnegative integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))


@dataclass(frozen=True)
class RadialExponential:
    """The radial symbol ``a(r) = e^{λ r²}``."""

    lam: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", complex(self.lam))
        if not cmath.isfinite(self.lam):
            raise ValueError(f"exponential rate must be finite, got {self.lam!r}")


@dataclass(frozen=True)
class BivariatePolynomial:
    """The symbol ``φ(z, z̄) = Σ c_{jk} z^j z̄^k`` with finitely many terms.

    ``coefficients`` maps ``(j, k)`` to ``c_{jk}``; exact zero coefficients
    are dropped at construction so the stored map is a normal form.  The
    empty map is the zero symbol.
    """

    coefficients: Mapping[tuple[int, int], complex]

    def __post_init__(self) -> None:
        clean: dict[tuple[int, int], complex] = {}
        for key, c in self.coefficients.items():
            j, k = key
            if j < 0 or k < 0 or j != int(j) or k != int(k):
                raise ValueError(f"polynomial powers must be nonnegative integers, got {key!r}")
            c = complex(c)
            if c != 0:
                clean[(int(j), int(k))] = c
        object.__setattr__(self, "coefficients", clean)

    def is_radial(self) -> bool:
        """True when only diagonal powers ``z^m z̄^m`` occur."""
        return all(j == k for j, k in self.coefficients)


@dataclass(frozen=True)
class Combination:
    """A finite weighted sum of symbols, kept flat (no nested combinations)."""

    terms: tuple[tuple[complex, "Symbol"], ...]

    def __post_init__(self) -> None:
        flat: list[tuple[complex, Symbol]] = []
        for w, s in self.terms:
            w = complex(w)
            if w == 0:
                continue
            if isinstance(s, Combination):
                flat.extend((w * wi, si) for wi, si in s.terms)
            else:
                flat.append((w, s))
        if not flat:
            raise ValueError("combination must contain at least one non-zero term")
        object.__setattr__(self, "terms", tuple(flat))


Symbol = Union[RadialMonomial, RadialExponential, BivariatePolynomial, Combination]


def _terms(symbol: Symbol):
    """Each term ``c · z^j z̄^k e^{λ|z|²}`` as ``(c, j, k, λ)``, with ``λ = None``
    for polynomial terms (so ``e^{0·r²}`` stays an exponential); weights are
    multiplied in and nothing is merged.  The one reader of the four variants."""
    if isinstance(symbol, Combination):
        for w, s in symbol.terms:
            for c, j, k, lam in _terms(s):
                yield w * c, j, k, lam
    elif isinstance(symbol, BivariatePolynomial):
        for (j, k), c in symbol.coefficients.items():
            yield c, j, k, None
    elif isinstance(symbol, RadialMonomial):
        yield 1.0 + 0j, symbol.m, symbol.m, None
    elif isinstance(symbol, RadialExponential):
        yield 1.0 + 0j, 0, 0, symbol.lam
    else:
        raise DomainError(f"not a symbol: {symbol!r}")


def is_radial(symbol: Symbol) -> bool:
    """Whether the symbol depends on ``z`` only through ``|z|``."""
    return all(j == k for _c, j, k, _lam in _terms(symbol))


def radial_terms(symbol: Symbol) -> tuple[tuple[complex, int, complex], ...]:
    """Decompose a radial symbol into terms ``c · r^{2m} e^{λr²}``.

    Returns tuples ``(c, m, λ)`` with like terms merged (polynomial terms
    have ``λ = 0``); terms whose merged coefficient is exactly zero are
    dropped.  Raises :class:`DomainError` for non-radial symbols.
    """
    acc: dict[tuple[int, complex], complex] = {}
    for c, j, k, lam in _terms(symbol):
        if j != k:
            raise DomainError(f"symbol is not radial: it has a term z^{j}*zbar^{k}")
        key = (j, 0j if lam is None else lam)
        acc[key] = acc.get(key, 0j) + c
    out = [(c, m, lam) for (m, lam), c in acc.items() if c != 0]
    out.sort(key=lambda t: (t[1], t[2].real, t[2].imag))
    return tuple(out)


def to_polynomial(symbol: Symbol) -> BivariatePolynomial:
    """Convert to a :class:`BivariatePolynomial`; ``r^{2m}`` becomes ``z^m z̄^m``.

    Exponential symbols have no polynomial form and raise :class:`DomainError`.
    """
    if isinstance(symbol, BivariatePolynomial):
        return symbol
    coeffs: dict[tuple[int, int], complex] = {}
    for c, j, k, lam in _terms(symbol):
        if lam is not None:
            raise DomainError("exponential symbols have no polynomial form")
        coeffs[(j, k)] = coeffs.get((j, k), 0j) + c
    return BivariatePolynomial(coeffs)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(symbol: Symbol, z: complex) -> complex:
    """Evaluate ``φ(z, z̄)`` term by term."""
    z = complex(z)
    zb, r2 = z.conjugate(), z.real * z.real + z.imag * z.imag
    try:
        value = 0j
        for c, j, k, lam in _terms(symbol):
            value += c * z**j * zb**k * (1.0 if lam is None else cmath.exp(lam * r2))
    except OverflowError as exc:
        raise NonFiniteResultError(f"symbol evaluation overflowed at z={z}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteResultError(f"symbol evaluation not finite at z={z}")
    return value


def radial_profile(symbol: Symbol, u: np.ndarray) -> np.ndarray:
    """Vectorized ``a(√u)`` for a radial symbol, i.e. the profile in ``u = r²``.

    Preserves the floating type of ``u`` (complex result), so extended
    precision survives when the caller passes ``np.longdouble`` nodes.
    """
    import numpy as np

    terms = radial_terms(symbol)
    u = np.asarray(u)
    out = np.zeros(u.shape, dtype=np.result_type(u.dtype, np.complex128))
    for c, m, lam in terms:
        term = np.asarray(u, dtype=out.dtype) ** m if m else np.ones_like(out)
        if lam != 0:
            term = term * np.exp(out.dtype.type(lam) * u)
        out += out.dtype.type(c) * term
    if not np.all(np.isfinite(out)):
        raise NonFiniteResultError("radial profile evaluation not finite")
    return out


# ---------------------------------------------------------------------------
# class membership


class SymbolClass(enum.Enum):
    """Weighted symbol classes with decidable membership.

    ``L1_INF_WEIGHTED``: ``∫|a(r)| e^{−r²} r^n dr < ∞`` for every ``n``.
    ``L2_INF_WEIGHTED``: ``∫|a(r)|² e^{−r²} r^{n+1} dr < ∞`` for every ``n``.
    ``GROWTH_DELTA_HALF``: ``|a(z)| ≤ C e^{δ|z|²}`` for some ``δ < 1/2``.
    """

    L1_INF_WEIGHTED = "L1InfWeighted"
    L2_INF_WEIGHTED = "L2InfWeighted"
    GROWTH_DELTA_HALF = "GrowthDeltaHalf"


@dataclass(frozen=True)
class MembershipVerdict:
    space: SymbolClass
    member: bool
    witness: str


# class -> (bound on the growth rate, the condition as the witness states it)
_RATE_BOUNDS = {
    SymbolClass.L1_INF_WEIGHTED: (1.0, "Re(lambda) < 1"),
    SymbolClass.L2_INF_WEIGHTED: (0.5, "2 Re(lambda) < 1"),
    SymbolClass.GROWTH_DELTA_HALF: (0.5, "Re(lambda) < 1/2"),
}


def _growth_rate(terms) -> float:
    """Largest Re(λ) over terms that end in λ (None for a polynomial term).

    Polynomial factors do not affect any of the convergence conditions, so
    the verdicts depend only on this rate.
    """
    return max((0.0 if t[-1] is None else t[-1].real for t in terms), default=-math.inf)


def membership(symbol: Symbol, space: SymbolClass) -> MembershipVerdict:
    """Exact class membership from closed-form convergence conditions."""
    # radial terms are merged first, so exactly cancelling ones do not inflate the rate
    rho = _growth_rate(radial_terms(symbol) if is_radial(symbol) else _terms(symbol))
    if space not in _RATE_BOUNDS:
        raise DomainError(f"unknown symbol class: {space!r}")
    bound, cond = _RATE_BOUNDS[space]
    witness = (
        f"exponential growth rate max Re(lambda) = {rho:g}; "
        f"convergence requires {cond}; polynomial factors are immaterial"
    )
    return MembershipVerdict(space=space, member=rho < bound, witness=witness)


def _radial_in(symbol: Symbol, space: SymbolClass, what: str):
    """The :func:`radial_terms` of a symbol in ``space``; :class:`DivergenceError`
    says that ``what`` diverge outside it."""
    terms = radial_terms(symbol)
    rho = _growth_rate(terms)
    bound, cond = _RATE_BOUNDS[space]
    if not rho < bound:
        raise DivergenceError(
            f"{what} diverge: max Re(lambda) = {rho:g} is outside the "
            f"{space.value} class, which requires {cond}"
        )
    return terms


# ---------------------------------------------------------------------------
# descriptions and JSON codec


def describe(symbol: Symbol) -> str:
    """Short human-readable form of the symbol."""
    if isinstance(symbol, RadialMonomial):
        return "1" if symbol.m == 0 else f"r^{2 * symbol.m}"
    if isinstance(symbol, RadialExponential):
        return f"exp(({_fmt_c(symbol.lam)})*r^2)"
    if isinstance(symbol, BivariatePolynomial):
        if not symbol.coefficients:
            return "0"
        parts = [
            f"({_fmt_c(c)})*z^{j}*zbar^{k}"
            for (j, k), c in sorted(symbol.coefficients.items())
        ]
        return " + ".join(parts)
    if isinstance(symbol, Combination):
        return " + ".join(f"({_fmt_c(w)})*[{describe(s)}]" for w, s in symbol.terms)
    return repr(symbol)


def _fmt_c(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:g}{sign}{abs(z.imag):g}i"


def complex_to_json(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, dict):
        try:
            return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed complex value: {obj!r}") from exc
    raise ValueError(f"malformed complex value: {obj!r}")


def symbol_to_json(symbol: Symbol) -> dict:
    """Encode a symbol as a JSON-compatible dict."""
    if isinstance(symbol, RadialMonomial):
        return {"kind": "radial_monomial", "m": symbol.m}
    if isinstance(symbol, RadialExponential):
        return {"kind": "radial_exponential", "lambda": complex_to_json(symbol.lam)}
    if isinstance(symbol, BivariatePolynomial):
        terms = [
            {"j": j, "k": k, "c": complex_to_json(c)}
            for (j, k), c in sorted(symbol.coefficients.items())
        ]
        return {"kind": "poly", "terms": terms}
    if isinstance(symbol, Combination):
        return {
            "kind": "sum",
            "terms": [{"w": complex_to_json(w), "s": symbol_to_json(s)} for w, s in symbol.terms],
        }
    raise DomainError(f"not a symbol: {symbol!r}")


def symbol_from_json(obj) -> Symbol:
    """Decode a symbol from its JSON dict form; raises ValueError when malformed."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"symbol JSON must be an object with a 'kind' field, got {obj!r}")
    kind = obj["kind"]
    if kind == "radial_monomial":
        if "m" not in obj:
            raise ValueError("radial_monomial needs field 'm'")
        return RadialMonomial(m=obj["m"])
    if kind == "radial_exponential":
        if "lambda" not in obj:
            raise ValueError("radial_exponential needs field 'lambda'")
        return RadialExponential(lam=complex_from_json(obj["lambda"]))
    if kind == "poly":
        terms = obj.get("terms", [])
        if not isinstance(terms, list):
            raise ValueError("poly 'terms' must be a list")
        coeffs: dict[tuple[int, int], complex] = {}
        for t in terms:
            try:
                j, k = int(t["j"]), int(t["k"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"malformed poly term: {t!r}") from exc
            coeffs[(j, k)] = coeffs.get((j, k), 0j) + complex_from_json(t.get("c", 1.0))
        return BivariatePolynomial(coeffs)
    if kind == "sum":
        terms = obj.get("terms", [])
        if not isinstance(terms, list) or not terms:
            raise ValueError("sum 'terms' must be a non-empty list")
        decoded = []
        for t in terms:
            if not isinstance(t, dict) or "s" not in t:
                raise ValueError(f"sum term needs a sub-symbol 's': {t!r}")
            decoded.append((complex_from_json(t.get("w", 1.0)), symbol_from_json(t["s"])))
        return Combination(tuple(decoded))
    raise ValueError(f"unknown symbol kind: {kind!r}")
