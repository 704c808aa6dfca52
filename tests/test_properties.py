"""Property-based tests of the identities the calculus rests on.

- the diamond product is a γ-homomorphism on polynomial-radial symbols;
- the heat transforms form a semigroup, ``H_s ∘ H_t = H_{s+t}``;
- every quadrature γ of a sum of ``c·r^{2m}`` and ``c·e^{λr²}`` with
  ``Re λ ≤ 1/2`` is within its ``abs_err`` (plus the float64 rounding of the
  value) of 40-digit mpmath, fast decays included, and so is every entry of
  a sum of complex decays up to n ≈ 1000, into float64's subnormal range;
- the audit's boundedness verdicts agree with γ evaluated exactly at
  ``n = 10⁴``;
- the composed symbol τ read off the factors' terms has the product
  γ-sequence, and a single exponential product's Wick rate is exact;
- every symbol survives a round trip through its rendered JSON;
- the one walk over a symbol's terms answers the structural questions
  (radial?, merged terms, polynomial form, class membership, value) exactly
  as the recursive per-variant code it replaced, kept here as the reference;
- CLI stdout parses as JSON whenever the exit code is 0, and is empty
  otherwise.

Run with ``HYPOTHESIS_PROFILE=ci`` for the derandomized profile that CI uses.
"""
from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fock_toeplitz import (
    BivariatePolynomial,
    Combination,
    DomainError,
    RadialExponential,
    RadialMonomial,
    SymbolClass,
    audit_hypotheses,
    compose_radial,
    diamond,
    evaluate,
    gamma_sequence,
    heat_transform,
    is_radial,
    membership,
    radial_terms,
    symbol_from_json,
    symbol_to_json,
    to_polynomial,
)
from fock_toeplitz.cli import main, render_json

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
small_complexes = st.builds(complex, small, small)
nonzero_complexes = small_complexes.filter(lambda c: abs(c) > 1e-3)

monomials = st.builds(RadialMonomial, st.integers(0, 5))
exponentials = st.builds(RadialExponential, st.builds(complex, small, small))
polynomials = st.builds(
    BivariatePolynomial,
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), complexes, max_size=5),
)
atoms = st.one_of(monomials, exponentials, polynomials)
weighted_atoms = st.lists(st.tuples(nonzero_complexes, atoms), min_size=1, max_size=4)
symbols = st.one_of(atoms, st.builds(Combination, weighted_atoms.map(tuple)))


def polynomial_radial(max_degree: int = 3):
    """``Σ c_m r^{2m}`` with one to three terms of degree ≤ ``max_degree``."""
    term = st.tuples(nonzero_complexes, st.builds(RadialMonomial, st.integers(0, max_degree)))
    return st.builds(Combination, st.lists(term, min_size=1, max_size=3).map(tuple))


def _gauge(symbol: Combination, n: np.ndarray) -> np.ndarray:
    """``Σ |c_m| (n+1)_m``: the γ-sequence of the symbol with |coefficients|."""
    total = np.zeros(len(n))
    for c, mono in symbol.terms:
        total += abs(c) * np.prod([n + 1.0 + i for i in range(mono.m)], axis=0)
    return total


@settings(max_examples=60)
@given(polynomial_radial(), polynomial_radial())
def test_diamond_is_a_gamma_homomorphism(phi, psi):
    n_entries = 20
    g_phi = gamma_sequence(phi, n_entries).values
    g_psi = gamma_sequence(psi, n_entries).values
    g_tau = gamma_sequence(diamond(phi, psi), n_entries).values
    n = np.arange(n_entries, dtype=float)
    # the diamond terms of r^6 ◇ r^6 reach 63 times their γ-product at n = 0,
    # so 1e-12 of the |c|-weighted product leaves room for their rounding
    bound = 1e-12 * _gauge(phi, n) * _gauge(psi, n)
    assert np.all(np.abs(g_tau - g_phi * g_psi) <= bound)


times = st.floats(min_value=0.05, max_value=1.0)


@given(polynomials, times, times)
# a subnormal coefficient: one subnormal step of rounding separates the sides
@example(BivariatePolynomial({(1, 1): 2.225073858507e-311j}), 0.5, 0.25)
def test_heat_semigroup_on_polynomials(p, s, t):
    once = heat_transform(p, s + t).coefficients
    twice = heat_transform(heat_transform(p, t), s).coefficients
    # H_{s+t} of |p| sums the same terms without cancellation
    gauge = heat_transform(
        BivariatePolynomial({k: abs(c) for k, c in p.coefficients.items()}), s + t
    ).coefficients
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    for key in set(once) | set(twice):
        diff = abs(once.get(key, 0j) - twice.get(key, 0j))
        assert diff <= 64 * (eps * abs(gauge[key]) + tiny), key


@given(st.builds(complex, st.floats(-2.0, 0.3), st.floats(-2.0, 2.0)), times, times)
def test_heat_semigroup_on_exponentials(lam, s, t):
    # Re λ ≤ 0.3 and s, t ≤ 1 keep both sides inside the convergence region
    symbol = RadialExponential(lam)
    once = heat_transform(symbol, s + t)
    twice = heat_transform(heat_transform(symbol, t), s)
    for z in (0.0, 0.7 - 0.2j, 1.5j, 2.0):
        a, b = evaluate(once, z), evaluate(twice, z)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


_coefficients = st.builds(cmath.rect, st.floats(0.1, 10.0), st.floats(-math.pi, math.pi))


def _distinct_terms(atoms):
    """One to three terms ``(c, atom)`` with distinct atoms: the program merges
    like terms in float64, and the reference would not."""
    return st.lists(
        st.tuples(_coefficients, atoms),
        min_size=1,
        max_size=3,
        unique_by=lambda t: (t[1].m, 0j) if isinstance(t[1], RadialMonomial) else (0, t[1].lam),
    )


def _exponentials(lo: float, hi: float):
    return st.builds(RadialExponential, st.builds(complex, st.floats(lo, hi), st.floats(-1.0, 1.0)))


# Decaying sums, with real Gaussians drawn apart; then mixes of monomials and
# rates from decays at Re λ = −6 up to growth at Re λ = 1/2.  Each decaying
# term is integrated in its own rate-matched variable, in any profile, and
# every other term in its plain row, so a fast decay beside a constant is
# certified too (1 + e^{−4r²} missed abs_err at n = 16 under one plain rule).
_certified_terms = st.one_of(
    _distinct_terms(
        st.one_of(
            _exponentials(-6.0, -1e-3),
            st.builds(RadialExponential, st.floats(-6.0, -1e-3).map(complex)),
        )
    ),
    _distinct_terms(
        st.one_of(_exponentials(-6.0, 0.5), st.builds(RadialMonomial, st.integers(0, 3)))
    ),
)


def _gamma_mpmath(terms, n: int) -> mpmath.mpc:
    """γ(n) of ``Σ c·atom`` at the working precision: ``c·(n+1)_m`` for
    ``r^{2m}``, ``c·(1−λ)^{−(n+1)}`` for ``e^{λr²}``."""
    return sum(
        mpmath.mpc(c) * mpmath.rf(n + 1, atom.m)
        if isinstance(atom, RadialMonomial)
        else mpmath.mpc(c) * (1 - mpmath.mpc(atom.lam)) ** -(n + 1)
        for c, atom in terms
    )


@settings(max_examples=60, deadline=None)
@given(_certified_terms, st.integers(1, 43))
@example([(1.0, RadialExponential(-1.89))], 43)
@example([(1.0, RadialExponential(-3.0))], 43)
@example([(1.0, RadialExponential(complex(-6.0, 0.5)))], 43)
@example([(1.0, RadialMonomial(0)), (1.0, RadialExponential(-4.0))], 43)
@example([(1.0, RadialMonomial(1)), (1.0, RadialExponential(-3.0))], 43)
@example([(0.7, RadialMonomial(2)), (1.3, RadialExponential(complex(-6.0, 0.5)))], 43)
@example([(1.0, RadialMonomial(1)), (-0.5, RadialExponential(0.2))], 41)
@example([(1.0, RadialExponential(0.3 + 0.2j)), (0.5, RadialExponential(0.1 - 0.4j))], 41)
# λ = 1 − 11^{−1/11}: the two terms cancel at n = 10, so a bound on |γ| misses
@example([(0.7 + 0.3j, RadialMonomial(1)), (-0.7 - 0.3j, RadialExponential(0.19586690249633565))], 16)
@pytest.mark.parametrize("method", ["closed", "quadrature"])
def test_gamma_abs_err_bounds_the_error(method, terms, n_entries):
    g = gamma_sequence(Combination(tuple(terms)), n_entries, method=method)
    with mpmath.workdps(40):
        for n, (v, e) in enumerate(zip(g.values, g.abs_err)):
            ref = _gamma_mpmath(terms, n)
            assert abs(mpmath.mpc(v) - ref) <= e + 2.0**-53 * abs(ref), n


_decays = st.builds(
    RadialExponential,
    st.builds(complex, st.floats(-6.0, -np.finfo(float).smallest_subnormal), st.floats(-2.5, 2.5)),
)


# Decays alone, Re λ ∈ [−6, 0), up to n ≈ 1000: each rotated row is a
# constant, so long sequences are cheap, and they reach float64's subnormal
# range (|1 − λ|^{−(n+1)} < 2^{−1022}), where abs_err bounds the rounding.
@settings(max_examples=25, deadline=None)
@given(_distinct_terms(_decays), st.integers(1, 1000))
@example([(1.0, RadialExponential(complex(-0.3, 0.9)))], 200)
@example([(1.0, RadialExponential(-3.0))], 700)
def test_quadrature_abs_err_bounds_the_error_of_decays_into_underflow(terms, n_entries):
    g = gamma_sequence(Combination(tuple(terms)), n_entries, method="quadrature")
    with mpmath.workdps(40):
        betas = [1 / (1 - mpmath.mpc(atom.lam)) for _c, atom in terms]
        powers = [mpmath.mpc(c) for c, _atom in terms]
        for n, (v, e) in enumerate(zip(g.values, g.abs_err)):
            powers = [p * b for p, b in zip(powers, betas)]  # c·(1−λ)^{−(n+1)}
            ref = sum(powers)
            assert abs(mpmath.mpc(v) - ref) <= e + 2.0**-53 * abs(ref), n


# Rates with |1 − λ| ≥ 0.71 keep |γ| below about 1e298 up to n = 2000.
_long_rates = st.builds(complex, st.floats(-3.0, 0.5), st.floats(-1.0, 1.0)).filter(
    lambda lam: abs(1 - lam) >= 0.71
)


# The closed forms over long sequences, where the power (1 − λ)^{−(n+1)}
# carries the error; the quadrature ladders of oscillatory terms are too slow
# at these n.  The rates of the first three examples missed the flat bound
# 16·eps·|γ| in most entries when the power was taken in float64, and
# e^{−1e308 r²} rounded γ(0) into the subnormal range twice.
@settings(max_examples=20, deadline=None)
@given(
    _distinct_terms(
        st.one_of(st.builds(RadialExponential, _long_rates), st.builds(RadialMonomial, st.integers(0, 3)))
    ),
    st.integers(1, 2000),
)
@example([(1.0, RadialExponential(0.4 + 0.8j))], 1500)
@example([(1.0, RadialExponential(-0.3 + 0.9j))], 1500)
@example([(1.0, RadialExponential(-0.01 + 0.02j))], 1500)
@example([(1.0, RadialExponential(-1e308))], 4)
def test_closed_abs_err_bounds_the_error_of_long_sequences(terms, n_entries):
    g = gamma_sequence(Combination(tuple(terms)), n_entries, method="closed")
    with mpmath.workdps(40):
        for n, (v, e) in enumerate(zip(g.values, g.abs_err)):
            ref = _gamma_mpmath(terms, n)
            assert abs(mpmath.mpc(v) - ref) <= e + 2.0**-53 * abs(ref), n


# 1 − λ needs 87 bits for λ = −1e−10, so clongdouble rounds c = 1 − λ by up to
# 2^−64 relative, an error of up to (n+1)·2^−64 in γ(n) whatever |log c| is.
# Past n ≈ 65 000 that exceeds 16·eps·|γ|; every 997th entry is checked.
@pytest.mark.parametrize("lam", [-1e-10, complex(-3e-7, 1e-9), 1e-12])
def test_closed_abs_err_bounds_the_rounding_of_one_minus_lambda(lam):
    g = gamma_sequence(RadialExponential(lam), 200_000, method="closed")
    with mpmath.workdps(40):
        for n in range(0, len(g), 997):
            ref = (1 - mpmath.mpc(lam)) ** -(n + 1)
            assert abs(mpmath.mpc(g.values[n]) - ref) <= g.abs_err[n] + 2.0**-53 * abs(ref), n


# A term of a factor is (c, (m, k, t)): c·r^{2m} when k = 0, else c·e^{λr²}
# with β = 1/(1−λ) = exp(k/100 + i·t·π/8).  So |log|β|| ≥ 0.01 and every
# product of rates is again on the grid: equal rates have equal keys (k, t).
_grid_terms = st.lists(
    st.tuples(
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
        st.one_of(
            st.tuples(st.integers(0, 2), st.just(0), st.just(0)),
            st.tuples(
                st.just(0),
                st.one_of(st.integers(-60, -1), st.integers(1, 20)),
                st.integers(-3, 3),
            ),
        ),
    ),
    min_size=1,
    max_size=3,
)


def _grid_symbol(terms) -> Combination:
    def atom(m, k, t):
        if k == 0:
            return RadialMonomial(m)
        return RadialExponential(1.0 - cmath.exp(-complex(k / 100, t * math.pi / 8)))

    return Combination(tuple((c, atom(*key)) for c, key in terms))


def _bounded_at_ten_thousand(*factors) -> bool:
    """Whether the product of the factors' γ stays small at n = 10⁴…10⁴+15.

    Terms of equal key are summed in integers, then each rate is raised in
    mpmath.  A bounded sequence here is at most Σ|c·d| ≤ 81 in modulus (its
    decaying part is below e^{−100}·n⁴); an unbounded one has grown by n ≥ 10⁴
    or by e^{100}, so 10³ separates them.
    """
    biggest = 0
    with mpmath.workdps(30):
        for n in range(10_000, 10_016):
            groups: dict[tuple[int, int], int] = {}
            for combo in itertools.product(*factors):
                key = (sum(k for _c, (_m, k, _t) in combo), sum(t for _c, (_m, _k, t) in combo))
                weight = math.prod(
                    c * math.prod(range(n + 1, n + 1 + m)) for c, (m, _k, _t) in combo
                )
                groups[key] = groups.get(key, 0) + weight
            value = sum(
                w * mpmath.exp(mpmath.mpf(k) / 100 + 1j * t * mpmath.pi / 8) ** (n + 1)
                for (k, t), w in groups.items()
            )
            biggest = max(biggest, abs(value))
    return biggest < 1e3


@given(_grid_terms, _grid_terms)
def test_boundedness_verdicts_match_gamma_at_ten_thousand(phi_terms, psi_terms):
    report = audit_hypotheses(_grid_symbol(phi_terms), _grid_symbol(psi_terms), n_entries=16)
    assert report.hyp1_bounded_psi.bounded is _bounded_at_ten_thousand(psi_terms)
    assert report.hyp2_product_bounded.bounded is _bounded_at_ten_thousand(phi_terms, psi_terms)


def _merged_grid(terms) -> dict:
    """The grid terms with equal keys summed in integers, zeros dropped."""
    merged: dict[tuple[int, int, int], int] = {}
    for c, key in terms:
        merged[key] = merged.get(key, 0) + c
    return {key: c for key, c in merged.items() if c}


def _grid_gauge(terms, n: np.ndarray) -> np.ndarray:
    """``Σ |c|·(n+1)_m·|β|^{n+1}``: the γ-sequence with |c| and |β| in place of c and β."""
    return sum(
        abs(c) * np.prod([n + 1.0 + i for i in range(m)], axis=0) * math.exp(k / 100) ** (n + 1)
        for c, (m, k, _t) in terms
    )


@given(_grid_terms, _grid_terms)
def test_tau_is_read_off_the_factors_terms(phi_terms, psi_terms):
    phi, psi = _merged_grid(phi_terms), _merged_grid(psi_terms)
    has_monomial = [any(m for m, _k, _t in f) for f in (phi, psi)]
    has_exponential = [any(k for _m, k, _t in f) for f in (phi, psi)]
    mixed = (has_monomial[0] and has_exponential[1]) or (has_monomial[1] and has_exponential[0])
    # Re λ_τ = 1 − e^{−k/100}·cos(tπ/8) of a product of exponentials is ≥ 1
    # iff |t| ≥ 4; at |t| = 4 it is 1 to rounding, and products of different
    # pairs that cancel in integers need not cancel in floats: no verdict then
    rates: dict[tuple[int, int], int] = {}
    for (_m, k1, t1), c in phi.items():
        for (_n, k2, t2), d in psi.items():
            if k1 and k2:
                rates[(k1 + k2, t1 + t2)] = rates.get((k1 + k2, t1 + t2), 0) + c * d
    decided = mixed or all(abs(t) != 4 and (abs(t) < 4 or w) for (_k, t), w in rates.items())
    outside = any(abs(t) > 4 for (_k, t), w in rates.items() if w)

    report = compose_radial(_grid_symbol(phi_terms), _grid_symbol(psi_terms), n_entries=16)
    tau = report.reconstructed_tau
    if decided:
        assert (tau is None) is (mixed or outside)
    if tau is not None:
        n = np.arange(16, dtype=float)
        bound = 1e-12 * _grid_gauge(phi_terms, n) * _grid_gauge(psi_terms, n)
        assert np.all(np.abs(gamma_sequence(tau, 16).values - report.gamma_tau.values) <= bound)
    if any(has_monomial):
        assert report.obstruction is None
    elif len(phi) == len(psi) == 1:
        with mpmath.workdps(30):
            k, t = (sum(key[i] for key in (*phi, *psi)) for i in (1, 2))
            want = 1 - mpmath.exp(mpmath.mpf(k) / 100 + 1j * t * mpmath.pi / 8)
        assert abs(report.obstruction.theta - complex(want)) <= 1e-13


@given(symbols)
def test_symbol_json_round_trip(symbol):
    text = render_json(symbol_to_json(symbol))
    assert symbol_from_json(json.loads(text)) == symbol
    assert symbol_from_json(symbol_to_json(symbol)) == symbol


# ---------------------------------------------------------------------------
# the term walk against the recursive per-variant code it replaced


def ref_is_radial(symbol) -> bool:
    if isinstance(symbol, (RadialMonomial, RadialExponential)):
        return True
    if isinstance(symbol, BivariatePolynomial):
        return symbol.is_radial()
    return all(ref_is_radial(s) for _, s in symbol.terms)


def ref_radial_terms(symbol):
    if not ref_is_radial(symbol):
        raise DomainError("symbol is not radial")

    def collect(sym, weight, acc) -> None:
        if isinstance(sym, RadialMonomial):
            key = (sym.m, 0j)
            acc[key] = acc.get(key, 0j) + weight
        elif isinstance(sym, RadialExponential):
            key = (0, sym.lam)
            acc[key] = acc.get(key, 0j) + weight
        elif isinstance(sym, BivariatePolynomial):
            for (j, _k), c in sym.coefficients.items():
                key = (j, 0j)
                acc[key] = acc.get(key, 0j) + weight * c
        else:
            for w, s in sym.terms:
                collect(s, weight * w, acc)

    acc: dict = {}
    collect(symbol, 1.0 + 0j, acc)
    out = [(c, m, lam) for (m, lam), c in acc.items() if c != 0]
    out.sort(key=lambda t: (t[1], t[2].real, t[2].imag))
    return tuple(out)


def ref_to_polynomial(symbol) -> BivariatePolynomial:
    if isinstance(symbol, BivariatePolynomial):
        return symbol
    if isinstance(symbol, RadialMonomial):
        return BivariatePolynomial({(symbol.m, symbol.m): 1.0})
    if isinstance(symbol, Combination):
        coeffs: dict = {}
        for w, s in symbol.terms:
            for key, c in ref_to_polynomial(s).coefficients.items():
                coeffs[key] = coeffs.get(key, 0j) + w * c
        return BivariatePolynomial(coeffs)
    raise DomainError("exponential symbols have no polynomial form")


def ref_growth_rate(symbol) -> float:
    if ref_is_radial(symbol):
        terms = ref_radial_terms(symbol)
        return max(lam.real for _c, _m, lam in terms) if terms else -math.inf
    if isinstance(symbol, BivariatePolynomial):
        return 0.0 if symbol.coefficients else -math.inf
    return max(ref_growth_rate(s) for _w, s in symbol.terms)


def ref_membership(symbol, space) -> tuple[bool, str]:
    rho = ref_growth_rate(symbol)
    member, cond = {
        SymbolClass.L1_INF_WEIGHTED: (rho < 1.0, "Re(lambda) < 1"),
        SymbolClass.L2_INF_WEIGHTED: (2.0 * rho < 1.0, "2 Re(lambda) < 1"),
        SymbolClass.GROWTH_DELTA_HALF: (rho < 0.5, "Re(lambda) < 1/2"),
    }[space]
    witness = (
        f"exponential growth rate max Re(lambda) = {rho:g}; "
        f"convergence requires {cond}; polynomial factors are immaterial"
    )
    return member, witness


def ref_evaluate(symbol, z: complex) -> tuple[complex, float]:
    """The value at ``z`` and the gauge ``Σ|term|``."""
    if isinstance(symbol, RadialMonomial):
        value = complex(abs(z) ** (2 * symbol.m))
        return value, abs(value)
    if isinstance(symbol, RadialExponential):
        value = cmath.exp(symbol.lam * (z.real * z.real + z.imag * z.imag))
        return value, abs(value)
    if isinstance(symbol, BivariatePolynomial):
        zb = z.conjugate()
        terms = [c * z**j * zb**k for (j, k), c in symbol.coefficients.items()]
        return sum(terms, 0j), sum(abs(t) for t in terms)
    parts = [(w, *ref_evaluate(s, z)) for w, s in symbol.terms]
    return sum((w * v for w, v, _ in parts), 0j), sum(abs(w) * g for w, _, g in parts)


def _raises_domain_error(function, symbol):
    try:
        return False, function(symbol)
    except DomainError:
        return True, None


radial_polynomials = st.builds(
    BivariatePolynomial,
    st.dictionaries(st.integers(0, 4).map(lambda m: (m, m)), complexes, max_size=3),
)
tree_atoms = st.one_of(
    monomials, exponentials, polynomials, radial_polynomials, st.just(RadialExponential(0j))
)


def _with_cancelling(terms, pair_with):
    """The weighted terms, plus ``(−w, s)`` for each term that ``pair_with`` picks."""
    cancelled = tuple((-w, s) for keep, (w, s) in zip(pair_with, terms) if keep)
    return Combination(tuple(terms) + cancelled)


def weighted(children):
    return st.lists(st.tuples(nonzero_complexes, children), min_size=1, max_size=3)


symbol_trees = st.recursive(
    tree_atoms,
    lambda children: st.one_of(
        weighted(children).map(tuple).map(Combination),
        st.builds(_with_cancelling, weighted(children), st.lists(st.booleans(), max_size=3)),
    ),
    max_leaves=8,
)


@settings(max_examples=300)
@given(symbol_trees)
@example(Combination(((1.0, RadialMonomial(0)), (-1.0, RadialExponential(0j)))))
@example(Combination(((1.0, RadialExponential(0.7)), (-1.0, RadialExponential(0.7)))))
# a subnormal value: the walk rounds the product once, the reference twice
@example(Combination(((2j, BivariatePolynomial({(1, 1): 5e-324j})),)))
def test_term_walk_matches_the_recursive_reference(symbol):
    assert is_radial(symbol) == ref_is_radial(symbol)
    for new, ref in ((radial_terms, ref_radial_terms), (to_polynomial, ref_to_polynomial)):
        got, expected = _raises_domain_error(new, symbol), _raises_domain_error(ref, symbol)
        assert got[0] == expected[0]
        if new is to_polynomial and not got[0]:
            # insertion order too: the diamond product sums in it
            assert list(got[1].coefficients.items()) == list(expected[1].coefficients.items())
        else:
            assert got == expected
    for space in SymbolClass:
        verdict = membership(symbol, space)
        assert (verdict.member, verdict.witness) == ref_membership(symbol, space)
    tiny = np.finfo(float).smallest_subnormal
    for z in (0.0, 0.7 - 0.2j, 1.5j, -1.2 + 0.9j):
        value, gauge = ref_evaluate(symbol, complex(z))
        assert abs(evaluate(symbol, z) - value) <= 1e-12 * gauge + 64 * tiny


def _no_constants(token: str):
    raise ValueError(f"{token} is not JSON")


# high degrees (1/k! and k! leave float64 from k = 171 on) and payloads that
# must be refused as usage errors
_HIGH_DEGREES = st.integers(0, 250)
_MALFORMED = (
    '{"kind": "poly", "terms": [{"j": 1e400, "k": 0}]}',
    '{"kind": "sum", "terms": [{"w": 1, "s": {"kind": "radial_monomial", "m": 0}}, 5]}',
    '{"kind": "sum", "terms": [{"w": 1, "s": ' * 1500 + '{"kind": "radial_monomial", "m": 0}'
    + "}]}" * 1500,
)
symbol_args = st.one_of(
    symbols.map(lambda s: json.dumps(symbol_to_json(s))),
    st.one_of(
        st.builds(RadialMonomial, _HIGH_DEGREES),
        st.builds(
            BivariatePolynomial,
            st.dictionaries(st.tuples(_HIGH_DEGREES, _HIGH_DEGREES), complexes, max_size=2),
        ),
    ).map(lambda s: json.dumps(symbol_to_json(s))),
    st.sampled_from(_MALFORMED),
)


# inputs that once printed a traceback or a RuntimeWarning, or exited
# nonzero on a well-defined result; DEEP_CONFIG stands for a file of 100 000 '['
_R400 = '{"kind": "radial_monomial", "m": 200}'
_GROWING = '{"kind": "radial_exponential", "lambda": {"re": 0.9, "im": 0}}'
_EDGE_CALLS = (
    ["classify", "--theta", "3", "--config", "DEEP_CONFIG"],
    ["diamond", "--phi", _R400, "--psi", '{"kind": "radial_monomial", "m": 0}'],
    ["heat", "--symbol", '{"kind": "poly", "terms": [{"j": 3, "k": 3, "c": 1e300}]}', "--t", "1000.0"],
    ["compose", "--phi", _GROWING, "--psi", _GROWING, "-N", "200"],
    [
        "compose", "--psi", '{"kind": "radial_monomial", "m": 0}', "-N", "60", "--phi",
        '{"kind": "sum", "terms": [{"w": 1e10, "s": {"kind": "radial_exponential", '
        '"lambda": {"re": -0.5, "im": 0}}}, {"w": 1, "s": {"kind": "radial_monomial", "m": 1}}]}',
    ],
)
cli_calls = st.one_of(
    st.sampled_from(_EDGE_CALLS),
    symbol_args.map(lambda s: ["gamma", "--symbol", s]),
    st.tuples(st.sampled_from(["closed", "quadrature"]), symbol_args).map(
        lambda a: ["gamma", "--symbol", a[1], "--method", a[0], "-N", "12"]
    ),
    symbol_args.map(lambda s: ["spectrum", "--symbol", s, "-N", "16"]),
    symbol_args.map(lambda s: ["matrix", "--symbol", s, "-N", "4"]),
    st.tuples(symbol_args, st.floats(0.05, 2.0)).map(
        lambda a: ["heat", "--symbol", a[0], "--t", repr(a[1])]
    ),
    st.tuples(symbol_args, symbol_args).map(
        lambda a: ["diamond", "--phi", a[0], "--psi", a[1]]
    ),
    st.tuples(symbol_args, st.floats(0.0, 4.0), st.integers(0, 8)).map(
        lambda a: [
            "wick", "--symbol", a[0], "-N", "24",
            "--r-max", repr(a[1]), "--points", str(a[2]),
        ]
    ),
    st.tuples(symbol_args, symbol_args).map(
        lambda a: ["compose", "--phi", a[0], "--psi", a[1], "-N", "12"]
    ),
    st.builds(complex, finite, finite).map(
        lambda c: ["classify", "--theta", f"{c.real!r}{c.imag:+}i"]
    ),
)


@pytest.fixture(scope="module")
def deep_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    return str(path)


@settings(max_examples=60, deadline=None)
@given(argv=cli_calls)
@example(argv=_EDGE_CALLS[0])
@example(argv=_EDGE_CALLS[1])
@example(argv=_EDGE_CALLS[2])
@example(argv=_EDGE_CALLS[3])
@example(argv=_EDGE_CALLS[4])
def test_cli_stdout_is_json_or_the_exit_code_is_nonzero(deep_config, argv):
    argv = [deep_config if a == "DEEP_CONFIG" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constants)
    else:
        assert code in (2, 3, 4), err.getvalue()
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
