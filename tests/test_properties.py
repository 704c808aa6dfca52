"""Property-based tests of the identities the calculus rests on.

- the diamond product is a γ-homomorphism on polynomial-radial symbols;
- the heat transforms form a semigroup, ``H_s ∘ H_t = H_{s+t}``;
- every symbol survives a round trip through its rendered JSON;
- CLI stdout parses as JSON whenever the exit code is 0, and is empty
  otherwise.

Run with ``HYPOTHESIS_PROFILE=ci`` for the derandomized profile that CI uses.
"""
from __future__ import annotations

import contextlib
import io
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fock_toeplitz import (
    BivariatePolynomial,
    Combination,
    RadialExponential,
    RadialMonomial,
    diamond,
    evaluate,
    gamma_sequence,
    heat_transform,
    symbol_from_json,
    symbol_to_json,
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


@given(symbols)
def test_symbol_json_round_trip(symbol):
    text = render_json(symbol_to_json(symbol))
    assert symbol_from_json(json.loads(text)) == symbol
    assert symbol_from_json(symbol_to_json(symbol)) == symbol


def _no_constants(token: str):
    raise ValueError(f"{token} is not JSON")


def _symbol_arg(symbol) -> str:
    return json.dumps(symbol_to_json(symbol))


cli_calls = st.one_of(
    st.tuples(st.just("gamma"), symbols).map(lambda a: ["gamma", "--symbol", _symbol_arg(a[1])]),
    st.tuples(st.sampled_from(["closed", "quadrature"]), symbols).map(
        lambda a: ["gamma", "--symbol", _symbol_arg(a[1]), "--method", a[0], "-N", "12"]
    ),
    symbols.map(lambda s: ["spectrum", "--symbol", _symbol_arg(s), "-N", "16"]),
    symbols.map(lambda s: ["matrix", "--symbol", _symbol_arg(s), "-N", "4"]),
    st.tuples(symbols, st.floats(0.05, 2.0)).map(
        lambda a: ["heat", "--symbol", _symbol_arg(a[0]), "--t", repr(a[1])]
    ),
    st.tuples(symbols, symbols).map(
        lambda a: ["diamond", "--phi", _symbol_arg(a[0]), "--psi", _symbol_arg(a[1])]
    ),
    st.tuples(symbols, st.floats(0.0, 4.0), st.integers(0, 8)).map(
        lambda a: [
            "wick", "--symbol", _symbol_arg(a[0]), "-N", "24",
            "--r-max", repr(a[1]), "--points", str(a[2]),
        ]
    ),
    st.tuples(symbols, symbols).map(
        lambda a: ["compose", "--phi", _symbol_arg(a[0]), "--psi", _symbol_arg(a[1]), "-N", "12"]
    ),
    st.builds(complex, finite, finite).map(
        lambda c: ["classify", "--theta", f"{c.real!r}{c.imag:+}i"]
    ),
)


@settings(max_examples=60, deadline=None)
@given(cli_calls)
def test_cli_stdout_is_json_or_the_exit_code_is_nonzero(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_no_constants)
    else:
        assert code in (2, 3, 4), err.getvalue()
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
