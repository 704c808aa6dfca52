"""Tests for the generalized Gauss–Laguerre rules and γ-sequences.

Reference values are frozen from an independent 50-digit direct
integration of (1/n!) ∫ a(√u) uⁿ e^{−u} du.
"""
from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gammaln

from fock_toeplitz import (
    BivariatePolynomial,
    DivergenceError,
    DomainError,
    NonFiniteResultError,
    QuadratureRule,
    RadialExponential,
    RadialMonomial,
    build_rule,
    gamma_sequence,
    integrate_weighted,
)
from fock_toeplitz.quadrature import DEFAULT_TOL, MAX_ORDER

LAM_EXAMPLE = complex(2.0, 4.0) / 5.0

GAMMA_MILD = {  # λ = 0.25 + 0.25i
    0: 1.2 + 0.4j,
    10: -12.22857719808 - 5.13651245056j,
    40: 12397.516570707636 + 8952.197766580787j,
}
GAMMA_EXAMPLE = {  # λ = (2+4i)/5
    0: 0.6 + 0.8j,
    10: -0.71409248256 - 0.70005137408j,
    40: 0.9492379047050355 + 0.3145590568894717j,
}


class TestBuildRule:
    def test_single_node_rule(self):
        for alpha in (0.0, 3.0):
            rule = build_rule(1, alpha)
            np.testing.assert_allclose(np.asarray(rule.nodes, dtype=float), [alpha + 1.0])
            np.testing.assert_allclose(np.asarray(rule.unit_weights, dtype=float), [1.0])
            np.testing.assert_allclose(
                np.asarray(rule.weights, dtype=float), [math.gamma(alpha + 1.0)]
            )

    def test_order_two_rule(self):
        rule = build_rule(2, 0.0)
        np.testing.assert_allclose(
            np.asarray(rule.nodes, dtype=float),
            [2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)],
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            np.asarray(rule.unit_weights, dtype=float),
            [(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0],
            rtol=1e-14,
        )

    @pytest.mark.parametrize("order,alpha", [(4, 0.0), (8, 1.0), (16, 2.5), (64, 0.0)])
    def test_polynomial_exactness(self, order, alpha):
        rule = build_rule(order, alpha)
        degrees = sorted(set(range(0, 2 * order, max(1, order // 3))) | {2 * order - 1})
        for p in degrees:
            got = rule.integrate(lambda u: u**p)
            expected = math.exp(gammaln(alpha + p + 1.0) - gammaln(alpha + 1.0))
            np.testing.assert_allclose(got.real, expected, rtol=1e-12, err_msg=f"p={p}")
            assert abs(got.imag) <= 1e-12 * expected

    def test_exactness_degree_is_sharp(self):
        rule = build_rule(4, 0.0)
        got = rule.integrate(lambda u: u**8).real
        assert abs(got - math.factorial(8)) > 1e-6 * math.factorial(8)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            build_rule(0, 0.0)
        with pytest.raises(DomainError):
            build_rule(4, -1.0)

    def test_nodes_increase_and_unit_weights_normalize(self):
        rule = build_rule(48, 1.5)
        nodes = np.asarray(rule.nodes, dtype=float)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(np.asarray(rule.unit_weights, dtype=float) >= 0)
        np.testing.assert_allclose(float(np.sum(rule.unit_weights)), 1.0, rtol=1e-15)

    def test_construction_is_deterministic(self):
        cached = build_rule(32, 7.0)
        build_rule.cache_clear()
        fresh = build_rule(32, 7.0)
        assert fresh is not cached
        assert np.array_equal(cached.nodes, fresh.nodes)
        assert np.array_equal(cached.unit_weights, fresh.unit_weights)


class TestRuleCache:
    def test_integer_and_float_alpha_share_one_rule(self):
        assert build_rule(32, 7) is build_rule(32, 7.0)
        assert build_rule(32, 7).alpha == 7.0

    def test_cached_arrays_are_read_only(self):
        rule = build_rule(16, 3.0)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.unit_weights[0] = 0.0
        assert build_rule(16, 3.0).nodes[0] > 0.0

    def test_invalid_arguments_are_not_cached(self):
        build_rule.cache_clear()
        with pytest.raises(DomainError):
            build_rule(8, -1.0)
        with pytest.raises(DomainError):
            build_rule(0, 1.0)
        assert build_rule.cache_info().currsize == 0

    def test_one_evaluation_gives_the_plain_sums(self):
        rule = build_rule(64, 5.0)
        calls = []

        def f(u):
            calls.append(u.size)
            return np.exp(LAM_EXAMPLE * u.astype(np.clongdouble))

        value, gauge = rule.integrate_with_gauge(f)
        assert calls == [64]
        fx = f(rule.nodes)
        w = rule.unit_weights
        assert value == complex(np.sum(w.astype(np.clongdouble) * fx))
        assert gauge == float(np.sum(w * np.abs(fx)).real)

    def test_zero_weight_nodes_never_reach_the_integrand(self):
        ld = np.longdouble
        rule = QuadratureRule(
            order=2,
            alpha=0.0,
            nodes=np.array([1.0, 2.0], dtype=ld),
            unit_weights=np.array([1.0, 0.0], dtype=ld),
        )
        assert rule.integrate_with_gauge(lambda u: 1.0 / (u - 2.0)) == (-1.0 + 0.0j, 1.0)

    def test_worked_example_is_bit_identical_cold_and_warm(self):
        symbol = RadialExponential(LAM_EXAMPLE)
        build_rule.cache_clear()
        cold = gamma_sequence(symbol, 41, method="quadrature")
        built = build_rule.cache_info().misses
        warm = gamma_sequence(symbol, 41, method="quadrature")
        assert build_rule.cache_info().misses == built > 0
        assert np.array_equal(cold.values, warm.values)
        assert np.array_equal(cold.abs_err, warm.abs_err)

    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, fock_toeplitz.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_commands_without_quadrature_load_no_scipy(self):
        # one interpreter runs every subcommand that builds no rule
        code = """
import contextlib, io, sys
from fock_toeplitz.cli import main
R2 = '{"kind": "radial_monomial", "m": 1}'
EX = '{"kind": "radial_exponential", "lambda": {"re": 0.4, "im": 0.8}}'
P = '{"kind": "poly", "terms": [{"j": 2, "k": 1, "c": 1.0}]}'
calls = [
    ["classify", "--theta", "1.28+0.96i"],
    ["gamma", "--symbol", EX, "-N", "16", "--method", "closed"],
    ["compose", "--phi", EX, "--psi", EX, "-N", "40"],
    ["wick", "--symbol", R2, "-N", "48", "--points", "5"],
    ["heat", "--symbol", R2, "--t", "1.0"],
    ["diamond", "--phi", P, "--psi", P],
    ["matrix", "--symbol", P, "-N", "6"],
    ["spectrum", "--symbol", EX, "-N", "12"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0] []"


class TestIntegrateWeighted:
    def test_constant(self):
        value, err = integrate_weighted(lambda u: np.ones_like(u), 0.0)
        np.testing.assert_allclose(complex(value).real, 1.0, rtol=1e-13)
        assert err <= 1e-10

    def test_extra_exponential_decay(self):
        # ∫ e^{−u} · e^{−u} du = 1/2
        value, err = integrate_weighted(lambda u: np.exp(-u), 0.0)
        np.testing.assert_allclose(complex(value).real, 0.5, rtol=1e-12)
        assert err <= 1e-10

    def test_raw_normalization(self):
        value, _ = integrate_weighted(lambda u: u**2, 1.5)
        np.testing.assert_allclose(complex(value).real, math.gamma(4.5), rtol=1e-12)

    def test_oscillatory_integrand(self):
        # ∫ e^{iu} e^{−u} du = 1/(1−i)
        value, err = integrate_weighted(lambda u: np.exp(1j * u.astype(np.clongdouble)), 0.0)
        np.testing.assert_allclose(complex(value), 0.5 + 0.5j, rtol=1e-12)
        assert err <= 1e-10

    def test_unreachable_tolerance_is_flagged(self):
        _, err = integrate_weighted(lambda u: np.exp(-u), 0.0, tol=1e-30)
        assert err > 1e-30


class TestGammaSequence:
    def test_module_constants(self):
        assert DEFAULT_TOL == 1e-12
        assert MAX_ORDER == 512

    def test_constant_symbol(self):
        g = gamma_sequence(RadialMonomial(0), 8)
        np.testing.assert_allclose(g.values, np.ones(8), rtol=1e-14)
        assert g.method == "closed"
        assert g.unreliable == ()

    def test_degree_one_monomial_both_methods(self):
        expected = np.arange(1, 13, dtype=float)
        closed = gamma_sequence(RadialMonomial(1), 12, method="closed")
        np.testing.assert_allclose(closed.values, expected, rtol=1e-13)
        quad = gamma_sequence(RadialMonomial(1), 12, method="quadrature")
        np.testing.assert_allclose(quad.values, expected, rtol=1e-12)
        assert quad.method == "quadrature"

    def test_mild_exponential_against_frozen_values(self):
        g = gamma_sequence(RadialExponential(0.25 + 0.25j), 41, method="closed")
        for n, ref in GAMMA_MILD.items():
            np.testing.assert_allclose(g.values[n], ref, rtol=1e-12)

    def test_mild_exponential_quadrature_agrees_with_closed(self):
        closed = gamma_sequence(RadialExponential(0.25 + 0.25j), 41, method="closed")
        quad = gamma_sequence(RadialExponential(0.25 + 0.25j), 41, method="quadrature")
        scale = np.abs(closed.values)
        assert np.max(np.abs(quad.values - closed.values) / scale) <= 1e-10

    def test_example_exponential_against_frozen_values(self):
        g = gamma_sequence(RadialExponential(LAM_EXAMPLE), 41, method="closed")
        for n, ref in GAMMA_EXAMPLE.items():
            np.testing.assert_allclose(g.values[n], ref, rtol=1e-12)

    def test_diagonal_polynomial_symbol(self):
        # z²z̄² has radial profile r⁴, hence γ(n) = (n+1)(n+2)
        g = gamma_sequence(BivariatePolynomial({(2, 2): 1.0}), 10, method="quadrature")
        n = np.arange(10)
        np.testing.assert_allclose(g.values.real, (n + 1.0) * (n + 2.0), rtol=1e-11)

    def test_real_nonnegative_symbol_gives_real_nonnegative_gamma(self):
        from fock_toeplitz import Combination

        s = Combination(((0.5, RadialMonomial(0)), (1.0, RadialMonomial(1))))
        g = gamma_sequence(s, 16)
        assert np.max(np.abs(g.values.imag)) <= 1e-14
        assert np.all(g.values.real >= 0.0)

    def test_error_estimates_are_honest_for_the_example(self):
        closed = gamma_sequence(RadialExponential(LAM_EXAMPLE), 41, method="closed")
        quad = gamma_sequence(RadialExponential(LAM_EXAMPLE), 41, method="quadrature", tol=1e-8)
        dev = np.abs(quad.values - closed.values)
        assert np.max(dev) <= 1e-9
        assert quad.unreliable == ()
        assert np.all(quad.abs_err > 0.0)

    def test_unreachable_tolerance_marks_entries_unreliable(self):
        g = gamma_sequence(RadialExponential(LAM_EXAMPLE), 30, method="quadrature", tol=1e-30)
        assert len(g.unreliable) > 0

    @pytest.mark.parametrize("method", ["quadrature", "closed"])
    def test_overflow_raises_and_names_the_first_entry(self, method):
        # γ(n) = (n+200)!/n! exceeds float64 from n = 0 on
        with pytest.raises(NonFiniteResultError, match=r"overflows float64 at n = 0$"):
            gamma_sequence(RadialMonomial(200), 4, method=method)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            gamma_sequence(BivariatePolynomial({(1, 0): 1.0}), 4)
        with pytest.raises(DivergenceError):
            gamma_sequence(RadialExponential(1.2), 4)
        with pytest.raises(DomainError):
            gamma_sequence(RadialMonomial(0), 0)
        with pytest.raises(DomainError):
            gamma_sequence(RadialMonomial(0), 4, method="magic")

    def test_quadrature_runs_are_deterministic(self):
        a = gamma_sequence(RadialExponential(LAM_EXAMPLE), 12, method="quadrature")
        b = gamma_sequence(RadialExponential(LAM_EXAMPLE), 12, method="quadrature")
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.abs_err, b.abs_err)

    def test_json_shape(self):
        g = gamma_sequence(RadialMonomial(1), 3)
        payload = g.to_json()
        assert payload["method"] == "closed"
        assert [e["n"] for e in payload["entries"]] == [0, 1, 2]
        assert payload["entries"][2]["gamma"]["re"] == pytest.approx(3.0)
