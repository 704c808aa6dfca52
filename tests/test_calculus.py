"""Tests for the diamond product, Wick series, heat transform, and the
Gaussian fit.

Heat-transform values are checked against literals frozen from an
independent high-precision radial convolution (Bessel-kernel integral), and
the non-radial branch is cross-checked against the coherent-state ratio.
"""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from fock_toeplitz import (
    AccuracyError,
    BivariatePolynomial,
    Combination,
    DivergenceError,
    DomainError,
    GammaSequence,
    NonFiniteResultError,
    RadialExponential,
    RadialMonomial,
    RadialPowerSeries,
    audit_worked_example,
    diamond,
    evaluate,
    fit_gaussian_wick,
    gamma_sequence,
    heat_transform,
    safe_fit_radius,
    toeplitz_matrix,
    wick_from_gamma,
    wick_symbol_numeric,
)
from fock_toeplitz.calculus import _series_tail

R2 = RadialMonomial(1)  # the symbol |z|²

# Frozen from a 50-digit radial convolution ∫ a(ρ) e^{−(ρ²+r²)/t} I₀(2ρr/t) (2ρ/t) dρ
HEAT_EXP_T07 = {  # a = e^{(0.3+0.2i) r²}, t = 0.7
    0.0: 1.227279788721454 + 0.2174926207860805j,
    1.3: 1.649523325920068 + 1.390738383641418j,
}
HEAT_R4_T06_R11 = 5.0881  # a = r⁴, t = 0.6, r = 1.1


def poly_coeffs(symbol) -> dict:
    assert isinstance(symbol, BivariatePolynomial)
    return symbol.coefficients


class TestDiamond:
    def test_constant_is_neutral(self):
        phi = BivariatePolynomial({(2, 1): 1.5, (0, 1): -2.0j})
        one = RadialMonomial(0)
        assert diamond(phi, one) == phi
        assert diamond(one, phi) == phi

    def test_analytic_right_factor_multiplies(self):
        # ψ holomorphic ⇒ every contraction vanishes
        out = diamond(R2, BivariatePolynomial({(1, 0): 1.0}))
        assert poly_coeffs(out) == {(2, 1): 1.0}

    def test_antianalytic_left_factor_multiplies(self):
        out = diamond(BivariatePolynomial({(0, 2): 1.0}), R2)
        assert poly_coeffs(out) == {(1, 3): 1.0}

    def test_degree_one_square(self):
        out = diamond(R2, R2)
        assert poly_coeffs(out) == {(2, 2): 1.0, (1, 1): -1.0}

    def test_order_matters(self):
        z = BivariatePolynomial({(1, 0): 1.0})
        left = diamond(R2, z)
        right = diamond(z, R2)
        assert poly_coeffs(left) == {(2, 1): 1.0}
        assert poly_coeffs(right) == {(2, 1): 1.0, (1, 0): -1.0}

    def test_bilinearity_is_exact(self):
        rng = np.random.default_rng(20240813)
        for _ in range(5):
            def rand_poly():
                coeffs = {}
                for _ in range(3):
                    j, k = rng.integers(0, 4, size=2)
                    coeffs[(int(j), int(k))] = complex(*rng.integers(-3, 4, size=2))
                return BivariatePolynomial(coeffs)

            f1, f2, g = rand_poly(), rand_poly(), rand_poly()
            a, b = 2.0, -1.0 + 1.0j
            combined = diamond(
                BivariatePolynomial(
                    {
                        key: a * f1.coefficients.get(key, 0) + b * f2.coefficients.get(key, 0)
                        for key in set(f1.coefficients) | set(f2.coefficients)
                    }
                ),
                g,
            )
            separate: dict = {}
            for weight, part in ((a, diamond(f1, g)), (b, diamond(f2, g))):
                for key, c in part.coefficients.items():
                    separate[key] = separate.get(key, 0j) + weight * c
            separate = {k: v for k, v in separate.items() if v != 0}
            assert poly_coeffs(combined) == separate

    def test_gamma_homomorphism_single_pair(self):
        phi, psi = RadialMonomial(2), RadialMonomial(3)
        product = diamond(phi, psi)
        g_phi = gamma_sequence(phi, 24).values
        g_psi = gamma_sequence(psi, 24).values
        g_prod = gamma_sequence(product, 24).values
        np.testing.assert_allclose(g_prod, g_phi * g_psi, rtol=1e-11)

    def test_exponential_factor_is_rejected(self):
        with pytest.raises(DomainError):
            diamond(RadialExponential(0.1), R2)

    def test_overflow_names_the_term(self):
        # 1/k! leaves float64 from k = 171 on; both factors reach it
        with pytest.raises(NonFiniteResultError, match=r"term z\^200\*zbar\^200 of phi"):
            diamond(RadialMonomial(200), RadialMonomial(200))

    def test_the_sum_stops_at_the_zbar_degree_of_psi(self):
        # ∂_z̄^k ψ vanishes for k > deg_z̄ ψ, so 1/k! is never formed there
        assert diamond(RadialMonomial(200), RadialMonomial(0)).coefficients == {(200, 200): 1.0}
        zbar = BivariatePolynomial({(0, 1): 1.0})
        assert diamond(RadialMonomial(200), zbar).coefficients == {
            (200, 201): 1.0,
            (199, 200): -200.0,
        }


class TestWickSeries:
    def test_constant_sequence_gives_constant_symbol(self):
        g = gamma_sequence(RadialMonomial(0), 40)
        for r in (0.0, 1.0, 2.0):
            np.testing.assert_allclose(wick_from_gamma(g, r), 1.0, rtol=1e-12)

    def test_degree_one_sequence(self):
        g = gamma_sequence(R2, 48)
        for r in (0.0, 0.5, 1.5):
            np.testing.assert_allclose(wick_from_gamma(g, r), 1.0 + r * r, rtol=1e-11)

    def test_contracting_exponential_closed_form(self):
        g = gamma_sequence(RadialExponential(-1.0), 48)
        for r in (0.0, 0.7, 1.5):
            np.testing.assert_allclose(
                wick_from_gamma(g, r), 0.5 * math.exp(-0.5 * r * r), rtol=1e-11
            )

    def test_short_prefix_is_refused_with_guidance(self):
        g = gamma_sequence(RadialMonomial(0), 8)
        with pytest.raises(AccuracyError, match="terms would suffice"):
            wick_from_gamma(g, 3.0)

    def test_tail_bound_is_honest(self):
        short = gamma_sequence(RadialExponential(-1.0), 24)
        long = gamma_sequence(RadialExponential(-1.0), 64)
        r = 1.9
        bound = _series_tail(r * r, len(short), math.log(np.max(np.abs(short.values))))
        got = abs(wick_from_gamma(short, r) - wick_from_gamma(long, r))
        assert got <= bound

    @pytest.mark.parametrize(
        "symbol, n_entries, r",
        [
            (RadialMonomial(0), 8, 3.0),  # max|γ| = 1
            (RadialMonomial(1), 10, 2.0),  # max|γ| = 10
            (RadialExponential(0.3), 12, 2.5),  # growing geometric
            (RadialExponential(-1.25), 10, 2.5),  # max|γ| = 1/2.25 < 1
            (RadialExponential(-9.0), 6, 2.0),  # max|γ| = 0.1: a bound of max|γ| · tail
        ],
    )
    def test_suggested_terms_meet_the_refusing_bound(self, symbol, n_entries, r):
        g = gamma_sequence(symbol, n_entries)
        tol = 1e-10
        with pytest.raises(AccuracyError) as info:
            wick_from_gamma(g, r, tol=tol)
        needed = int(re.search(r"~(\d+) terms would suffice", str(info.value)).group(1))
        log_peak = math.log(float(np.max(np.abs(g.values))))
        assert _series_tail(r * r, needed, log_peak) <= tol
        assert _series_tail(r * r, needed // 2, log_peak) > tol


    @pytest.mark.parametrize("r", [5000.0, float("nan")])
    def test_hint_past_the_doubling_cap_names_no_count(self, r):
        # the doubling stops at 131072 terms, whose tail bound at r = 5000 is
        # still inf; a nan radius meets no bound at all
        g = gamma_sequence(RadialMonomial(0), 8)
        assert _series_tail(r * r, 131072, 0.0) == math.inf
        with pytest.raises(AccuracyError) as info:
            wick_from_gamma(g, r)
        assert str(info.value).endswith("; more than 100000 terms are needed")
        assert "would suffice" not in str(info.value)


def _scalar_eval(series: RadialPowerSeries, r: float) -> complex:
    """``RadialPowerSeries.eval`` as the scalar loop it was, without the tail check."""
    x = float(r) * float(r)
    total = 0j
    weight = 1.0  # x^n / n!
    for n, g in enumerate(series.gamma.values):
        total += g * weight
        weight *= x / (n + 1.0)
    return math.exp(-x) * total


class TestVectorisedSeries:
    @staticmethod
    def _bits(values) -> np.ndarray:
        return np.array(values, dtype=complex).view(np.uint64)

    def _assert_bit_identical(self, gamma: GammaSequence) -> None:
        series = RadialPowerSeries(gamma)
        radii = np.linspace(0.0, safe_fit_radius(gamma), 50)
        got = [series.eval(float(r)) for r in radii]
        ref = [_scalar_eval(series, float(r)) for r in radii]
        assert np.array_equal(self._bits(got), self._bits(ref))

    def test_worked_example_is_bit_identical_to_the_scalar_loop(self):
        report = audit_worked_example(n_entries=41)
        self._assert_bit_identical(report.composition.gamma_tau)
        self._assert_bit_identical(report.gamma_quadrature)

    @pytest.mark.parametrize("rate", [0.25, 0.5, 1.0, 1.25, 2.0 - 0.5j, 0.3 + 1.1j])
    def test_gaussian_sequences_are_bit_identical_to_the_scalar_loop(self, rate):
        for n_entries in (12, 48, 64):
            self._assert_bit_identical(gamma_sequence(RadialExponential(-rate), n_entries))

    def test_empty_sequence_evaluates_to_zero(self):
        empty = GammaSequence(values=[], abs_err=[], source="empty", tol=1e-12, method="closed")
        for r in (0.0, 1.5, 40.0):
            assert RadialPowerSeries(empty).eval(r) == 0
            assert wick_from_gamma(empty, r) == 0


class TestHeatTransform:
    def test_time_must_be_positive_and_finite(self):
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                heat_transform(R2, t)

    def test_constant_is_fixed(self):
        out = heat_transform(RadialMonomial(0), 1.0)
        for z in (0.0, 1.0 + 1.0j):
            np.testing.assert_allclose(evaluate(out, z), 1.0, rtol=1e-14)

    def test_unit_time_degree_one(self):
        out = heat_transform(R2, 1.0)
        assert poly_coeffs(out) == {(0, 0): 1.0, (1, 1): 1.0}

    def test_monomial_against_frozen_convolution(self):
        out = heat_transform(RadialMonomial(2), 0.6)
        # closed form r⁴ + 4t r² + 2t²
        assert poly_coeffs(out) == pytest.approx({(2, 2): 1.0, (1, 1): 2.4, (0, 0): 0.72})
        np.testing.assert_allclose(evaluate(out, 1.1), HEAT_R4_T06_R11, rtol=1e-12)

    def test_nonradial_polynomial_coefficients(self):
        out = heat_transform(BivariatePolynomial({(2, 1): 1.0}), 0.5)
        assert poly_coeffs(out) == pytest.approx({(2, 1): 1.0, (1, 0): 1.0})

    def test_nonradial_matches_coherent_ratio(self):
        # the heat transform at t = 1 is the Wick symbol of the Toeplitz operator
        phi = BivariatePolynomial({(2, 1): 1.0, (0, 1): -0.5j})
        smoothed = heat_transform(phi, 1.0)
        op = toeplitz_matrix(phi, 48)
        for z in (0.4, 1.0 + 0.4j, -0.8j):
            np.testing.assert_allclose(
                wick_symbol_numeric(op, z, z), evaluate(smoothed, z), rtol=1e-9, atol=1e-12
            )

    def test_exponential_against_frozen_convolution(self):
        out = heat_transform(RadialExponential(0.3 + 0.2j), 0.7)
        for r, ref in HEAT_EXP_T07.items():
            np.testing.assert_allclose(evaluate(out, r), ref, rtol=1e-12)

    def test_exponential_divergence_threshold(self):
        with pytest.raises(DivergenceError):
            heat_transform(RadialExponential(1.5), 1.0)
        with pytest.raises(DivergenceError):
            heat_transform(RadialExponential(2.5), 0.5)
        # just inside the threshold is fine
        heat_transform(RadialExponential(1.9), 0.5)

    def test_overflow_names_the_term(self):
        with pytest.raises(NonFiniteResultError, match=r"at the term z\^200\*zbar\^200$"):
            heat_transform(RadialMonomial(200), 0.7)
        # 1 − tλ overflows, so 1/(1 − tλ) would be 0 and no weight would survive
        with pytest.raises(NonFiniteResultError, match=r"at the term exp\("):
            heat_transform(RadialExponential(-1e308), 1e10)
        with pytest.raises(NonFiniteResultError, match=r"at t=1e\+10 .* exp\("):
            heat_transform(Combination(((1.0, R2), (2.0, RadialExponential(-1e308)))), 1e10)
        # each factor is finite, their complex product is not
        with pytest.raises(NonFiniteResultError, match=r"at the term z\^3\*zbar\^3$"):
            heat_transform(BivariatePolynomial({(3, 3): 1e300}), 1000.0)

    def test_semigroup_on_exponential(self):
        lam = 0.4 - 0.3j
        s, t = 0.3, 0.5
        two_step = heat_transform(heat_transform(RadialExponential(lam), t), s)
        one_step = heat_transform(RadialExponential(lam), s + t)
        for r in (0.0, 0.8, 1.6):
            np.testing.assert_allclose(evaluate(two_step, r), evaluate(one_step, r), rtol=1e-12)

    def test_semigroup_on_polynomial(self):
        s, t = 0.25, 0.75
        phi = BivariatePolynomial({(2, 2): 1.0, (1, 0): 2.0})
        two_step = heat_transform(heat_transform(phi, t), s)
        one_step = heat_transform(phi, s + t)
        assert poly_coeffs(two_step) == pytest.approx(poly_coeffs(one_step))

    def test_linearity_over_combinations(self):
        combo = Combination(((2.0, RadialMonomial(1)), (1.0j, RadialExponential(-0.5))))
        out = heat_transform(combo, 0.8)
        for r in (0.0, 1.2):
            expected = 2.0 * evaluate(heat_transform(RadialMonomial(1), 0.8), r) + 1.0j * evaluate(
                heat_transform(RadialExponential(-0.5), 0.8), r
            )
            np.testing.assert_allclose(evaluate(out, r), expected, rtol=1e-13)


class TestGaussianWickFit:
    def test_recovers_contracting_exponential(self):
        g = gamma_sequence(RadialExponential(-0.5), 64)
        fit = fit_gaussian_wick(g)
        np.testing.assert_allclose(fit.amplitude, 2.0 / 3.0, rtol=1e-10)
        np.testing.assert_allclose(fit.rate, 1.0 / 3.0, rtol=1e-9)
        assert fit.residual <= 1e-10

    def test_recovers_complex_rate(self):
        lam = 0.2j
        g = gamma_sequence(RadialExponential(lam), 64)
        fit = fit_gaussian_wick(g)
        np.testing.assert_allclose(fit.amplitude, 1.0 / (1.0 - lam), rtol=1e-9)
        np.testing.assert_allclose(fit.rate, -lam / (1.0 - lam), rtol=1e-9)
        assert fit.residual <= 1e-9

    def test_non_gaussian_sequence_has_large_residual(self):
        g = gamma_sequence(R2, 64)
        fit = fit_gaussian_wick(g)
        assert fit.residual > 1e-3

    def test_grid_parameters_are_honored(self):
        g = gamma_sequence(RadialExponential(-0.5), 64)
        fit = fit_gaussian_wick(g, r_max=1.5, n_points=11)
        assert fit.grid_points == 11
        with pytest.raises(DomainError):
            fit_gaussian_wick(g, n_points=2)
