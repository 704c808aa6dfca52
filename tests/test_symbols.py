"""Tests for symbol construction, membership, and moment sequences.

Closed-form values are cross-checked against live ``scipy.integrate.quad``
oracles; series values against literals frozen from an independent
high-precision summation.
"""
from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from fock_toeplitz import (
    BivariatePolynomial,
    Combination,
    DivergenceError,
    DomainError,
    NonFiniteResultError,
    RadialExponential,
    RadialMonomial,
    SymbolClass,
    a_series,
    evaluate,
    is_radial,
    membership,
    q_sequence,
    radial_terms,
    symbol_from_json,
    symbol_to_json,
    to_polynomial,
)
from fock_toeplitz.symbols import _a_series_terms, _pairwise_moments, describe, radial_profile

LAM_EXAMPLE = complex(2.0, 4.0) / 5.0


def q_oracle(profile, n: int) -> float:
    """Direct numerical moment: ∫ |f(r)|² e^{−r²} r^{n+1} dr.

    The cutoff at r = 26 keeps |f(r)|² finite in double precision for the
    profiles used here; the weighted integrand is far below 1e−50 by that
    point.
    """
    val, err = integrate.quad(
        lambda r: abs(profile(r)) ** 2 * math.exp(-r * r) * r ** (n + 1),
        0.0,
        26.0,
        limit=200,
    )
    assert err < 1e-8 * max(1.0, abs(val))
    return val


class TestConstruction:
    def test_monomial_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            RadialMonomial(-1)

    def test_polynomial_prunes_zero_coefficients(self):
        p = BivariatePolynomial({(1, 1): 1.0, (2, 0): 0.0})
        assert set(p.coefficients) == {(1, 1)}

    def test_polynomial_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            BivariatePolynomial({(-1, 0): 1.0})

    def test_combination_requires_terms(self):
        with pytest.raises(ValueError):
            Combination(())

    def test_combination_flattens_nested_terms(self):
        inner = Combination(((2.0, RadialMonomial(1)),))
        outer = Combination(((3.0, inner), (1.0, RadialMonomial(0))))
        weights = sorted(complex(w).real for w, _s in outer.terms)
        assert weights == [1.0, 6.0]

    def test_polynomial_radial_predicate(self):
        assert BivariatePolynomial({(2, 2): 1.0}).is_radial()
        assert not BivariatePolynomial({(2, 1): 1.0}).is_radial()


class TestRadialStructure:
    def test_is_radial_by_variant(self):
        assert is_radial(RadialMonomial(3))
        assert is_radial(RadialExponential(0.25j))
        assert is_radial(BivariatePolynomial({(1, 1): 2.0}))
        assert not is_radial(BivariatePolynomial({(1, 0): 1.0}))
        mixed = Combination(((1.0, RadialMonomial(1)), (1.0, BivariatePolynomial({(0, 1): 1.0}))))
        assert not is_radial(mixed)

    def test_radial_terms_merges_duplicates(self):
        s = Combination(
            (
                (2.0, RadialMonomial(1)),
                (3.0, RadialMonomial(1)),
                (1.0, RadialExponential(0.5j)),
            )
        )
        terms = radial_terms(s)
        # sorted by (degree, Re λ, Im λ): the pure exponential sorts first
        assert terms == ((1.0, 0, 0.5j), (5.0, 1, 0.0))

    def test_radial_terms_drops_cancelled_terms(self):
        s = Combination(((1.0, RadialMonomial(2)), (-1.0, RadialMonomial(2))))
        assert radial_terms(s) == ()

    def test_radial_terms_on_diagonal_polynomial(self):
        p = BivariatePolynomial({(1, 1): 2.0, (3, 3): -1.0})
        assert radial_terms(p) == ((2.0, 1, 0.0), ((-1.0), 3, 0.0))

    def test_to_polynomial_of_monomial(self):
        p = to_polynomial(RadialMonomial(2))
        assert p.coefficients == {(2, 2): 1.0}

    def test_to_polynomial_rejects_exponential(self):
        with pytest.raises(DomainError):
            to_polynomial(RadialExponential(0.1))


class TestEvaluate:
    def test_monomial_and_exponential_values(self):
        assert evaluate(RadialMonomial(1), 2.0j) == pytest.approx(4.0)
        np.testing.assert_allclose(
            evaluate(RadialExponential(0.5), 1.0 + 1.0j), math.exp(1.0), rtol=1e-14
        )

    def test_polynomial_value(self):
        p = BivariatePolynomial({(2, 1): 1.0, (0, 0): -3.0})
        z = 1.0 + 2.0j
        np.testing.assert_allclose(evaluate(p, z), z * z * z.conjugate() - 3.0, rtol=1e-14)

    def test_combination_is_weighted_sum(self):
        rng = np.random.default_rng(20240811)
        parts = (
            (1.5, RadialMonomial(2)),
            (-2.0j, RadialExponential(0.3 - 0.1j)),
            (0.5, BivariatePolynomial({(1, 0): 1.0})),
        )
        combo = Combination(parts)
        for _ in range(8):
            z = complex(*rng.normal(size=2))
            expected = sum(w * evaluate(s, z) for w, s in parts)
            np.testing.assert_allclose(evaluate(combo, z), expected, rtol=1e-13)

    def test_overflow_is_reported(self):
        with pytest.raises(NonFiniteResultError):
            evaluate(RadialExponential(2.0), 30.0)

    def test_radial_profile_matches_pointwise_evaluation(self):
        s = Combination(((1.0, RadialMonomial(2)), (2.0, RadialExponential(-0.5 + 0.2j))))
        u = np.array([0.0, 0.25, 1.0, 4.0])
        prof = radial_profile(s, u)
        expected = np.array([evaluate(s, math.sqrt(x)) for x in u])
        np.testing.assert_allclose(prof, expected, rtol=1e-13)


class TestMembership:
    def test_exponential_thresholds(self):
        cases = [
            (RadialExponential(LAM_EXAMPLE), SymbolClass.L1_INF_WEIGHTED, True),
            (RadialExponential(LAM_EXAMPLE), SymbolClass.L2_INF_WEIGHTED, True),
            (RadialExponential(LAM_EXAMPLE), SymbolClass.GROWTH_DELTA_HALF, True),
            (RadialExponential(0.75), SymbolClass.L1_INF_WEIGHTED, True),
            (RadialExponential(0.75), SymbolClass.L2_INF_WEIGHTED, False),
            (RadialExponential(0.75), SymbolClass.GROWTH_DELTA_HALF, False),
            (RadialExponential(1.0), SymbolClass.L1_INF_WEIGHTED, False),
            (RadialMonomial(5), SymbolClass.L2_INF_WEIGHTED, True),
            (BivariatePolynomial({(3, 1): 1.0}), SymbolClass.GROWTH_DELTA_HALF, True),
        ]
        for symbol, space, expected in cases:
            verdict = membership(symbol, space)
            assert verdict.member is expected, (symbol, space)
            assert verdict.space is space
            assert verdict.witness

    def test_verdicts_match_truncated_integrals(self):
        # A convergent weighted integral stabilizes between cutoffs 12 and 24;
        # a divergent one keeps growing.  Checked for n up to 10.  The cutoff
        # 24 is the largest for which e^{Re λ · r²} stays finite in double
        # precision for every λ below.
        cases = [
            (RadialExponential(LAM_EXAMPLE), SymbolClass.L1_INF_WEIGHTED),
            (RadialExponential(1.0), SymbolClass.L1_INF_WEIGHTED),
            (RadialExponential(0.5), SymbolClass.L2_INF_WEIGHTED),
            (RadialExponential(0.3), SymbolClass.L2_INF_WEIGHTED),
            (RadialMonomial(4), SymbolClass.L1_INF_WEIGHTED),
        ]
        for symbol, space in cases:
            verdict = membership(symbol, space)
            power = 2 if space is SymbolClass.L2_INF_WEIGHTED else 1
            for n in range(0, 11, 5):
                def integrand(r: float) -> float:
                    return abs(evaluate(symbol, r)) ** power * math.exp(-r * r) * r**n

                near, _ = integrate.quad(integrand, 0.0, 12.0, limit=400)
                far, _ = integrate.quad(integrand, 0.0, 24.0, limit=400)
                stabilized = abs(far - near) <= 1e-8 * max(1.0, abs(far))
                assert stabilized is verdict.member, (symbol, space, n)

    def test_cancellation_does_not_inflate_growth(self):
        s = Combination(((1.0, RadialExponential(0.9)), (-1.0, RadialExponential(0.9))))
        assert membership(s, SymbolClass.L2_INF_WEIGHTED).member


class TestQSequence:
    def test_constant_symbol_moments(self):
        q = q_sequence(RadialMonomial(0), 3)
        np.testing.assert_allclose(q[0], 0.5, rtol=1e-14)
        np.testing.assert_allclose(q[2], 0.5, rtol=1e-14)

    def test_exponential_example_first_moment(self):
        q = q_sequence(RadialExponential(LAM_EXAMPLE), 1)
        np.testing.assert_allclose(q[0], 2.5, rtol=1e-13)

    def test_against_direct_integration(self):
        symbols = [
            RadialExponential(LAM_EXAMPLE),
            RadialMonomial(2),
            Combination(((1.0, RadialMonomial(1)), (0.5, RadialExponential(-0.3 + 0.4j)))),
        ]
        for symbol in symbols:
            q = q_sequence(symbol, 6)
            for n in range(6):
                oracle = q_oracle(lambda r: evaluate(symbol, r), n)
                np.testing.assert_allclose(q[n], oracle, rtol=1e-9, err_msg=f"{symbol} n={n}")

    def test_requires_radial_symbol(self):
        with pytest.raises(DomainError):
            q_sequence(BivariatePolynomial({(1, 0): 1.0}), 4)

    def test_requires_square_integrable_growth(self):
        with pytest.raises(DivergenceError):
            q_sequence(RadialExponential(0.6), 4)

    def test_moments_are_real_and_nonnegative(self):
        q = q_sequence(RadialExponential(0.2 + 0.4j), 20)
        assert q.dtype == np.float64
        assert np.all(q >= 0.0)

    def test_overflow_raises_without_runtime_warning(self):
        s = Combination(((0.3, RadialMonomial(2)), (1.0, RadialExponential(-0.5 + 0.2j))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError):
                q_sequence(s, 500)


def _mp_moments(terms, n: int, log_weight=0):
    """``Σ_{i,j} ½ c_i c̄_j Γ(p) s^{−p} e^{log_weight}`` at the working precision,
    with its gauge ``Σ_{i,j} |·|``."""
    total, gauge = mpmath.mpc(0), mpmath.mpf(0)
    for ci, mi, lami in terms:
        for cj, mj, lamj in terms:
            s = 1 - mpmath.mpc(lami) - mpmath.mpc(lamj).conjugate()
            p = mi + mj + mpmath.mpf(n + 2) / 2
            term = mpmath.mpc(ci) * mpmath.mpc(cj).conjugate() / 2 * mpmath.gamma(p) * s ** (-p)
            term *= mpmath.exp(log_weight)
            total += term
            gauge += abs(term)
    return total, gauge


def _random_terms(rng) -> list[tuple[complex, int, complex]]:
    """One to three terms ``(c, m, λ)`` with ``Re λ < 1/2``."""
    return [
        (
            complex(rng.normal(), rng.normal()),
            int(rng.integers(0, 4)),
            complex(rng.uniform(-2.0, 0.45), rng.uniform(-1.5, 1.5)),
        )
        for _ in range(int(rng.integers(1, 4)))
    ]


def _random_symbols(rng):
    """Sums of monomials and exponentials, so that ``radial_terms`` carries
    ``(c, m, 0)`` and ``(c, 0, λ)`` terms side by side."""
    parts = []
    for c, m, lam in _random_terms(rng):
        parts.append((c, RadialMonomial(m)))
        parts.append((c * 1j, RadialExponential(lam)))
    return Combination(tuple(parts))


class TestPairwiseMomentsAgainstMpmath:
    """One kernel serves ``q_f`` and the A-series terms: each entry lies within
    ``1e-12`` of the gauge ``Σ_{i,j} |term|`` of its 40-digit reference."""

    def test_random_term_sums(self):
        rng = np.random.default_rng(11)
        with mpmath.workdps(40):
            for _ in range(16):
                terms = _random_terms(rng)
                got = _pairwise_moments(terms, 48, 0.0)
                for n in range(48):
                    ref, gauge = _mp_moments(terms, n)
                    assert abs(mpmath.mpc(got[n]) - ref) <= 1e-12 * gauge, (terms, n)

    def test_q_sequence(self):
        rng = np.random.default_rng(12)
        with mpmath.workdps(40):
            for _ in range(4):
                symbol = _random_symbols(rng)
                terms = radial_terms(symbol)
                q = q_sequence(symbol, 40)
                for n in range(40):
                    ref, gauge = _mp_moments(terms, n)
                    assert abs(q[n] - max(ref.real, 0)) <= 1e-12 * gauge, (symbol, n)

    @pytest.mark.parametrize("x", [0.3, 2.0, 9.0])
    def test_a_series_terms(self, x):
        rng = np.random.default_rng(13)
        with mpmath.workdps(40):
            for _ in range(3):
                symbol = _random_symbols(rng)
                terms = radial_terms(symbol)
                got = _a_series_terms(terms, x, 64)
                for n in range(64):
                    log_weight = n * mpmath.log(x) - mpmath.loggamma(n + 1)
                    ref, gauge = _mp_moments(terms, n, log_weight)
                    assert abs(got[n] - ref.real) <= 1e-12 * gauge, (symbol, x, n)


class TestASeries:
    def test_constant_symbol_at_origin(self):
        result = a_series(RadialMonomial(0), 0.0)
        assert result.converged
        np.testing.assert_allclose(result.value, 0.5, rtol=1e-14)

    def test_constant_symbol_frozen_value(self):
        # Independent high-precision summation of Σ q(n) xⁿ/n! at x = 2.
        result = a_series(RadialMonomial(0), 2.0)
        assert result.converged
        np.testing.assert_allclose(result.value, 4.939093016628066, rtol=1e-12)

    def test_exponential_example_frozen_value(self):
        result = a_series(RadialExponential(LAM_EXAMPLE), 2.0)
        assert result.converged
        np.testing.assert_allclose(result.value, 2941.2476611147947, rtol=1e-9)

    def test_short_prefix_reports_nonconvergence(self):
        short = a_series(RadialExponential(LAM_EXAMPLE), 4.0, n_terms=64)
        assert not short.converged
        long = a_series(RadialExponential(LAM_EXAMPLE), 4.0, n_terms=512)
        assert long.converged
        np.testing.assert_allclose(long.value, 1.9228684628218078e10, rtol=1e-9)

    def test_requires_square_class(self):
        with pytest.raises(DivergenceError):
            a_series(RadialExponential(0.55), 1.0)

    def test_overflow_raises_without_runtime_warning(self):
        s = Combination(((0.3, RadialMonomial(2)), (1.0, RadialExponential(-0.5 + 0.2j))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError):
                a_series(s, 1e3, n_terms=500)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_x_is_a_domain_error_without_runtime_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                a_series(RadialExponential(LAM_EXAMPLE), x)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "symbol",
        [
            RadialMonomial(0),
            RadialMonomial(3),
            RadialExponential(LAM_EXAMPLE),
            BivariatePolynomial({(1, 1): 1.0, (2, 0): -0.5j}),
            Combination(((2.0, RadialMonomial(1)), (1.0j, RadialExponential(-1.0)))),
        ],
    )
    def test_round_trip(self, symbol):
        again = symbol_from_json(symbol_to_json(symbol))
        assert again == symbol

    def test_accepts_bare_real_numbers(self):
        s = symbol_from_json({"kind": "radial_exponential", "lambda": 0.25})
        assert s == RadialExponential(0.25)

    def test_duplicate_polynomial_terms_are_summed(self):
        s = symbol_from_json(
            {
                "kind": "poly",
                "terms": [
                    {"j": 1, "k": 1, "c": {"re": 1.0, "im": 0.0}},
                    {"j": 1, "k": 1, "c": {"re": 2.0, "im": 0.0}},
                ],
            }
        )
        assert s == BivariatePolynomial({(1, 1): 3.0})

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "mystery"},
            {"kind": "radial_monomial"},
            {"kind": "radial_exponential", "lambda": {"re": "x"}},
            {"kind": "poly", "terms": [{"j": 1}]},
            {"kind": "sum", "terms": []},
            [1, 2, 3],
            {"kind": "poly", "terms": [{"j": float("inf"), "k": 0}]},
            {"kind": "sum", "terms": [{"w": 1, "s": {"kind": "radial_monomial", "m": 0}}, 5]},
            {"kind": "sum", "terms": ["s"]},
        ],
    )
    def test_malformed_payload_raises(self, payload):
        with pytest.raises(ValueError):
            symbol_from_json(payload)


class TestDescribe:
    def test_mentions_each_part(self):
        text = describe(Combination(((1.0, RadialMonomial(2)), (1.0, RadialExponential(0.5j)))))
        assert "r^4" in text or "r^{4}" in text or "m=2" in text
        assert "exp" in text or "e^" in text
