"""Tests for symbol construction, evaluation, membership, and the JSON codec.

Membership verdicts are cross-checked against truncated weighted integrals,
by live ``scipy.integrate.quad`` and by mpmath.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from fock_toeplitz import (
    BivariatePolynomial,
    Combination,
    DomainError,
    NonFiniteResultError,
    RadialExponential,
    RadialMonomial,
    SymbolClass,
    evaluate,
    is_radial,
    membership,
    radial_terms,
    symbol_from_json,
    symbol_to_json,
    to_polynomial,
)
from fock_toeplitz.symbols import describe, radial_profile

LAM_EXAMPLE = complex(2.0, 4.0) / 5.0


class TestConstruction:
    def test_monomial_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            RadialMonomial(-1)

    def test_monomial_exponent_is_any_integral_number(self):
        # numpy's integer scalars are numbers.Integral; a float is refused
        assert RadialMonomial(np.int64(3)) == RadialMonomial(3)
        assert type(RadialMonomial(np.uint8(2)).m) is int
        with pytest.raises(ValueError):
            RadialMonomial(2.0)

    @pytest.mark.parametrize("lam", [complex(-1, math.inf), -math.inf, math.nan])
    def test_exponential_rejects_a_non_finite_rate(self, lam):
        with pytest.raises(ValueError, match="exponential rate must be finite"):
            RadialExponential(lam)

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


def _q_moment_panels(symbol, n: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """``∫ |f(r)|² e^{−r²} r^{n+1} dr`` over ``[0, 40]`` and over ``[40, 80]``,
    at 20 digits, where no exponential overflows."""
    with mpmath.workdps(20):
        terms = [(mpmath.mpc(c), m, mpmath.mpc(lam)) for c, m, lam in radial_terms(symbol)]

        def integrand(r):
            f = sum(c * r ** (2 * m) * mpmath.exp(lam * r * r) for c, m, lam in terms)
            return abs(f) ** 2 * mpmath.exp(-r * r) * r ** (n + 1)

        return mpmath.quad(integrand, [0, 10, 20, 40]), mpmath.quad(integrand, [40, 80])


class TestSquareClassBoundary:
    """The weighted moments ``q_f(n) = ∫|f|² e^{−r²} r^{n+1} dr`` are finite
    exactly when ``max 2 Re λ < 1``, which is weighted-L² membership: past
    the cutoff 40, the moment of a member gains less than 1e-12 of itself,
    and that of a non-member more than ten times itself."""

    @pytest.mark.parametrize(
        "symbol",
        [
            RadialExponential(0.3),
            RadialExponential(0.45 + 0.7j),
            RadialExponential(0.55),
            RadialExponential(0.7 - 0.4j),
            RadialMonomial(3),
            Combination(((1.0, RadialMonomial(1)), (0.5j, RadialExponential(0.45 - 0.3j)))),
            Combination(((1.0, RadialMonomial(0)), (1e-6, RadialExponential(0.55)))),
            Combination(((2.0, RadialExponential(-1.0)), (-1.0, RadialExponential(0.6 + 0.2j)))),
        ],
    )
    def test_membership_matches_the_divergence_of_q_moments(self, symbol):
        member = membership(symbol, SymbolClass.L2_INF_WEIGHTED).member
        for n in (0, 5):
            near, beyond = _q_moment_panels(symbol, n)
            assert (beyond <= 1e-12 * near) if member else (beyond > 10 * near), (symbol, n)


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
