"""The package's log Γ and rising factorial against exact references.

libm ``lgamma`` has two callers: ``calculus._series_tail``, the tail bound
``xⁿ/n!·e^s`` of every exponential series, and ``quadrature._gamma_scale``,
which takes ``Γ(α+1)`` in longdouble for ``α ≥ 170``.  Both are checked at
the arguments they pass.  ``quadrature._rising`` gives the ``(n+1)_m`` of
the closed-form γ.  All are checked against exact values or 40-digit mpmath,
not against another floating-point implementation.
"""
from __future__ import annotations

import math
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fock_toeplitz.calculus import _series_tail, _terms_needed
from fock_toeplitz.errors import NonFiniteResultError
from fock_toeplitz.quadrature import _gamma_scale, _rising, integrate_weighted


def assert_lgamma_within_4_ulp(x: np.ndarray) -> None:
    """``|lgamma(x) − log Γ(x)| ≤ 4 ulp(max(1, |log Γ(x)|))`` against 40-digit mpmath."""
    with mpmath.workdps(40):
        for xi in x.tolist():
            v = math.lgamma(xi)
            err = abs(mpmath.mpf(v) - mpmath.loggamma(xi))
            assert err <= 4 * np.spacing(max(1.0, abs(v))), (xi, v, float(err))


# n + 1 for every n that a series tail is asked about: every n up to 2048,
# then a log-spaced sample up to the last doubling of _terms_needed (< 200 000)
_TAIL_ARGUMENTS = np.unique(
    np.concatenate([np.arange(1.0, 2050.0), np.geomspace(2048, 200_001, 1000).round()])
)


# the log of the largest longdouble, past which Γ(α+1) is inf
_LOG_LD_MAX = float(np.log(np.finfo(np.longdouble).max))


class TestLogGammaAtItsCallers:
    """libm ``lgamma`` at the arguments the package passes it."""

    def test_series_tail_arguments(self):
        assert_lgamma_within_4_ulp(_TAIL_ARGUMENTS)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=200_001), min_size=1, max_size=20))
    def test_random_series_tail_arguments(self, n):
        assert_lgamma_within_4_ulp(np.array(n, dtype=float))

    @pytest.mark.parametrize("x, log_scale", [(0.25, 0.0), (3.0, 2.5), (40.0, -30.0), (1e4, 5.0)])
    def test_series_tail_against_mpmath(self, x, log_scale):
        # the error of xⁿ/n!·e^s is that of its logarithm, a few ulp of each
        # part; checked where the value is a normal float64
        with mpmath.workdps(40):
            for n in _TAIL_ARGUMENTS[::10].astype(int).tolist():
                got = _series_tail(x, n, log_scale)
                ref = mpmath.exp(n * mpmath.log(x) - mpmath.loggamma(n + 1) + log_scale)
                if not 1e-300 < ref < 1e300:
                    continue
                parts = abs(n * math.log(x)) + math.lgamma(n + 1.0) + abs(log_scale) + 1.0
                assert abs(got - ref) <= 8 * np.finfo(float).eps * parts * ref, (x, n)

    def test_gamma_scale_past_float64(self):
        # α ≥ 170 takes exp(lgamma(α+1)) in longdouble: the integers and
        # half-integers up to a factor e^8 below the longdouble limit
        alphas = np.array(
            [a / 2.0 for a in range(340, 4000) if math.lgamma(a / 2.0 + 1.0) < _LOG_LD_MAX - 8.0]
        )
        assert_lgamma_within_4_ulp(alphas + 1.0)
        eps_ld = float(np.finfo(np.longdouble).eps)
        with mpmath.workdps(40):
            for alpha in alphas.tolist():
                got = _gamma_scale(alpha)
                ref = mpmath.gamma(alpha + 1)
                rel = abs(mpmath.mpf(str(got)) / ref - 1)
                bound = 4 * np.spacing(math.lgamma(alpha + 1.0)) + 16 * eps_ld
                assert rel <= bound, (alpha, float(rel))


def assert_gamma_scale_matches_mpmath(alpha: float) -> None:
    """``_gamma_scale(α)`` against 40-digit ``Γ(α+1)``: a few ulp of float64
    below α = 170 (``math.gamma``), and the ``lgamma`` bound of
    :meth:`TestLogGammaAtItsCallers.test_gamma_scale_past_float64` above."""
    got = _gamma_scale(alpha)
    assert isinstance(got, np.longdouble)
    if alpha < 170.0:
        bound = 4 * np.finfo(float).eps
    else:
        bound = 4 * np.spacing(math.lgamma(alpha + 1.0)) + 16 * float(np.finfo(np.longdouble).eps)
    with mpmath.workdps(40):
        rel = abs(mpmath.mpf(str(got)) / mpmath.gamma(mpmath.mpf(alpha) + 1) - 1)
    assert rel <= bound, (alpha, float(rel))


class TestGammaScale:
    """``Γ(α+1)`` on both sides of the switch from ``math.gamma`` to
    ``exp(lgamma)`` at α = 170, and past the longdouble range."""

    @pytest.mark.parametrize(
        "alpha", [0.0, 0.5, 1.0, 12.5, 168.5, 169.0, 169.5, 170.0, 170.5, 999.5, 1754.0]
    )
    def test_scattered_arguments(self, alpha):
        assert_gamma_scale_matches_mpmath(alpha)

    def test_integers_and_half_integers_below_170(self):
        for h in range(340):
            assert_gamma_scale_matches_mpmath(h / 2.0)

    def test_overflow_is_inf_not_a_warning(self):
        # Γ(1756) passes the largest longdouble; the weighted integral then
        # refuses the value instead of returning inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gamma_scale(1755.0) == np.inf and _gamma_scale(1e6) == np.inf
            with pytest.raises(NonFiniteResultError, match="overflows"):
                integrate_weighted(np.ones_like, 1800.0)


class TestSeriesTail:
    """``xⁿ/n! · e^s`` where its logarithm is large: inf from a log bound of
    700 up, and an underflow to 0 rather than an exception."""

    @pytest.mark.parametrize(
        "x, n, log_scale",
        [
            (1e300, 10, 0.0),
            (2.0, 10**17, 0.0),
            (1e-300, 3, 0.0),
            (1e5, 200_000, 0.0),
            (1e5, 100_000, -10.0),
            (650.0, 1, 49.0),
            (700.0, 1, 0.0),
            (3.0, 2048, 700.0),
            (2.0**53, 4, -140.0),
        ],
    )
    def test_large_arguments(self, x, n, log_scale):
        got = _series_tail(x, n, log_scale)
        with mpmath.workdps(40):
            log_ref = n * mpmath.log(x) - mpmath.loggamma(n + 1) + log_scale
            if log_ref >= 700:
                assert got == math.inf, (x, n)
            elif log_ref < -745:
                assert got == 0.0, (x, n)
            else:
                ref = mpmath.exp(log_ref)
                parts = abs(n * math.log(x)) + math.lgamma(n + 1.0) + abs(log_scale) + 1.0
                assert abs(got - ref) <= 8 * np.finfo(float).eps * parts * ref, (x, n)

    def test_zero_radius_and_zero_scale_need_no_terms(self):
        # x = 0 is exact; a zero sequence has log peak −inf and a zero tail
        assert _series_tail(0.0, 5, 3.0) == 0.0
        assert _series_tail(4.0, 5, -math.inf) == 0.0
        assert _terms_needed(lambda n: _series_tail(4.0, n, -math.inf), 5, 1e-12) == 5

    def test_nan_radius_fails_every_bound(self):
        assert _series_tail(math.nan, 8, 0.0) == math.inf
        assert _terms_needed(lambda n: _series_tail(math.nan, n, 0.0), 8, 1e-10) is None


class TestRising:
    @pytest.mark.parametrize("m", range(12))
    def test_matches_exact_integers_on_1_to_5000(self, m):
        a = np.arange(1, 5001)
        got = _rising(a.astype(float), m)
        for ai, r in zip(a.tolist(), got.tolist()):
            exact = 1
            for i in range(m):
                exact *= ai + i
            # m − 1 correctly rounded products of exact integers; every float
            # this large is an integer, so the comparison is exact
            assert abs(int(r) - exact) <= m * np.finfo(float).eps * exact, (ai, m)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=400_000), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=20),
    )
    def test_random_half_integers_match_exact_fractions(self, halves, m):
        got = _rising(np.array(halves, dtype=float) / 2.0, m)
        for h, r in zip(halves, got.tolist()):
            exact = Fraction(1)
            for i in range(m):
                exact *= Fraction(h, 2) + i
            assert abs(Fraction(r) - exact) <= m * np.finfo(float).eps * exact, (h, m)

    def test_empty_product_and_overflow(self):
        assert _rising(np.array([4.0]), 3).tolist() == [120.0]
        assert _rising(np.array([4.0]), 0).tolist() == [1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _rising(np.array([1e200]), 2).tolist() == [np.inf]

    def test_all_inf_product_stops_and_finite_entries_keep_their_bits(self):
        # thirty million factors would take about a minute; every entry is
        # inf after a few dozen, so the loop stops there
        start = time.perf_counter()
        assert _rising(np.array([1.0, 7.5]), 30_000_000).tolist() == [np.inf, np.inf]
        assert time.perf_counter() - start < 5.0
        # one entry stays finite, so neither entry may stop early
        a = [1.0, 400.0]
        expected = [math.prod([ai + j for j in range(169, -1, -1)], start=1.0) for ai in a]
        assert _rising(np.array(a), 170).tolist() == expected
