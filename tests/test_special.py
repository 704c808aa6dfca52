"""The package's log Γ and rising factorial against exact references.

``symbols._log_gamma`` (libm ``lgamma``) feeds every log-space sum: the
pairwise moments and the A-series terms.  ``quadrature._rising`` gives the
``(n+1)_m`` of the closed-form γ.  Both are checked against exact values, not
against another floating-point implementation.
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

from fock_toeplitz.quadrature import _rising
from fock_toeplitz.symbols import _log_gamma


def assert_log_gamma_within_4_ulp(x: np.ndarray) -> None:
    """``|_log_gamma(x) − log Γ(x)| ≤ 4 ulp(max(1, |log Γ(x)|))`` against 40-digit mpmath."""
    values = _log_gamma(x)
    with mpmath.workdps(40):
        for xi, v in zip(x.tolist(), values.tolist()):
            err = abs(mpmath.mpf(v) - mpmath.loggamma(xi))
            assert err <= 4 * np.spacing(max(1.0, abs(v))), (xi, v, float(err))


class TestLogGamma:
    def test_integers_and_half_integers_up_to_2000(self):
        assert_log_gamma_within_4_ulp(np.arange(2, 4001) / 2.0)

    def test_every_integer_up_to_300000(self):
        assert_log_gamma_within_4_ulp(np.arange(1, 300_001, dtype=float))

    def test_every_half_integer_up_to_20000(self):
        assert_log_gamma_within_4_ulp(np.arange(1, 20_000, dtype=float) + 0.5)

    @pytest.mark.parametrize(
        "x", [1.0, 1.5, 2.0, 2.5, 3.0, 12.5, 13.0, 13.5, 999.5, 1000.0, 1000.5]
    )
    def test_scattered_arguments(self, x):
        assert_log_gamma_within_4_ulp(np.array([x]))

    @pytest.mark.parametrize(
        "x", [1e5 + 0.5, 1.5e5, 1e6 + 0.5, 1e8, 1e8 + 1, 3.5e9, 2.0**53, 1e300, 2e305]
    )
    def test_large_arguments(self, x):
        assert_log_gamma_within_4_ulp(np.array([x, 7.5]))

    def test_empty_array(self):
        assert _log_gamma(np.empty(0)).shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=600_000), min_size=1, max_size=40))
    def test_random_integers_and_half_integers_up_to_300000(self, halves):
        assert_log_gamma_within_4_ulp(np.array(halves, dtype=float) / 2.0)


class TestLogGammaOverflow:
    def test_overflow_is_inf_not_an_exception(self):
        # lgamma leaves float64 near 2.6e305; the callers' finiteness checks see inf
        got = _log_gamma(np.array([2.0, 3e305, 1e305]))
        assert got[0] == 0.0 and got[1] == np.inf
        assert got[2] == math.lgamma(1e305)


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
