"""The in-package log Γ and rising factorial against SciPy, bit for bit.

The package computes ``gammaln`` and ``poch`` itself so that importing it
loads no ``scipy.special``; the closed-form γ-sequences and the banded
factorial ratios must not change by a single bit for that.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fock_toeplitz import DomainError
from fock_toeplitz._special import _TABLE_MAX, gammaln, poch


def assert_bits_equal(actual, expected) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    differ = np.flatnonzero(actual.view(np.uint64) != expected.view(np.uint64))
    assert differ.size == 0, (differ[:5], actual.flat[differ[:5]], expected.flat[differ[:5]])


class TestGammaln:
    def test_every_integer_up_to_300000(self):
        x = np.arange(1, 300_001, dtype=float)
        assert_bits_equal(gammaln(x), special.gammaln(x))

    def test_every_half_integer_up_to_20000(self):
        x = np.arange(1, 20_000, dtype=float) + 0.5
        assert_bits_equal(gammaln(x), special.gammaln(x))

    @pytest.mark.parametrize(
        "x", [1.0, 1.5, 2.0, 2.5, 3.0, 12.5, 13.0, 13.5, 999.5, 1000.0, 1000.5]
    )
    def test_branch_edges(self, x):
        value = gammaln(x)
        assert isinstance(value, float)
        assert_bits_equal(value, special.gammaln(x))

    @pytest.mark.parametrize(
        "x", [_TABLE_MAX / 2 - 0.5, _TABLE_MAX / 2, 1e6 + 0.5, 1e8, 1e8 + 1, 3.5e9, 1e300, 3e305]
    )
    def test_arguments_beyond_the_table(self, x):
        assert_bits_equal(gammaln(x), special.gammaln(x))
        assert_bits_equal(gammaln(np.array([x, 7.5])), special.gammaln([x, 7.5]))

    def test_shape_is_preserved(self):
        x = np.array([[1.0, 2.5], [40.0, 13.0]])
        assert_bits_equal(gammaln(x), special.gammaln(x))
        assert gammaln(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize(
        "x", [0.0, 0.5, -1.0, 1.25, 2.3, float("nan"), float("inf"), [3.0, 4.1]]
    )
    def test_other_arguments_raise(self, x):
        with pytest.raises(DomainError):
            gammaln(x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=2, max_value=4 * _TABLE_MAX), min_size=1, max_size=40))
    def test_random_integers_and_half_integers(self, halves):
        x = np.array(halves, dtype=float) / 2.0
        assert_bits_equal(gammaln(x), special.gammaln(x))


class TestPoch:
    @pytest.mark.parametrize("m", range(12))
    def test_matches_scipy_on_1_to_5000(self, m):
        a = np.arange(1, 5001, dtype=float)
        assert_bits_equal(poch(a, m), special.poch(a, m))

    def test_scalar_and_overflow(self):
        assert poch(4.0, 3) == 120.0
        assert poch(4.0, 0) == 1.0
        assert_bits_equal(poch(np.array([1e200]), 2), special.poch([1e200], 2))

    @pytest.mark.parametrize("a,m", [(1.0, -1), (1.0, 1.5), (0.5, 2), (-3.0, 2)])
    def test_other_arguments_raise(self, a, m):
        with pytest.raises(DomainError):
            poch(a, m)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=400_000), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=20),
    )
    def test_random_integers_and_half_integers(self, halves, m):
        a = np.array(halves, dtype=float) / 2.0
        assert_bits_equal(poch(a, m), special.poch(a, m))
