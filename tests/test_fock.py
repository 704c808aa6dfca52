"""Tests for truncated Fock-space operators.

Matrix entries are cross-checked against an independent two-dimensional
Gaussian-measure integral (scipy Laguerre nodes radially, trapezoid rule in
the angle, both exact for the polynomial integrands used here).
"""
from __future__ import annotations

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import roots_laguerre

from fock_toeplitz import (
    AccuracyError,
    BivariatePolynomial,
    DomainError,
    FockVector,
    NonFiniteResultError,
    RadialExponential,
    RadialMonomial,
    coherent_coefficients,
    eval_fock,
    evaluate,
    gamma_sequence,
    ladder_matrices,
    norm_estimate,
    r_map,
    r_matrix,
    r_star,
    r_star_matrix,
    radial_operator_from_sequence,
    scaling_operator,
    spectrum_radial,
    toeplitz_matrix,
    wick_symbol_numeric,
)
from fock_toeplitz.calculus import _series_tail
from fock_toeplitz.fock import _monomial_entries

BETA = complex(3.0, 4.0) / 5.0


def oracle_entry(symbol, m: int, n: int, radial_order: int = 64, n_theta: int = 256) -> complex:
    """⟨T_φ e_n, e_m⟩ by direct Gaussian-measure integration in polar form.

    (1/π) ∫ φ(z) zⁿ z̄ᵐ e^{−|z|²} dA / √(n! m!), computed with scipy's
    Laguerre rule in u = r² and the trapezoid rule in θ — exact for
    polynomial symbols of the degrees used in these tests.
    """
    u, w = roots_laguerre(radial_order)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    z = np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]
    phi = np.array([[evaluate(symbol, zz) for zz in row] for row in z])
    integrand = phi * z**n * np.conj(z) ** m
    angular = integrand.mean(axis=1)
    total = np.sum(w * angular)
    return total * math.exp(-0.5 * (math.lgamma(n + 1) + math.lgamma(m + 1)))


class TestVectors:
    def test_norm(self):
        v = FockVector([3.0, 4.0j])
        assert v.norm == pytest.approx(5.0)

    def test_coherent_coefficients(self):
        c = coherent_coefficients(0.0, 5)
        np.testing.assert_allclose(c.coeffs, [1, 0, 0, 0, 0])
        a = 0.7 - 0.3j
        c = coherent_coefficients(a, 12)
        expected = np.array([np.conj(a) ** n / math.sqrt(math.factorial(n)) for n in range(12)])
        np.testing.assert_allclose(c.coeffs, expected, rtol=1e-13)
        np.testing.assert_allclose(c.norm, math.exp(abs(a) ** 2 / 2.0), rtol=1e-12)

    def test_eval_fock_on_basis_vector(self):
        e2 = FockVector([0, 0, 1.0])
        z = 1.0 + 1.0j
        np.testing.assert_allclose(eval_fock(e2, z), z**2 / math.sqrt(2.0), rtol=1e-14)

    def test_reproducing_property(self):
        # ⟨f, K_v⟩ = f(v) for truncated f and the matching coherent prefix
        rng = np.random.default_rng(20240812)
        for _ in range(6):
            coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
            v = complex(*rng.normal(scale=0.8, size=2))
            f = FockVector(coeffs)
            k = coherent_coefficients(v, 10)
            inner = np.sum(f.coeffs * np.conj(k.coeffs))
            np.testing.assert_allclose(inner, eval_fock(f, v), rtol=1e-12)

    def test_empty_and_single_entry_vectors(self):
        assert coherent_coefficients(2.0, 0).coeffs.shape == (0,)
        assert coherent_coefficients(2.0, 1).coeffs.tolist() == [1.0]
        assert eval_fock(FockVector([]), 1.0 + 1.0j) == 0
        assert eval_fock(FockVector([2.5j]), 3.0) == 2.5j


class TestAgainstMpmath:
    """The vectorised recurrences against 40-digit references: ``c_n`` within
    ``4(n+1)`` roundings of itself, the point value within 64 roundings of
    ``Σ |c_n| |z|ⁿ/√n!``."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("a", [0.7 - 0.3j, 3.0 + 2.0j, -5.5j, 12.0])
    def test_coherent_coefficients(self, a):
        n_entries = 200
        got = coherent_coefficients(a, n_entries).coeffs
        with mpmath.workdps(40):
            abar = mpmath.mpc(a).conjugate()
            ref = [abar**n / mpmath.sqrt(mpmath.factorial(n)) for n in range(n_entries)]
            for n, (g, r) in enumerate(zip(got, ref)):
                assert abs(mpmath.mpc(g) - r) <= 4 * (n + 1) * self.EPS * abs(r), n

    @pytest.mark.parametrize("z", [0.5 + 0.5j, -2.0 + 1.0j, 4.0j])
    def test_eval_fock(self, z):
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=120) + 1j * rng.normal(size=120)
        got = eval_fock(FockVector(coeffs), z)
        with mpmath.workdps(40):
            terms = [
                mpmath.mpc(c) * mpmath.mpc(z) ** n / mpmath.sqrt(mpmath.factorial(n))
                for n, c in enumerate(coeffs)
            ]
            gauge = sum(abs(t) for t in terms)
            assert abs(mpmath.mpc(got) - sum(terms)) <= 64 * self.EPS * gauge

    def test_ladder_entries_are_square_roots(self):
        creation, annihilation = ladder_matrices(6)
        sqrt_n = np.sqrt(np.arange(1.0, 6.0))
        assert np.array_equal(np.diag(creation.entries, -1), sqrt_n)
        assert np.array_equal(np.diag(annihilation.entries, 1), sqrt_n)
        assert np.count_nonzero(creation.entries) == np.count_nonzero(annihilation.entries) == 5


class TestToeplitzMatrix:
    @pytest.mark.parametrize(
        "j,k,n_dim",
        [
            (0, 0, 5), (2, 1, 40), (1, 3, 40), (4, 4, 300), (3, 0, 2), (0, 9, 5),
            (8, 3, 1024), (40, 35, 100),
        ],
    )
    def test_banded_entries_match_exact_factorial_ratios(self, j, k, n_dim):
        actual = _monomial_entries(j, k, n_dim)
        bound = 4 * (j + k + 2) * np.finfo(float).eps
        band = np.zeros((n_dim, n_dim), dtype=bool)
        with mpmath.workdps(40):
            for n in range(n_dim):
                m = n + j - k
                if 0 <= m < n_dim:
                    band[m, n] = True
                    exact = mpmath.factorial(n + j) / mpmath.sqrt(
                        mpmath.factorial(n) * mpmath.factorial(m)
                    )
                    assert actual[m, n].imag == 0.0
                    assert abs(actual[m, n].real / exact - 1) <= bound, (m, n)
        assert not actual[~band].any()

    def test_banded_entries_overflow_only_where_the_ratio_does(self):
        # entry (300, 0) is √300! ≈ 1.75e307; entry (301, 1) is √301! > DBL_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = _monomial_entries(300, 0, 302)
        with mpmath.workdps(40):
            exact = mpmath.sqrt(mpmath.factorial(300))
            assert abs(entries[300, 0].real / exact - 1) <= 4 * 302 * np.finfo(float).eps
        assert entries[301, 1] == np.inf

    @pytest.mark.parametrize(
        "coefficients, term",
        [({(300, 0): 1.0}, "z^300*zbar^0"), ({(1, 0): 1.0, (3, 2): 1e302j}, "z^3*zbar^2")],
    )
    def test_overflowing_entries_raise_naming_the_term(self, coefficients, term):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match=re.escape(term)):
                toeplitz_matrix(BivariatePolynomial(coefficients), 1024)

    @pytest.mark.parametrize("j,k", [(1, 0), (2, 1), (8, 3), (40, 35)])
    def test_swapped_powers_give_the_transpose(self, j, k):
        # T_{z^k z̄^j} = (T_{z^j z̄^k})^*; the two products differ only in order
        forward = _monomial_entries(j, k, 200)
        swapped = _monomial_entries(k, j, 200)
        bound = 2 * (j + k + 2) * np.finfo(float).eps
        np.testing.assert_allclose(swapped, forward.T, rtol=bound, atol=0)

    def test_constant_symbol_is_identity(self):
        op = toeplitz_matrix(RadialMonomial(0), 6)
        np.testing.assert_allclose(op.entries, np.eye(6), atol=1e-14)

    def test_degree_one_radial_is_diagonal(self):
        op = toeplitz_matrix(RadialMonomial(1), 8)
        np.testing.assert_allclose(op.entries, np.diag(np.arange(1.0, 9.0)), atol=1e-12)

    def test_analytic_monomial_is_shifted_ladder(self):
        op = toeplitz_matrix(BivariatePolynomial({(1, 0): 1.0}), 8)
        creation, _ = ladder_matrices(8)
        np.testing.assert_allclose(op.entries, creation.entries, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize(
        "symbol",
        [
            BivariatePolynomial({(2, 1): 1.0}),
            BivariatePolynomial({(1, 0): 1.0, (0, 1): 1.0}),
            BivariatePolynomial({(2, 2): 1.0, (1, 1): -0.5j}),
        ],
    )
    def test_entries_match_direct_integration(self, symbol):
        op = toeplitz_matrix(symbol, 6)
        for m in range(6):
            for n in range(6):
                expected = oracle_entry(symbol, m, n)
                np.testing.assert_allclose(
                    op.entries[m, n], expected, atol=1e-10, err_msg=f"entry ({m},{n})"
                )

    def test_real_symbol_gives_hermitian_matrix(self):
        op = toeplitz_matrix(BivariatePolynomial({(1, 0): 1.0, (0, 1): 1.0}), 10)
        np.testing.assert_allclose(op.entries, op.entries.conj().T, atol=1e-14)

    def test_exponential_symbol_diagonal(self):
        op = toeplitz_matrix(RadialExponential(-1.0), 8)
        n = np.arange(8)
        np.testing.assert_allclose(op.diagonal(), 2.0 ** -(n + 1.0), rtol=1e-12)
        np.testing.assert_allclose(op.entries, np.diag(op.diagonal()), atol=1e-14)

    def test_apply(self):
        op = toeplitz_matrix(RadialMonomial(1), 4)
        out = op.apply(FockVector([1.0, 1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.coeffs, [1.0, 2.0, 0.0, 0.0], atol=1e-13)


class TestLadderAndScaling:
    def test_ladder_actions(self):
        creation, annihilation = ladder_matrices(6)
        e0 = np.zeros(6)
        e0[0] = 1.0
        np.testing.assert_allclose(annihilation.entries @ e0, np.zeros(6))
        np.testing.assert_allclose((creation.entries @ e0)[1], 1.0)

    def test_commutator_is_identity_on_interior(self):
        creation, annihilation = ladder_matrices(12)
        comm = annihilation.entries @ creation.entries - creation.entries @ annihilation.entries
        np.testing.assert_allclose(comm[:-1, :-1], np.eye(11), atol=1e-12)

    def test_dimension_precondition(self):
        with pytest.raises(DomainError):
            ladder_matrices(1)

    def test_scaling_diagonal_and_action(self):
        a = 0.3 + 0.4j
        op = scaling_operator(a, 6)
        np.testing.assert_allclose(op.diagonal(), [a ** (n + 1) for n in range(6)], rtol=1e-14)
        e2 = FockVector([0, 0, 1.0, 0, 0, 0])
        np.testing.assert_allclose(op.apply(e2).coeffs[2], a**3, rtol=1e-14)

    @pytest.mark.parametrize("a", [BETA, 0.3 + 0.4j, 1.7 - 0.2j, -0.9 + 0.05j, 1.0 + 1e-3j])
    def test_scaling_diagonal_against_mpmath(self, a):
        diag = scaling_operator(a, 300).diagonal()
        with mpmath.workdps(40):
            for n, entry in enumerate(diag):
                exact = mpmath.mpc(a) ** (n + 1)
                err = abs(mpmath.mpc(entry) - exact) / abs(exact)
                assert err <= 4 * (n + 1) * np.finfo(float).eps, (n, float(err))

    def test_unit_modulus_scaling_preserves_norms(self):
        op = scaling_operator(BETA, 16)
        np.testing.assert_allclose(np.abs(op.diagonal()), np.ones(16), rtol=1e-13)
        assert norm_estimate(op) == pytest.approx(1.0, rel=1e-12)


class TestWickSymbolNumeric:
    def test_identity_operator(self):
        op = toeplitz_matrix(RadialMonomial(0), 32)
        for v, z in [(0.5, 0.5), (1.0 + 0.5j, -0.3 + 0.2j)]:
            np.testing.assert_allclose(wick_symbol_numeric(op, v, z), 1.0, rtol=1e-10)

    def test_degree_one_radial_two_point_symbol(self):
        op = toeplitz_matrix(RadialMonomial(1), 48)
        for v, z in [(1.0, 1.0), (0.8 - 0.1j, 0.4 + 0.9j)]:
            np.testing.assert_allclose(
                wick_symbol_numeric(op, v, z), 1.0 + z * np.conj(v), rtol=1e-9
            )

    def test_scaling_operator_symbol(self):
        a = 0.6 + 0.2j
        op = scaling_operator(a, 48)
        v, z = 0.9, 1.1 + 0.3j
        expected = a * np.exp((a - 1.0) * z * np.conj(v))
        np.testing.assert_allclose(wick_symbol_numeric(op, v, z), expected, rtol=1e-9)

    def test_matches_series_route_for_exponential_symbol(self):
        from fock_toeplitz import wick_from_gamma

        g = gamma_sequence(RadialExponential(-1.0), 48)
        op = radial_operator_from_sequence(g.values)
        for r in (0.0, 0.7, 1.2):
            series = wick_from_gamma(g, r)
            numeric = wick_symbol_numeric(op, r, r)
            closed = 0.5 * math.exp(-0.5 * r * r)
            np.testing.assert_allclose(series, closed, rtol=1e-10)
            np.testing.assert_allclose(numeric, closed, rtol=1e-10)

    def test_truncation_tail_is_guarded(self):
        op = toeplitz_matrix(RadialMonomial(0), 8)
        with pytest.raises(AccuracyError, match="dimension"):
            wick_symbol_numeric(op, 3.0, 3.0)

    def test_tail_bound_dominates_true_tail(self):
        x = 1.0
        true_tail = sum(x**n / math.factorial(n) for n in range(10, 40))
        # the coherent-state route scales the series bound by e^x
        assert _series_tail(x, 10, x) >= true_tail
        assert _series_tail(0.0, 4, 0.0) == 0.0

    @pytest.mark.parametrize("dim, v, z", [(8, 3.0, 3.0), (16, 2.0, 2.5j), (5, 0.9, 1.1)])
    def test_suggested_dimension_meets_the_refusing_bound(self, dim, v, z):
        op = toeplitz_matrix(RadialMonomial(0), dim)
        tol = 1e-10
        with pytest.raises(AccuracyError) as info:
            wick_symbol_numeric(op, v, z, tol=tol)
        needed = int(re.search(r"dimension ~(\d+) would suffice", str(info.value)).group(1))
        x = abs(v) * abs(z)
        assert _series_tail(x, needed, x) <= tol
        assert _series_tail(x, needed // 2, x) > tol


    @pytest.mark.parametrize("v, z", [(5000.0, 5000.0), (float("nan"), 1.0)])
    def test_hint_past_the_doubling_cap_names_no_count(self, v, z):
        op = toeplitz_matrix(RadialMonomial(0), 8)
        with pytest.raises(AccuracyError) as info:
            wick_symbol_numeric(op, v, z)
        assert str(info.value).endswith("; more than 100000 terms are needed")
        assert "would suffice" not in str(info.value)


class TestNormAndSpectrum:
    def test_norm_of_identity(self):
        assert norm_estimate(toeplitz_matrix(RadialMonomial(0), 12)) == pytest.approx(1.0)

    def test_norm_of_diagonal_is_max_modulus(self):
        op = radial_operator_from_sequence([0.2, -0.9, 0.5j])
        assert norm_estimate(op) == pytest.approx(0.9, rel=1e-12)

    def test_spectrum_prefix_dedup(self):
        g = gamma_sequence(RadialMonomial(0), 6)
        spec = spectrum_radial(g)
        assert spec.points == (1.0 + 0.0j,)
        assert spec.label == "prefix of spectrum"

    def test_spectrum_of_degree_one_radial(self):
        g = gamma_sequence(RadialMonomial(1), 8)
        spec = spectrum_radial(g)
        np.testing.assert_allclose(sorted(p.real for p in spec.points), np.arange(1.0, 9.0))

    def test_spectrum_of_unit_modulus_sequence_lies_on_circle(self):
        g = gamma_sequence(RadialExponential(complex(2.0, 4.0) / 5.0), 20)
        spec = spectrum_radial(g)
        assert len(spec.points) == 20
        np.testing.assert_allclose([abs(p) for p in spec.points], np.ones(20), rtol=1e-12)


class TestCoefficientMaps:
    def test_round_trip_between_function_and_sequence(self):
        v = FockVector([1.0, 2.0j, -0.5])
        np.testing.assert_allclose(r_star(r_map(v)).coeffs, v.coeffs)

    def test_matrix_identities_are_exact(self):
        n = 9
        assert np.array_equal(r_matrix(n) @ r_star_matrix(n), np.eye(n, dtype=complex))
        projector = r_star_matrix(n) @ r_matrix(n)
        assert np.array_equal(projector @ projector, projector)

    def test_radial_factorization_reproduces_toeplitz(self):
        g = gamma_sequence(RadialMonomial(1), 7)
        rebuilt = radial_operator_from_sequence(g.values)
        direct = toeplitz_matrix(RadialMonomial(1), 7)
        np.testing.assert_allclose(rebuilt.entries, direct.entries, atol=1e-12)
