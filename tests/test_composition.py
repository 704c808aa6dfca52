"""Tests for the composition audit, the composed symbol τ read off the
factors' terms, and the obstruction classifier."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from fock_toeplitz import (
    AccuracyError,
    BivariatePolynomial,
    Combination,
    DomainError,
    NonFiniteResultError,
    ObstructionCase,
    RadialExponential,
    RadialMonomial,
    audit_hypotheses,
    audit_worked_example,
    classify_obstruction,
    compose_radial,
    diamond,
    fit_gaussian_wick,
    gamma_sequence,
    toeplitz_matrix,
)
from fock_toeplitz import composition

LAM_EXAMPLE = complex(2.0, 4.0) / 5.0
BETA = complex(3.0, 4.0) / 5.0
R2 = RadialMonomial(1)


class TestClassifier:
    def test_circle_boundary_point_without_positive_real_part(self):
        verdict = classify_obstruction(1.0 + 1.0j)
        assert verdict.case is ObstructionCase.NONE_ASSERTED
        assert verdict.margin == pytest.approx(0.0, abs=1e-15)

    def test_outside_circle(self):
        verdict = classify_obstruction(3.0)
        assert verdict.case is ObstructionCase.CASE2
        assert verdict.margin == pytest.approx(3.0)

    def test_on_circle_with_real_part_above_one(self):
        verdict = classify_obstruction(complex(32.0, 24.0) / 25.0)
        assert verdict.case is ObstructionCase.CASE1
        assert verdict.margin == pytest.approx(0.28, abs=1e-12)

    def test_inside_circle(self):
        verdict = classify_obstruction(1.0)
        assert verdict.case is ObstructionCase.NONE_ASSERTED
        assert verdict.margin == pytest.approx(1.0)

    def test_strictly_inside_is_never_asserted(self):
        verdict = classify_obstruction(0.5 + 0.5j)
        assert verdict.case is ObstructionCase.NONE_ASSERTED
        assert verdict.margin == pytest.approx(0.5)

    def test_tolerance_controls_the_circle_band(self):
        theta = complex(32.0, 24.0) / 25.0 + 1e-12
        assert classify_obstruction(theta).case is ObstructionCase.CASE1
        assert classify_obstruction(theta, tol=1e-15).case is ObstructionCase.CASE2

    def test_json_shape(self):
        payload = classify_obstruction(3.0).to_json()
        assert payload["case"] == "Case2"
        assert payload["theta"] == {"re": 3.0, "im": 0.0}
        assert payload["margin"] == pytest.approx(3.0)


class TestHypothesisAudit:
    def test_constant_factors_satisfy_everything(self):
        report = audit_hypotheses(RadialMonomial(0), RadialMonomial(0), n_entries=32)
        assert report.hyp1_bounded_psi.bounded
        assert report.hyp2_product_bounded.bounded
        assert report.hyp3_phi_square_class.member
        assert all(ok for _x, ok in report.hyp3_phi_square_class.a_converged)
        np.testing.assert_allclose(report.gamma_tau.values, np.ones(32), rtol=1e-13)

    def test_degree_one_square_fails_boundedness(self):
        report = audit_hypotheses(R2, R2, n_entries=64)
        assert not report.hyp1_bounded_psi.bounded
        assert not report.hyp2_product_bounded.bounded
        assert report.hyp2_product_bounded.growth_exponent == pytest.approx(2.0, abs=0.2)
        assert report.hyp1_bounded_psi.growth_exponent == pytest.approx(1.0, abs=0.2)
        assert report.hyp1_bounded_psi.note.startswith("decided from the terms")

    def test_example_exponential_satisfies_everything(self):
        phi = RadialExponential(LAM_EXAMPLE)
        report = audit_hypotheses(phi, phi, n_entries=40)
        assert report.hyp1_bounded_psi.bounded
        assert report.hyp2_product_bounded.bounded
        assert report.hyp3_phi_square_class.member
        assert report.hyp3_phi_square_class.q_finite
        assert all(ok for _x, ok in report.hyp3_phi_square_class.a_converged)
        n = np.arange(40)
        np.testing.assert_allclose(report.gamma_tau.values, BETA ** (2.0 * (n + 1)), rtol=1e-11)

    def test_decaying_factor_tames_growing_factor(self):
        report = audit_hypotheses(R2, RadialExponential(-1.0), n_entries=48)
        assert report.hyp1_bounded_psi.bounded
        assert report.hyp2_product_bounded.bounded
        assert report.hyp3_phi_square_class.member

    def test_x_samples_are_propagated(self):
        report = audit_hypotheses(
            RadialMonomial(0), RadialMonomial(0), n_entries=16, x_samples=(0.5,)
        )
        assert [x for x, _ok in report.hyp3_phi_square_class.a_converged] == [0.5]

    def test_long_prefix_of_a_growing_exponential_reports(self):
        # q(n) of e^{0.45 r²} overflows float64 before n = 700, yet every
        # q(n) is finite: membership alone decides q_finite
        report = audit_hypotheses(RadialExponential(0.45), RadialMonomial(0), n_entries=700)
        assert report.hyp3_phi_square_class.q_finite
        assert len(report.gamma_tau) == 700

    def test_q_finite_follows_membership(self):
        outside = RadialExponential(0.6)  # in weighted L1, not in weighted L2
        report = audit_hypotheses(outside, RadialMonomial(0), n_entries=8)
        verdict = report.hyp3_phi_square_class
        assert not verdict.member and not verdict.q_finite
        assert not any(ok for _x, ok in verdict.a_converged)

    def test_overflowing_product_names_the_first_n(self):
        # γ(n) = 10^{n+1} for each factor, so the product leaves float64 at n = 154
        gaussian = RadialExponential(0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match=r"at n = 154; request at most 154 "):
                audit_hypotheses(gaussian, gaussian, n_entries=200)
            audit_hypotheses(gaussian, gaussian, n_entries=154)

    def test_non_radial_factor_is_rejected(self):
        with pytest.raises(DomainError):
            audit_hypotheses(BivariatePolynomial({(1, 0): 1.0}), RadialMonomial(0))
        with pytest.raises(DomainError):
            audit_hypotheses(RadialMonomial(0), BivariatePolynomial({(0, 1): 1.0}))


def _on_circle(beta: complex) -> RadialExponential:
    """The exponential whose γ-sequence is ``β^{n+1}``."""
    return RadialExponential(1.0 - 1.0 / beta)


class TestDecidedBoundedness:
    """The audit decides each hypothesis from the terms, not from a prefix."""

    def test_a_tiny_growing_term_is_unbounded(self):
        psi = Combination(((1.0, RadialExponential(-1.0)), (1e-20, R2)))
        verdict = audit_hypotheses(RadialMonomial(0), psi).hyp1_bounded_psi
        assert not verdict.bounded
        assert (verdict.growth_exponent, verdict.growth_rate) == (1.0, 1.0)

    def test_a_difference_of_decaying_gaussians_is_bounded(self):
        psi = Combination(((1.0, RadialExponential(-0.01)), (-1.0, RadialExponential(-0.02))))
        verdict = audit_hypotheses(RadialMonomial(0), psi).hyp1_bounded_psi
        assert verdict.bounded and verdict.growth_exponent is None
        assert verdict.growth_rate == pytest.approx(1.0 / 1.01, rel=1e-15)

    def test_a_geometric_square_has_its_rate_and_no_polynomial_exponent(self):
        phi = RadialExponential(0.5)
        report = audit_hypotheses(phi, phi, n_entries=30)
        assert not report.hyp2_product_bounded.bounded
        assert report.hyp2_product_bounded.growth_exponent == 0.0
        assert report.hyp2_product_bounded.growth_rate == 4.0
        assert report.hyp1_bounded_psi.growth_rate == 2.0

    @pytest.mark.parametrize("x", [20.0, 100.0])
    def test_a_member_converges_at_every_x(self, x):
        phi = RadialExponential(0.4 + 0.8j)
        verdict = audit_hypotheses(phi, RadialMonomial(0), x_samples=(x,)).hyp3_phi_square_class
        assert verdict.member and verdict.a_converged == ((x, True),)
        assert verdict.note.startswith("decided, not sampled")

    @pytest.mark.parametrize("phi", [RadialExponential(0.6), RadialExponential(0.4 + 0.8j)])
    def test_a_negative_x_is_refused_for_any_phi(self, phi):
        with pytest.raises(DomainError, match="x >= 0"):
            audit_hypotheses(phi, RadialMonomial(0), x_samples=(0.5, -1.0))

    def test_the_worked_example_sits_on_the_circle(self):
        phi = RadialExponential(LAM_EXAMPLE)
        report = audit_hypotheses(phi, phi, n_entries=40)
        for verdict in (report.hyp1_bounded_psi, report.hyp2_product_bounded):
            assert verdict.bounded
            assert verdict.growth_rate == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "scale, bounded", [(1.0 - 1e-6, True), (1.0 + 1e-12, True), (1.0 + 1e-6, False)]
    )
    def test_the_circle_is_decided_within_its_tolerance(self, scale, bounded):
        psi = _on_circle(scale * BETA)
        verdict = audit_hypotheses(RadialMonomial(0), psi).hyp1_bounded_psi
        assert verdict.bounded is bounded
        assert verdict.growth_rate == pytest.approx(scale, abs=1e-15)
        assert verdict.growth_exponent == (None if bounded else 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-12])
    def test_a_polynomial_factor_on_the_circle_is_unbounded(self, scale):
        report = audit_hypotheses(_on_circle(scale * BETA), R2)
        assert not report.hyp2_product_bounded.bounded
        assert report.hyp2_product_bounded.growth_exponent == 1.0
        assert report.hyp2_product_bounded.growth_rate == pytest.approx(scale, abs=1e-15)

    def test_merged_coefficients_cancel_only_to_rounding(self):
        cancelling = [(np.array([0.1 * 0.7]), 2.0), (np.array([-0.07]), 2.0 + 1e-12)]
        decaying = [(np.array([1.0]), 0.5)]
        verdict = composition._boundedness(np.ones(4), cancelling + decaying)
        assert verdict.bounded and verdict.growth_rate == 0.5
        verdict = composition._boundedness(np.ones(4), [(np.array([1e-20]), 2.0)] + decaying)
        assert not verdict.bounded and verdict.growth_rate == 2.0
        # a residue of 1e-10 of the magnitudes is a real coefficient, not rounding
        residue = [(np.array([1.0]), 2.0), (np.array([-(1.0 - 1e-10)]), 2.0 + 1e-12)]
        assert not composition._boundedness(np.ones(4), residue + decaying).bounded


class TestComposeRadial:
    def test_identity_composition(self):
        report = compose_radial(RadialMonomial(0), RadialMonomial(0), n_entries=24)
        np.testing.assert_allclose(report.gamma_tau.values, np.ones(24), rtol=1e-13)
        assert report.reconstructed_tau == RadialMonomial(0)
        assert report.obstruction is not None
        assert report.obstruction.case is ObstructionCase.NONE_ASSERTED

    def test_degree_one_square_reconstructs_quartic(self):
        report = compose_radial(R2, R2, n_entries=48)
        n = np.arange(48)
        np.testing.assert_allclose(report.gamma_tau.values, (n + 1.0) ** 2, rtol=1e-12)
        tau = report.reconstructed_tau
        assert tau == Combination(((-1.0, R2), (1.0, RadialMonomial(2))))
        g_tau = gamma_sequence(tau, 48)
        np.testing.assert_allclose(g_tau.values, report.gamma_tau.values, rtol=1e-15)
        assert report.notes == (
            "reconstruction: tau read off the factors' terms; relative to max(1, |gamma|), "
            "its gamma deviates from the gamma product by at most 0.000e+00",
        )

    def test_gamma_check_is_relative_to_the_entries(self):
        # γ_τ(n) = 10000^{n+1} reaches 1e120 at N = 30; its absolute deviation is ~1e108
        phi = RadialExponential(0.99)
        report = compose_radial(phi, phi, n_entries=30)
        note = report.notes[0]
        assert "relative to max(1, |gamma|)" in note
        assert float(note.rsplit(" ", 1)[1]) <= 1e-10

    @pytest.mark.parametrize(
        "phi, psi",
        [
            (R2, R2),
            (RadialMonomial(0), RadialMonomial(2)),
            (BivariatePolynomial({(1, 1): 2.0, (0, 0): 1.0}), R2),
            (Combination(((1.0, R2), (0.5, RadialMonomial(0)))), R2),
        ],
    )
    def test_gamma_check_for_polynomial_pairs(self, phi, psi):
        report = compose_radial(phi, psi, n_entries=12)
        (note,) = report.notes
        assert note.startswith("reconstruction: tau read off the factors' terms")
        assert note.endswith("deviates from the gamma product by at most 0.000e+00")
        assert report.obstruction is None

    @pytest.mark.parametrize(
        "phi, psi, tau",
        [
            (RadialExponential(0), R2, R2),  # e^{0·r²} = 1, but written as an exponential
            (R2, RadialExponential(0), R2),
            (RadialExponential(-1.0), RadialExponential(-0.5), RadialExponential(-2.0)),
            (Combination(((1.0, R2), (1.0, RadialExponential(-1.0)))), R2, None),
        ],
    )
    def test_exponential_content_reads_tau_from_the_terms(self, phi, psi, tau):
        report = compose_radial(phi, psi, n_entries=12)
        assert report.reconstructed_tau == tau
        assert len(report.notes) == (2 if isinstance(tau, RadialExponential) else 1)

    def test_matrix_product_matches_gamma_product(self):
        for phi, psi in [(R2, RadialExponential(-1.0)), (RadialMonomial(2), R2)]:
            report = compose_radial(phi, psi, n_entries=16)
            product = toeplitz_matrix(phi, 16).entries @ toeplitz_matrix(psi, 16).entries
            np.testing.assert_allclose(
                np.diag(product), report.gamma_tau.values, rtol=1e-12
            )
            off_diag = product - np.diag(np.diag(product))
            np.testing.assert_allclose(off_diag, np.zeros((16, 16)), atol=1e-12)

    def test_example_composition_hits_the_obstruction(self):
        phi = RadialExponential(LAM_EXAMPLE)
        report = compose_radial(phi, phi, n_entries=40)
        n = np.arange(40)
        np.testing.assert_allclose(report.gamma_tau.values, BETA ** (2.0 * (n + 1)), rtol=1e-11)
        # the squared sequence is geometric with ratio β², i.e. λ' = 1 − β⁻²,
        # whose real part 1.28 sits outside the weighted L1 class
        assert report.reconstructed_tau is None
        assert any("outside the weighted L1 class" in note for note in report.notes)
        assert report.obstruction is not None
        assert report.obstruction.case is ObstructionCase.CASE1
        assert report.obstruction.margin == pytest.approx(0.28, abs=1e-9)

    def test_composition_of_radial_factors_commutes(self):
        a = compose_radial(R2, RadialExponential(-1.0), n_entries=24)
        b = compose_radial(RadialExponential(-1.0), R2, n_entries=24)
        np.testing.assert_allclose(a.gamma_tau.values, b.gamma_tau.values, rtol=1e-14)

    def test_json_report_shape(self):
        report = compose_radial(RadialMonomial(0), RadialMonomial(0), n_entries=8)
        payload = report.to_json()
        assert set(payload) == {
            "hyp1",
            "hyp2",
            "hyp3",
            "gamma_tau",
            "tau",
            "obstruction",
            "notes",
        }
        assert payload["tau"] == {"kind": "radial_monomial", "m": 0}


def tau_of(phi, n_entries=16):
    """τ of ``T_φ T_1``: the composition with the identity reconstructs φ."""
    return compose_radial(phi, RadialMonomial(0), n_entries=n_entries).reconstructed_tau


class TestReconstruction:
    def test_constant_sequence(self):
        assert tau_of(RadialMonomial(0)) == RadialMonomial(0)

    def test_single_monomial(self):
        assert tau_of(R2) == R2

    def test_quadratic_combination(self):
        symbol = tau_of(Combination(((2.0, RadialMonomial(2)), (-1.0, R2))), 24)
        assert symbol == Combination(((-1.0, R2), (2.0, RadialMonomial(2))))

    def test_geometric_sequence(self):
        lam = 0.3 - 0.2j
        symbol = tau_of(RadialExponential(lam), 32)
        assert isinstance(symbol, RadialExponential)
        np.testing.assert_allclose(symbol.lam, lam, rtol=1e-15)

    def test_round_trip_over_random_closed_forms(self):
        rng = np.random.default_rng(20240814)
        for _ in range(6):
            lam = float(rng.uniform(-2.0, 0.8))
            back = tau_of(RadialExponential(lam), 24)
            assert isinstance(back, RadialExponential)
            assert back.lam == pytest.approx(lam, rel=1e-15, abs=1e-16)
        for _ in range(6):
            weights = rng.integers(-3, 4, size=3)
            if not np.any(weights):
                weights[0] = 1
            parts = tuple(
                (float(w), RadialMonomial(m)) for m, w in enumerate(weights) if w != 0
            )
            symbol = Combination(parts)
            back = tau_of(symbol, 24)
            np.testing.assert_array_equal(
                gamma_sequence(back, 24).values, gamma_sequence(symbol, 24).values
            )

    @pytest.mark.parametrize(
        "phi, psi",
        [
            (BivariatePolynomial({}), RadialExponential(-0.5)),
            # 1/β_τ = (1 + 1e200)² overflows: β_τ^{n+1} underflows to 0
            (RadialExponential(-1e200), RadialExponential(-1e200)),
        ],
    )
    def test_zero_sequence_is_the_zero_symbol(self, phi, psi):
        report = compose_radial(phi, psi, n_entries=10)
        assert report.reconstructed_tau == BivariatePolynomial({})
        assert report.obstruction is None
        assert not np.any(report.gamma_tau.values)


class TestTauFromTerms:
    @pytest.mark.parametrize("n_entries", [5, 9])
    def test_two_gaussians_give_a_gaussian_at_any_truncation(self, n_entries):
        phi, psi = RadialExponential(-0.5), RadialExponential(-0.3)
        report = compose_radial(phi, psi, n_entries=n_entries)
        tau = report.reconstructed_tau
        assert isinstance(tau, RadialExponential)
        assert tau.lam == pytest.approx(1.0 - 1.5 * 1.3, abs=1e-15)
        product = gamma_sequence(phi, 40).values * gamma_sequence(psi, 40).values
        np.testing.assert_allclose(gamma_sequence(tau, 40).values, product, rtol=1e-14)
        assert report.obstruction.theta == pytest.approx(1.0 - 1.0 / 1.95, abs=1e-15)

    def test_near_identity_pair_gives_an_exponential(self):
        # β_φβ_ψ ≈ 1: the γ prefix is nearly polynomial, but τ is the exponential
        phi = RadialExponential(0.0499 + 0.312j)
        psi = RadialExponential(0.0496 - 0.311j)
        report = compose_radial(phi, psi, 58)
        tau = report.reconstructed_tau
        assert isinstance(tau, RadialExponential)
        assert tau.lam == pytest.approx(1.0 - (1.0 - phi.lam) * (1.0 - psi.lam), abs=1e-16)
        np.testing.assert_allclose(
            gamma_sequence(tau, 58).values, report.gamma_tau.values, rtol=1e-13
        )

    def test_a_sum_of_exponentials_gives_a_combination_of_exponentials(self):
        phi = Combination(((2.0, RadialExponential(-0.5)), (1.0, RadialExponential(0.2))))
        report = compose_radial(phi, RadialExponential(-0.3), n_entries=24)
        tau = report.reconstructed_tau
        assert isinstance(tau, Combination)
        assert [w for w, _s in tau.terms] == [2.0, 1.0]
        assert all(isinstance(s, RadialExponential) for _w, s in tau.terms)
        np.testing.assert_allclose(
            gamma_sequence(tau, 24).values, report.gamma_tau.values, rtol=1e-14
        )
        assert report.obstruction is None

    def test_a_monomial_meeting_an_exponential_has_no_tau(self):
        phi = Combination(((1.0, R2), (1.0, RadialExponential(-1.0))))
        report = compose_radial(phi, RadialExponential(-0.5), n_entries=16)
        assert report.reconstructed_tau is None and report.obstruction is None
        assert "is not a symbol variant" in report.notes[0]

    def test_a_polynomial_pair_has_the_gamma_of_its_diamond_product(self):
        p = Combination(((1.5 - 0.5j, RadialMonomial(3)), (0.25j, R2), (-2.0, RadialMonomial(0))))
        q = Combination(((0.75, RadialMonomial(2)), (1.0 + 1.0j, R2)))
        report = compose_radial(p, q, n_entries=32)
        np.testing.assert_allclose(
            gamma_sequence(report.reconstructed_tau, 32).values,
            gamma_sequence(diamond(p, q), 32).values,
            rtol=1e-14,
        )

    def test_the_obstruction_is_exact_for_one_exponential_term(self):
        phi = RadialExponential(LAM_EXAMPLE)
        report = compose_radial(Combination(((3.0, phi),)), phi, n_entries=8)
        k = 1.0 - BETA**2  # (32 − 24i)/25, on the circle with Re K = 1.28
        assert report.obstruction.theta == pytest.approx(k, abs=1e-15)
        assert report.obstruction.case is ObstructionCase.CASE1
        assert report.notes[1] == (
            f"wick symbol is exactly a Gaussian: amplitude {3.0 * BETA**2:.12g}, rate {k:.12g}"
        )


class TestWorkedExample:
    def test_end_to_end_report(self):
        report = audit_worked_example(n_entries=24)
        assert report.gamma_reference_max_err <= 1e-12
        assert report.quadrature_vs_reference_max_err <= 1e-9
        assert report.unit_modulus_max_dev <= 1e-12
        assert report.k_modulus_sq == pytest.approx(2.56, abs=1e-6)
        assert report.k_two_re == pytest.approx(2.56, abs=1e-6)
        assert report.circle_deviation <= 1e-6
        assert report.obstruction.case is ObstructionCase.CASE1
        assert report.composition.hyp1_bounded_psi.bounded
        assert report.composition.hyp2_product_bounded.bounded
        assert report.composition.hyp3_phi_square_class.member
        assert any("tension" in note for note in report.notes)
        assert any("convention" in note for note in report.notes)

    def test_one_gaussian_fit_per_worked_example(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fit_gaussian_wick(*args, **kwargs)

        monkeypatch.setattr(composition, "fit_gaussian_wick", counting)
        audit_worked_example(n_entries=24)
        assert len(calls) == 1

    def test_unreachable_fit_still_reaches_the_caller(self, monkeypatch):
        calls = []

        def unreachable(*args, **kwargs):
            calls.append(args)
            raise AccuracyError("series tail unreachable")

        monkeypatch.setattr(composition, "fit_gaussian_wick", unreachable)
        with pytest.raises(AccuracyError, match="unreachable"):
            audit_worked_example(n_entries=24)
        assert len(calls) == 1  # compose_radial fits nothing

    def test_json_report_shape(self):
        payload = audit_worked_example(n_entries=12).to_json()
        for key in (
            "n_entries",
            "symbol",
            "gamma_reference_max_err",
            "quadrature_vs_reference_max_err",
            "unit_modulus_max_dev",
            "gamma_quadrature",
            "composition",
            "fit",
            "k_modulus_sq",
            "k_two_re",
            "circle_deviation",
            "obstruction",
            "notes",
        ):
            assert key in payload
        assert payload["n_entries"] == 12
