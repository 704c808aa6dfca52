"""Composition of radial Toeplitz operators and the Gaussian obstruction.

A composition ``T_φ T_ψ`` of radial Toeplitz operators is diagonal with
sequence ``γ_φ·γ_ψ``.  Whether that product sequence is again the
γ-sequence of a reasonable symbol is the content of two complementary
results: a sufficient-condition audit (boundedness of the factor sequences
plus square-integrability of ``φ`` with a convergent ``A_φ`` series) and an
obstruction for Gaussian Wick symbols ``e^{−θr²}`` whose parameter ``θ``
falls in specific regions of the plane.  This module makes both executable
and runs the built-in worked example end to end.

Every accepted symbol is a finite sum of terms ``c·r^{2m}e^{λr²}``, so its
γ-sequence, and the product of two, is an exact sum ``Σ P(n)·β^{n+1}`` with
``β = 1/(1−λ)`` and polynomial ``P``: the audit decides boundedness from
those terms, not from a prefix.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .calculus import GaussianWickFit, diamond, fit_gaussian_wick, safe_fit_radius
from .errors import AccuracyError, DomainError
from .quadrature import DEFAULT_TOL, GammaSequence, _check_finite, _rising, gamma_sequence
from .symbols import (
    BivariatePolynomial,
    Combination,
    RadialExponential,
    RadialMonomial,
    Symbol,
    SymbolClass,
    complex_to_json,
    describe,
    is_radial,
    membership,
    radial_terms,
    symbol_to_json,
)

__all__ = [
    "BoundednessVerdict",
    "SquareClassVerdict",
    "ObstructionCase",
    "ObstructionVerdict",
    "ReconstructionResult",
    "CompositionReport",
    "WorkedExampleReport",
    "audit_hypotheses",
    "compose_radial",
    "reconstruct_symbol",
    "reconstruct_details",
    "classify_obstruction",
    "audit_worked_example",
    "DEFAULT_X_SAMPLES",
]

DEFAULT_X_SAMPLES = (0.5, 1.0, 2.0, 4.0)
# tolerance of the circle |β| = 1 (and |θ|² = 2 Re θ), and of merging equal rates β
_CIRCLE_TOL = 1e-9


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class BoundednessVerdict:
    """Boundedness of a γ-sequence from its terms; ``growth_rate`` is the top
    ``|β|`` (0 for the zero sequence), ``growth_exponent`` the degree of ``P``
    there when unbounded, and ``max_abs`` evidence from the computed prefix."""

    bounded: bool
    max_abs: float
    attained_at: int
    growth_exponent: float | None
    note: str
    growth_rate: float

    def to_json(self) -> dict:
        return {
            "bounded": self.bounded,
            "max_abs": self.max_abs,
            "attained_at": self.attained_at,
            "growth_exponent": self.growth_exponent,
            "note": self.note,
            "growth_rate": self.growth_rate,
        }


@dataclass(frozen=True)
class SquareClassVerdict:
    """Weighted-L² membership of φ, which makes ``A_φ`` converge at every x ≥ 0."""

    member: bool
    q_finite: bool
    a_converged: tuple[tuple[float, bool], ...]
    note: str

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "q_finite": self.q_finite,
            "a_series": [{"x": x, "converged": c} for x, c in self.a_converged],
            "note": self.note,
        }


class ObstructionCase(enum.Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"
    NONE_ASSERTED = "NoneAsserted"


@dataclass(frozen=True)
class ObstructionVerdict:
    """Classification of a Gaussian Wick parameter θ.

    ``Case1``: θ on the circle ``|θ|² = 2 Re θ`` with ``Re θ > 1``;
    ``Case2``: strictly outside that circle, ``|θ|² > 2 Re θ``.  Both imply
    no bounded Toeplitz operator has Wick symbol ``e^{−θ|z|²}``; anything
    else asserts nothing.  ``margin`` is the distance from the deciding
    boundary: ``Re θ − 1`` for Case1, ``|θ|² − 2 Re θ`` for Case2, and the
    depth inside the circle otherwise.
    """

    theta: complex
    case: ObstructionCase
    margin: float

    def to_json(self) -> dict:
        return {
            "theta": complex_to_json(self.theta),
            "case": self.case.value,
            "margin": self.margin,
        }


def classify_obstruction(theta: complex, tol: float = _CIRCLE_TOL) -> ObstructionVerdict:
    """Place θ relative to the obstruction regions with tolerance ``tol``."""
    theta = complex(theta)
    circle = abs(theta) ** 2 - 2.0 * theta.real
    if abs(circle) <= tol and theta.real > 1.0 + tol:
        return ObstructionVerdict(theta=theta, case=ObstructionCase.CASE1, margin=theta.real - 1.0)
    if circle > tol:
        return ObstructionVerdict(theta=theta, case=ObstructionCase.CASE2, margin=circle)
    return ObstructionVerdict(
        theta=theta, case=ObstructionCase.NONE_ASSERTED, margin=max(0.0, -circle)
    )


# ---------------------------------------------------------------------------
# boundedness, decided from the terms


def _gamma_terms(symbol: Symbol):
    """``(P, β)`` with ``γ(n) = Σ P(n)·β^{n+1}``: a term ``c·r^{2m}e^{λr²}`` has
    ``β = 1/(1−λ)`` and ``P = c·β^m·(n+1)_m`` (coefficients, highest power first)."""
    for c, m, lam in radial_terms(symbol):
        beta = 1.0 / (1.0 - lam)
        yield np.atleast_1d(c * beta**m * np.poly(-np.arange(1.0, m + 1))), beta


def _boundedness(values: np.ndarray, terms) -> BoundednessVerdict:
    """Whether ``Σ P(n)·β^{n+1}`` is bounded: terms whose β agree within
    ``_CIRCLE_TOL`` are merged, and a merged coefficient within 8 eps of the
    magnitudes summed into it is zero.  ``values`` is the computed prefix."""
    groups: list[list] = []  # [β, Σ P, Σ |P|]
    for p, beta in terms:
        for g in groups:
            if abs(g[0] - beta) <= _CIRCLE_TOL:
                g[1], g[2] = np.polyadd(g[1], p), np.polyadd(g[2], np.abs(p))
                break
        else:
            groups.append([beta, p, np.abs(p)])
    live = []  # (|β|, degree of P) of each group that survives merging
    for beta, p, mags in groups:
        kept = np.flatnonzero(np.abs(p) > 8.0 * np.finfo(float).eps * mags)
        if kept.size:
            live.append((abs(beta), len(p) - 1 - int(kept[0])))
    bounded = all(r < 1.0 - _CIRCLE_TOL or (r <= 1.0 + _CIRCLE_TOL and d == 0) for r, d in live)
    rate = max((r for r, _d in live), default=0.0)
    exponent = None if bounded else float(max(d for r, d in live if r >= rate - _CIRCLE_TOL))
    mags = np.abs(np.asarray(values))
    attained = int(np.argmax(mags))
    return BoundednessVerdict(
        bounded=bounded,
        max_abs=float(mags[attained]),
        attained_at=attained,
        growth_exponent=exponent,
        note="decided from the terms: bounded iff each |beta| < 1, or = 1 with P constant",
        growth_rate=rate,
    )


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of recognizing a γ-sequence within the closed-form families."""

    symbol: Symbol | None
    family: str | None
    residual: float | None
    note: str


@dataclass(frozen=True, eq=False)
class CompositionReport:
    hyp1_bounded_psi: BoundednessVerdict
    hyp2_product_bounded: BoundednessVerdict
    hyp3_phi_square_class: SquareClassVerdict
    gamma_tau: GammaSequence
    reconstructed_tau: Symbol | None = None
    obstruction: ObstructionVerdict | None = None
    notes: tuple[str, ...] = ()
    # the Gaussian Wick fit of gamma_tau, whatever its residual; None when it
    # was not attempted or its series tail was unreachable.  Not serialized.
    fit: GaussianWickFit | None = None

    def to_json(self) -> dict:
        return {
            "hyp1": self.hyp1_bounded_psi.to_json(),
            "hyp2": self.hyp2_product_bounded.to_json(),
            "hyp3": self.hyp3_phi_square_class.to_json(),
            "gamma_tau": self.gamma_tau.to_json(),
            "tau": None if self.reconstructed_tau is None else symbol_to_json(self.reconstructed_tau),
            "obstruction": None if self.obstruction is None else self.obstruction.to_json(),
            "notes": list(self.notes),
        }


def audit_hypotheses(
    phi: Symbol,
    psi: Symbol,
    n_entries: int = 64,
    x_samples: tuple[float, ...] = DEFAULT_X_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> CompositionReport:
    """Check the three sufficient conditions for ``T_φ T_ψ`` to be Toeplitz.

    1. the factor sequence ``γ_ψ`` is bounded;
    2. the product sequence ``γ_φ γ_ψ`` is bounded;
    3. ``φ`` lies in the weighted L² class, so ``A_φ`` converges at every
       ``x ≥ 0`` (the ``x_samples`` are echoed).
    """
    for name, s in (("phi", phi), ("psi", psi)):
        if not is_radial(s):
            raise DomainError(f"hypothesis audit requires radial symbols; {name} is not radial")
    if not all(0 <= x < math.inf for x in x_samples):
        raise DomainError(f"A-series is defined for finite x >= 0, got {list(x_samples)}")
    gamma_phi = gamma_sequence(phi, n_entries, tol=tol)
    gamma_psi = gamma_sequence(psi, n_entries, tol=tol)
    with np.errstate(all="ignore"):  # overflow is reported below, not warned
        product = gamma_phi.values * gamma_psi.values
    _check_finite("product", product, n_entries)

    terms_phi, terms_psi = list(_gamma_terms(phi)), list(_gamma_terms(psi))
    hyp1 = _boundedness(gamma_psi.values, terms_psi)
    hyp2 = _boundedness(
        product, [(np.polymul(p, q), b * d) for p, b in terms_phi for q, d in terms_psi]
    )

    member = membership(phi, SymbolClass.L2_INF_WEIGHTED).member
    hyp3 = SquareClassVerdict(
        member=member,
        q_finite=member,  # weighted-L² membership makes every q(n) finite
        a_converged=tuple((float(x), member) for x in x_samples),
        note="decided, not sampled: A_phi is entire for every phi in the weighted L2 class",
    )

    gamma_tau = GammaSequence(
        values=product,
        abs_err=np.abs(gamma_phi.values) * gamma_psi.abs_err
        + np.abs(gamma_psi.values) * gamma_phi.abs_err,
        source=f"product of gamma[{describe(phi)}] and gamma[{describe(psi)}]",
        tol=tol,
        method=gamma_phi.method,
    )
    return CompositionReport(
        hyp1_bounded_psi=hyp1,
        hyp2_product_bounded=hyp2,
        hyp3_phi_square_class=hyp3,
        gamma_tau=gamma_tau,
    )


# ---------------------------------------------------------------------------
# reconstruction


def _recognize_geometric(values: np.ndarray) -> tuple[complex, float] | None:
    """Fit ``γ(n) = β^{n+1}``; returns (β, max relative residual) or None."""
    if np.any(values == 0):
        return None
    beta = complex(values[0])
    n = np.arange(len(values))
    with np.errstate(all="ignore"):  # an overflowing power leaves a nan residual: no fit
        predicted = beta ** (n + 1.0)
        residual = float(np.max(np.abs(values - predicted) / np.abs(predicted)))
    return beta, residual


def _recognize_polynomial(
    values: np.ndarray, tol: float, max_degree: int = 8
) -> tuple[np.ndarray, float, np.ndarray, float] | None:
    """Fit ``γ(n) = Σ_m d_m (n+1)(n+2)…(n+m)`` (rising-factorial basis).

    Solves the square system on the first ``d+1`` entries for each candidate
    degree and keeps the smallest degree whose residual over the whole
    prefix is below ``tol``.  Returns that fit's coefficients and residual,
    then the pruned coefficients and their residual: ``d_m`` is kept where
    its term moves the fit by more than ``tol``, and each column ``(n+1)_m``
    peaks at the last n.
    """
    scale = max(1.0, float(np.max(np.abs(values))))
    n1, top = np.arange(1.0, len(values) + 1), min(max_degree, len(values) - 1)
    full_basis = np.column_stack([_rising(n1, m) for m in range(top + 1)])  # (n+1)_m
    for degree in range(full_basis.shape[1]):
        basis = full_basis[:, : degree + 1]
        head = slice(0, degree + 1)
        try:
            coeffs = np.linalg.solve(basis[head, :], values[head])
        except np.linalg.LinAlgError:
            continue
        residual = float(np.max(np.abs(basis @ coeffs - values))) / scale
        if residual < tol:
            kept = np.where(np.abs(coeffs) * basis[-1] > tol * scale, coeffs, 0.0)
            kept_residual = float(np.max(np.abs(basis @ kept - values))) / scale
            return coeffs, residual, kept, kept_residual
    return None


def reconstruct_details(gamma: GammaSequence, tol: float = 1e-8) -> ReconstructionResult:
    """Recognize a γ-sequence as polynomial-radial or geometric (exponential).

    A general bounded sequence has no constructive closed-form symbol here;
    in that case the sequence itself remains the canonical description of
    the (diagonal) operator and ``symbol`` is None.
    """
    values = np.asarray(gamma.values, dtype=complex)
    if len(values) < 3:
        return ReconstructionResult(None, None, None, "prefix too short to recognize")

    poly = _recognize_polynomial(values, tol)
    if poly is not None:
        _, _, coeffs, residual = poly
        keep = [(complex(c), m) for m, c in enumerate(coeffs) if c != 0]
        if not keep:
            symbol: Symbol = BivariatePolynomial({})
            return ReconstructionResult(symbol, "polynomial", residual, "zero sequence")
        if len(keep) == 1 and abs(keep[0][0] - 1.0) <= 1e-10:
            symbol = RadialMonomial(keep[0][1])
        else:
            symbol = Combination(tuple((c, RadialMonomial(m)) for c, m in keep))
        return ReconstructionResult(symbol, "polynomial", residual, "rising-factorial fit")

    geo = _recognize_geometric(values)
    if geo is not None:
        beta, residual = geo
        if residual < tol:
            lam = 1.0 - 1.0 / beta
            if lam.real < 1.0:
                return ReconstructionResult(
                    RadialExponential(lam), "geometric", residual, f"beta = {beta}"
                )
            return ReconstructionResult(
                None,
                "geometric",
                residual,
                f"geometric with beta = {beta}, but lambda = 1 - 1/beta has "
                f"Re(lambda) = {lam.real:g} >= 1: outside the weighted L1 class",
            )

    return ReconstructionResult(
        None, None, None, "not recognized; the gamma prefix itself is the canonical datum"
    )


def reconstruct_symbol(gamma: GammaSequence, tol: float = 1e-8) -> Symbol | None:
    """Closed-form symbol whose γ-sequence matches, when one is recognized."""
    return reconstruct_details(gamma, tol=tol).symbol


# ---------------------------------------------------------------------------
# composition


def compose_radial(
    phi: Symbol,
    psi: Symbol,
    n_entries: int = 64,
    x_samples: tuple[float, ...] = DEFAULT_X_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> CompositionReport:
    """Full composition report for ``T_φ T_ψ``.

    The product sequence is always computed; reconstruction is attempted on
    it, a Gaussian Wick fit feeds the obstruction classifier when it
    succeeds, and for polynomial-radial factors the diamond product provides
    an independent cross-check of the γ-homomorphism.
    """
    report = audit_hypotheses(phi, psi, n_entries=n_entries, x_samples=x_samples, tol=tol)
    notes: list[str] = []

    recon = reconstruct_details(report.gamma_tau, tol=1e-8)
    notes.append(f"reconstruction: {recon.note}")

    obstruction: ObstructionVerdict | None = None
    fit_radius = safe_fit_radius(report.gamma_tau)
    try:
        fit = fit_gaussian_wick(report.gamma_tau, r_max=fit_radius)
    except AccuracyError:  # series tail unreachable even on the adapted grid
        fit = None
    if fit is not None and math.isfinite(fit.residual) and fit.residual < 1e-6:
        obstruction = classify_obstruction(fit.rate)
        notes.append(
            "wick symbol fits a Gaussian: amplitude "
            f"{fit.amplitude:.12g}, rate {fit.rate:.12g}, residual {fit.residual:.3e} "
            f"on radii up to {fit_radius:.3g}"
        )

    try:
        tau = diamond(phi, psi)
    except DomainError:
        pass  # a factor with exponential content has no polynomial form
    else:
        gamma_diamond = gamma_sequence(tau, n_entries, tol=tol)
        deviation = float(np.max(np.abs(gamma_diamond.values - report.gamma_tau.values)))
        notes.append(
            f"diamond cross-check: gamma of (phi<>psi) deviates from the "
            f"gamma product by at most {deviation:.3e}"
        )

    return replace(
        report, reconstructed_tau=recon.symbol, obstruction=obstruction,
        notes=tuple(notes), fit=fit,
    )


# ---------------------------------------------------------------------------
# the built-in worked example


@dataclass(frozen=True, eq=False)
class WorkedExampleReport:
    """Every intermediate of the built-in worked example with its error.

    The symbol is ``φ = e^{2(1+2i)/5·|z|²}``, whose γ-sequence is the
    unit-modulus geometric sequence ``((3+4i)/5)^{n+1}``.  Composing ``T_φ``
    with itself squares the sequence, the Wick symbol of the composition is
    a Gaussian ``C e^{−K|z|²}`` with ``|K|² = 2 Re K = 64/25``, and that
    parameter lands exactly in the Case1 obstruction region — even though
    the sufficient-condition audit passes for both factors.  Both verdicts
    are reported side by side; the library does not adjudicate between
    them.
    """

    n_entries: int
    symbol: Symbol
    gamma_reference_max_err: float
    quadrature_vs_reference_max_err: float
    unit_modulus_max_dev: float
    gamma_quadrature: GammaSequence
    composition: CompositionReport
    fit: GaussianWickFit
    k_modulus_sq: float
    k_two_re: float
    circle_deviation: float
    obstruction: ObstructionVerdict
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "n_entries": self.n_entries,
            "symbol": symbol_to_json(self.symbol),
            "gamma_reference_max_err": self.gamma_reference_max_err,
            "quadrature_vs_reference_max_err": self.quadrature_vs_reference_max_err,
            "unit_modulus_max_dev": self.unit_modulus_max_dev,
            "gamma_quadrature": self.gamma_quadrature.to_json(),
            "composition": self.composition.to_json(),
            "fit": {
                "amplitude": complex_to_json(self.fit.amplitude),
                "rate": complex_to_json(self.fit.rate),
                "residual": self.fit.residual,
            },
            "k_modulus_sq": self.k_modulus_sq,
            "k_two_re": self.k_two_re,
            "circle_deviation": self.circle_deviation,
            "obstruction": self.obstruction.to_json(),
            "notes": list(self.notes),
        }


def audit_worked_example(n_entries: int = 40, tol: float = DEFAULT_TOL) -> WorkedExampleReport:
    """Run the worked example end to end and report every intermediate."""
    lam = complex(2.0, 4.0) / 5.0
    beta = complex(3.0, 4.0) / 5.0
    phi = RadialExponential(lam)
    n = np.arange(n_entries)
    reference = beta ** (n + 1.0)

    gamma_closed = gamma_sequence(phi, n_entries, tol=tol, method="closed")
    closed_err = float(np.max(np.abs(gamma_closed.values - reference)))
    gamma_quad = gamma_sequence(phi, n_entries, tol=tol, method="quadrature")
    quad_err = float(np.max(np.abs(gamma_quad.values - reference)))
    modulus_dev = float(np.max(np.abs(np.abs(gamma_closed.values) - 1.0)))

    composition = compose_radial(phi, phi, n_entries=n_entries, tol=tol)
    fit = composition.fit
    if fit is None:  # fit again so that its error reaches the caller
        fit = fit_gaussian_wick(
            composition.gamma_tau, r_max=safe_fit_radius(composition.gamma_tau)
        )
    k = fit.rate
    k_modulus_sq = abs(k) ** 2
    k_two_re = 2.0 * k.real
    circle_deviation = abs(k_modulus_sq - k_two_re)
    obstruction = classify_obstruction(k)

    hyps_hold = (
        composition.hyp1_bounded_psi.bounded
        and composition.hyp2_product_bounded.bounded
        and composition.hyp3_phi_square_class.member
    )
    notes = [
        f"gamma has unit modulus (max deviation {modulus_dev:.3e}); "
        "the factor sequences and their product are all bounded",
        f"composed Wick symbol is Gaussian with rate K = {k:.12g}; "
        f"|K|^2 = {k_modulus_sq:.12g} and 2 Re K = {k_two_re:.12g} "
        f"(both should equal 64/25 = {64 / 25})",
        (
            "tension on this input: the sufficient-condition audit "
            f"{'passes' if hyps_hold else 'fails'} for both factors, while the "
            f"Gaussian parameter falls in obstruction {obstruction.case.value} — "
            "both verdicts are reported side by side, unadjudicated"
        ),
        (
            "convention note: a Gaussian Wick symbol e^{-K r^2} taken verbatim "
            "corresponds to the diagonal sequence (1-K)^n, while the scaling "
            "operator M_{1-K} has diagonal (1-K)^{n+1}; the two operators differ "
            "by one factor of (1-K) and the classifier depends only on K, not on "
            "that prefactor"
        ),
    ]
    return WorkedExampleReport(
        n_entries=n_entries,
        symbol=phi,
        gamma_reference_max_err=closed_err,
        quadrature_vs_reference_max_err=quad_err,
        unit_modulus_max_dev=modulus_dev,
        gamma_quadrature=gamma_quad,
        composition=composition,
        fit=fit,
        k_modulus_sq=k_modulus_sq,
        k_two_re=k_two_re,
        circle_deviation=circle_deviation,
        obstruction=obstruction,
        notes=tuple(notes),
    )
