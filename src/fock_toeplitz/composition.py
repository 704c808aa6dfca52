"""Composition of radial Toeplitz operators and the Gaussian obstruction.

A composition ``T_φ T_ψ`` of radial Toeplitz operators is diagonal with
sequence ``γ_φ·γ_ψ``.  Whether that product sequence is again the
γ-sequence of a reasonable symbol is the content of two complementary
results: a sufficient-condition audit (boundedness of the factor sequences
plus square-integrability of ``φ`` with a convergent ``A_φ`` series) and an
obstruction for Gaussian Wick symbols ``e^{−θr²}`` whose parameter ``θ``
falls in specific regions of the plane.  This module makes both executable
and runs the built-in worked example end to end; the classifier itself is
exact arithmetic, defined in :mod:`fock_toeplitz.algebra` and re-exported.

Every accepted symbol is a finite sum of terms ``c·r^{2m}e^{λr²}``, so its
γ-sequence, and the product of two, is an exact sum ``Σ P(n)·β^{n+1}`` with
``β = 1/(1−λ)`` and polynomial ``P``: the audit decides boundedness from
those terms, not from a prefix.  The composed symbol τ and, when τ is one
exponential term, the exact rate of its Gaussian Wick symbol are read off
the product of the same terms; nothing is fitted to the prefix.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    _CIRCLE_TOL,
    DEFAULT_X_SAMPLES,
    ObstructionCase,
    ObstructionVerdict,
    classify_obstruction,
    diamond,
)
from .calculus import GaussianWickFit, fit_gaussian_wick, safe_fit_radius
from .errors import DomainError
from .quadrature import DEFAULT_TOL, GammaSequence, _check_finite, gamma_sequence
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
    "CompositionReport",
    "WorkedExampleReport",
    "audit_hypotheses",
    "compose_radial",
    "classify_obstruction",
    "audit_worked_example",
    "DEFAULT_X_SAMPLES",
]


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


@dataclass(frozen=True, eq=False)
class CompositionReport:
    hyp1_bounded_psi: BoundednessVerdict
    hyp2_product_bounded: BoundednessVerdict
    hyp3_phi_square_class: SquareClassVerdict
    gamma_tau: GammaSequence
    reconstructed_tau: Symbol | None = None
    obstruction: ObstructionVerdict | None = None
    notes: tuple[str, ...] = ()

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
# composition


def _tau_terms(phi: Symbol, psi: Symbol):
    """The merged :func:`radial_terms` of τ with ``γ_τ = γ_φ·γ_ψ``, or None when
    a term ``r^{2m}`` (m > 0) meets a term ``e^{μr²}`` (μ ≠ 0): their product
    ``r^{2m}e^{μr²}`` is no symbol of the family.

    Exponentials multiply their ``β = 1/(1−λ)``, so ``e^{λr²}·e^{μr²}`` gives
    ``e^{λ_τ r²}`` with ``1 − λ_τ = (1−λ)(1−μ)`` (constants are ``λ = 0``);
    two monomials give their :func:`diamond` product.  A term whose weight
    underflows, or whose ``1/β_τ`` overflows, has a γ that underflows and is
    dropped before it reaches :class:`Combination`.
    """
    parts = []
    for c, m, lam in radial_terms(phi):
        for d, k, mu in radial_terms(psi):
            if m == k == 0:
                rate = (1.0 - lam) * (1.0 - mu)  # 1/β_τ
                if cmath.isfinite(rate):
                    parts.append((c * d, RadialExponential(1.0 - rate)))
            elif lam == mu == 0:
                parts.append((c * d, diamond(RadialMonomial(m), RadialMonomial(k))))
            else:
                return None
    parts = [(w, s) for w, s in parts if w != 0]
    return radial_terms(Combination(tuple(parts))) if parts else ()


def _symbol_of(terms) -> Symbol:
    """The symbol of merged radial terms: the bare variant for one term of
    weight 1, a :class:`Combination` for several, the zero symbol for none."""
    atoms = tuple(
        (c, RadialMonomial(m) if m or lam == 0 else RadialExponential(lam)) for c, m, lam in terms
    )
    if len(atoms) == 1 and atoms[0][0] == 1:
        return atoms[0][1]
    return Combination(atoms) if atoms else BivariatePolynomial({})


def compose_radial(
    phi: Symbol,
    psi: Symbol,
    n_entries: int = 64,
    x_samples: tuple[float, ...] = DEFAULT_X_SAMPLES,
    tol: float = DEFAULT_TOL,
) -> CompositionReport:
    """Full composition report for ``T_φ T_ψ``.

    τ is read off the product of the factors' terms (:func:`_tau_terms`), and
    its γ-sequence is checked against the product sequence.  When τ is one
    term ``c·e^{λ_τ r²}``, inside the weighted L1 class or not, its γ is
    ``c·μ^{n+1}`` with ``μ = 1/(1−λ_τ)``: the Wick symbol is exactly
    ``cμ·e^{−(1−μ)r²}``, and ``K = 1 − μ`` is classified.
    """
    report = audit_hypotheses(phi, psi, n_entries=n_entries, x_samples=x_samples, tol=tol)
    tau, obstruction, terms = None, None, _tau_terms(phi, psi)
    if terms is None:
        note = (
            "none in the family: a term r^(2m), m > 0, meets a term exp(lambda r^2), "
            "lambda != 0, and r^(2m) exp(lambda r^2) is not a symbol variant"
        )
    elif (rho := max((lam.real for _c, _m, lam in terms), default=0.0)) >= 1.0:
        note = f"the product terms have Re(lambda) = {rho:g} >= 1: outside the weighted L1 class"
    elif overflowing := [(m, lam) for c, m, lam in terms if not cmath.isfinite(c)]:
        m, lam = overflowing[0]
        term = describe(_symbol_of([(1, m, lam)]))
        note = f"the weight of tau's term {term} overflows float64"
    else:
        tau = _symbol_of(terms)
        product = report.gamma_tau.values
        check = np.abs(gamma_sequence(tau, n_entries, tol=tol).values - product)
        note = (
            "tau read off the factors' terms; relative to max(1, |gamma|), its gamma "
            "deviates from the gamma product by at most "
            f"{float(np.max(check / np.maximum(1.0, np.abs(product)))):.3e}"
        )
    notes = [f"reconstruction: {note}"]
    if terms and len(terms) == 1 and terms[0][1] == 0:
        c, _m, lam = terms[0]
        mu = 1.0 / (1.0 - lam)
        obstruction = classify_obstruction(1.0 - mu)
        if cmath.isfinite(c):
            notes.append(
                f"wick symbol is exactly a Gaussian: amplitude {c * mu:.12g}, rate {1.0 - mu:.12g}"
            )
    return replace(report, reconstructed_tau=tau, obstruction=obstruction, notes=tuple(notes))


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
    fit = fit_gaussian_wick(composition.gamma_tau, r_max=safe_fit_radius(composition.gamma_tau))
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
