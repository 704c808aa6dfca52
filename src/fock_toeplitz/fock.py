"""Finite truncations of Fock-space objects.

Everything acts on the span of the monomial basis ``e_n = zⁿ/√n!`` for
``n < N``: coherent-state coefficient vectors, Toeplitz matrices (diagonal
for radial symbols, banded for monomial symbols ``z^j z̄^k``), ladder and
scaling operators, numerical Wick symbols via the coherent-state ratio,
operator norms, and the prefix spectrum of a radial operator.

Matrix convention: ``entries[m, n] = ⟨A e_n, e_m⟩``, so columns are images
of basis vectors and composition is plain matrix multiplication.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .calculus import _TOO_MANY_TERMS, _series_tail, _terms_needed
from .errors import AccuracyError, DomainError, NonFiniteResultError
from .quadrature import DEFAULT_TOL, GammaSequence, gamma_sequence
from .symbols import Symbol, is_radial, to_polynomial

__all__ = [
    "FockVector",
    "TruncatedOperator",
    "SpectrumPrefix",
    "coherent_coefficients",
    "eval_fock",
    "toeplitz_matrix",
    "ladder_matrices",
    "scaling_operator",
    "wick_symbol_numeric",
    "norm_estimate",
    "spectrum_radial",
    "r_map",
    "r_star",
    "r_matrix",
    "r_star_matrix",
    "radial_operator_from_sequence",
]


@dataclass(frozen=True, eq=False)
class FockVector:
    """Coefficients ``c_n`` of a truncated element ``Σ c_n e_n``."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return len(self.coeffs)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """An ``N×N`` matrix in the monomial basis."""

    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=complex)
        if a.shape != (self.dim, self.dim):
            raise DomainError(f"operator entries must be {self.dim}x{self.dim}, got {a.shape}")
        object.__setattr__(self, "entries", a)

    def apply(self, f: FockVector) -> FockVector:
        if len(f) != self.dim:
            raise DomainError(f"vector length {len(f)} does not match dim {self.dim}")
        return FockVector(self.entries @ f.coeffs)

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()


def coherent_coefficients(a: complex, n_entries: int) -> FockVector:
    """Expansion of the coherent state ``K_a(z) = e^{z ā}``: ``c_n = āⁿ/√n!``."""
    ratios = complex(a).conjugate() / np.sqrt(np.arange(1.0, n_entries))
    return FockVector(np.multiply.accumulate(np.concatenate(([1.0 + 0j], ratios)))[:n_entries])


def eval_fock(f: FockVector, z: complex) -> complex:
    """Pointwise value ``Σ c_n zⁿ/√n!``."""
    ratios = complex(z) / np.sqrt(np.arange(1.0, len(f)))
    basis = np.multiply.accumulate(np.concatenate(([1.0 + 0j], ratios)))[: len(f)]
    return complex(np.sum(f.coeffs * basis))


def _monomial_entries(j: int, k: int, n_dim: int) -> np.ndarray:
    """Matrix of ``T_{z^j z̄^k}``: entry ``(m, n) = (n+j)!/√(n! m!)`` with ``m = n+j−k``.

    Since ``n+j = m+k``, the entry is ``∏_{i≤j} √(n+i) · ∏_{i≤k} √(m+i)``.
    Every factor is at least 1, so no partial product exceeds the entry, and
    an entry overflows to ``inf`` only where its value does, without a warning.
    """
    out = np.zeros((n_dim, n_dim), dtype=complex)
    n = np.arange(max(0, k - j), min(n_dim, n_dim + k - j))
    m = n + j - k
    entry = np.ones(n.size)
    with np.errstate(over="ignore"):
        for i in range(1, j + 1):
            entry *= np.sqrt(n + i)
        for i in range(1, k + 1):
            entry *= np.sqrt(m + i)
    out[m, n] = entry
    return out


def toeplitz_matrix(symbol: Symbol, n_dim: int, tol: float = DEFAULT_TOL) -> TruncatedOperator:
    """Truncated Toeplitz operator ``T_φ`` in the monomial basis.

    Radial symbols give the diagonal of their γ-sequence; polynomial symbols
    assemble from the banded monomial matrices by linearity.  An entry that
    overflows float64 raises :class:`NonFiniteResultError` naming its term.
    """
    if n_dim < 1:
        raise DomainError("truncation dimension must be >= 1")
    if is_radial(symbol):
        gamma = gamma_sequence(symbol, n_dim, tol=tol)
        return TruncatedOperator(dim=n_dim, entries=np.diag(gamma.values))
    poly = to_polynomial(symbol)  # DomainError for non-polynomial, non-radial shapes
    entries = np.zeros((n_dim, n_dim), dtype=complex)
    with np.errstate(all="ignore"):  # overflow is reported below, not warned
        for (j, k), c in poly.coefficients.items():
            entries += c * _monomial_entries(j, k, n_dim)
            if not np.isfinite(entries).all():
                raise NonFiniteResultError(
                    f"matrix entries overflow float64 at the term z^{j}*zbar^{k}"
                )
    return TruncatedOperator(dim=n_dim, entries=entries)


def ladder_matrices(n_dim: int) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Creation and annihilation matrices: ``â* e_n = √(n+1) e_{n+1}``, ``â e_n = √n e_{n−1}``.

    On the truncation the commutator ``[â, â*]`` equals the identity on all
    basis directions except the last, where the cut-off row is an artifact.
    """
    if n_dim < 2:
        raise DomainError("ladder matrices need dimension >= 2")
    creation = np.diag(np.sqrt(np.arange(1.0, n_dim)), -1).astype(complex)
    return (
        TruncatedOperator(dim=n_dim, entries=creation),
        TruncatedOperator(dim=n_dim, entries=creation.T.copy()),
    )


def scaling_operator(a: complex, n_dim: int) -> TruncatedOperator:
    """The operator ``M_a f(z) = a f(az)``, diagonal with entries ``a^{n+1}``."""
    a = complex(a)
    diag = a ** np.arange(1, n_dim + 1)
    return TruncatedOperator(dim=n_dim, entries=np.diag(diag))


def wick_symbol_numeric(
    A: TruncatedOperator, v: complex, z: complex, tol: float = 1e-10
) -> complex:
    """Wick symbol by the coherent-state ratio ``(A K_v)(z) / K_v(z)``.

    The coherent state is truncated at ``A.dim`` coefficients, so the
    exponential-series tail at ``x = |v||z|`` must already be below ``tol``;
    otherwise an :class:`AccuracyError` reports the dimension that would
    suffice.
    """
    v, z = complex(v), complex(z)
    x = abs(v) * abs(z)
    bound = _series_tail(x, A.dim, x)
    if bound > tol:
        needed = _terms_needed(lambda n: _series_tail(x, n, x), A.dim, tol)
        hint = _TOO_MANY_TERMS if needed is None else f"dimension ~{needed} would suffice"
        raise AccuracyError(
            f"coherent-state tail {bound:.3e} exceeds tol {tol:.3e} at truncation "
            f"{A.dim}; {hint}"
        )
    numerator = eval_fock(A.apply(coherent_coefficients(v, A.dim)), z)
    denominator = cmath.exp(z * v.conjugate())
    return numerator / denominator


def norm_estimate(A: TruncatedOperator) -> float:
    """Largest singular value of the truncation (lower bound for the full norm)."""
    return float(np.linalg.norm(A.entries, 2))


@dataclass(frozen=True)
class SpectrumPrefix:
    """Distinct values among a γ-prefix; only a prefix of the true spectrum.

    The spectrum of a radial Toeplitz operator is the closure of the full
    value set {γ(n)}; a finite prefix cannot determine the closure, so the
    result is labeled rather than claimed complete.
    """

    points: tuple[complex, ...]
    label: str = "prefix of spectrum"


def spectrum_radial(gamma: GammaSequence, tol: float = 1e-9) -> SpectrumPrefix:
    """Collapse duplicate γ-values under ``tol``, preserving first-seen order."""
    points: list[complex] = []
    for v in gamma.values:
        v = complex(v)
        if all(abs(v - p) > tol for p in points):
            points.append(v)
    return SpectrumPrefix(points=tuple(points))


# ---------------------------------------------------------------------------
# R / R* coefficient maps
#
# R sends an analytic function to its normalized coefficient sequence and R*
# embeds a sequence back; on a truncation both act as the identity on
# coordinates.  They are provided both as functions and as explicit matrices
# so operator identities like R R* = I and T_a = R*(γ·)R can be executed.


def r_map(f: FockVector) -> np.ndarray:
    """R: coefficients of ``f`` with respect to ``{e_n}`` as a plain sequence."""
    return f.coeffs.copy()


def r_star(c) -> FockVector:
    """R*: the Fock vector with coefficient sequence ``c``."""
    return FockVector(np.asarray(c, dtype=complex))


def r_matrix(n_dim: int) -> np.ndarray:
    """Coordinate matrix of R on the truncation (identity)."""
    return np.eye(n_dim, dtype=complex)


def r_star_matrix(n_dim: int) -> np.ndarray:
    """Coordinate matrix of R* on the truncation (identity)."""
    return np.eye(n_dim, dtype=complex)


def radial_operator_from_sequence(values) -> TruncatedOperator:
    """Assemble ``R* · diag(γ) · R`` explicitly as a matrix product."""
    values = np.asarray(values, dtype=complex)
    n_dim = len(values)
    entries = r_star_matrix(n_dim) @ np.diag(values) @ r_matrix(n_dim)
    return TruncatedOperator(dim=n_dim, entries=entries)
