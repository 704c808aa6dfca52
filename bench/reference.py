"""Independent references for the benchmark checks, computed with mpmath.

Nothing here imports ``fock_toeplitz``: every value is derived from the
closed forms of the paper at 40 significant digits, or exactly from integer
arithmetic, starting from the benchmark's own description of a symbol.  A
check therefore compares the program against mathematics, never against a
stored copy of its output.

A radial symbol is described by its terms ``(c, m, lam)``, each meaning
``c · r^{2m} e^{lam r²}`` with ``m = 0`` or ``lam = 0``; a bivariate
polynomial by a dict ``{(j, k): c}`` meaning ``Σ c z^j z̄^k``.  Matrix
references are float64 arrays built from factorial ratios computed exactly
and rounded once; their arithmetic errs by a few units in the last place of
the entries' size, far inside the 1e-12 the checks allow.
"""
from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40

# The classifier's published tolerance on the circle |θ|² = 2 Re θ.
CIRCLE_TOL = 1e-9


def to_mpc(z) -> mp.mpc:
    """A Python number, exactly, or an mpmath number, as mpc."""
    return mp.mpc(z.real, z.imag) if isinstance(z, complex) else mp.mpc(z)


def rising(n: int, m: int) -> int:
    """The rising factorial (n+1)_m = (n+1)(n+2)…(n+m), exactly."""
    out = 1
    for i in range(1, m + 1):
        out *= n + i
    return out


@functools.lru_cache(maxsize=None)
def _rising_mpf(n: int, m: int) -> mp.mpf:
    return mp.mpf(rising(n, m))


def gamma_radial(terms, n_entries: int) -> list:
    """γ(n) = Σ c · Γ(n+m+1)/n! · (1−λ)^{−(n+m+1)} for n < n_entries, as mpc.

    Γ(n+m+1)/n! is the exact rising factorial (n+1)_m and the power of
    β = 1/(1−λ) is carried by repeated multiplication at 40 digits.
    """
    out = [mp.mpc(0)] * n_entries
    for c, m, lam in terms:
        c = to_mpc(c)
        if lam == 0:
            for n in range(n_entries):
                out[n] += c * _rising_mpf(n, m)
            continue
        beta = 1 / (1 - to_mpc(lam))
        power = c * beta ** (m + 1)
        for n in range(n_entries):
            out[n] += power * _rising_mpf(n, m) if m else power
            power *= beta
    return out


def geometric(beta, n_entries: int) -> list:
    """[β^{n+1} for n < n_entries]: γ of e^{λr²} for β = 1/(1−λ); composing
    two such operators multiplies their β."""
    beta = to_mpc(beta)
    out = [beta]
    for _ in range(n_entries - 1):
        out.append(out[-1] * beta)
    return out


def gamma_polynomial(coeffs: dict, n_entries: int) -> list:
    """γ of the radial polynomial Σ c_m r^{2m}, from exact rising factorials."""
    return gamma_radial([(c, m, 0) for m, c in coeffs.items()], n_entries)


def wick_rate(lam_phi, lam_psi) -> mp.mpc:
    """Rate K of the Wick symbol B e^{−K r²} of T_φT_ψ for φ, ψ = e^{λ r²}.

    γ_φγ_ψ(n) = (β_φβ_ψ)^{n+1} with β = 1/(1−λ), and
    e^{−r²} Σ B^{n+1} r^{2n}/n! = B e^{−(1−B) r²}, so K = 1 − β_φβ_ψ.
    """
    return 1 - 1 / ((1 - to_mpc(lam_phi)) * (1 - to_mpc(lam_psi)))


def region(theta) -> str:
    """Obstruction region of θ from the inequalities: |θ|² = 2 Re θ with
    Re θ > 1 is Case1, |θ|² > 2 Re θ is Case2, anything else asserts nothing."""
    theta = to_mpc(theta)
    circle = abs(theta) ** 2 - 2 * theta.real
    if abs(circle) <= CIRCLE_TOL and theta.real > 1 + CIRCLE_TOL:
        return "Case1"
    if circle > CIRCLE_TOL:
        return "Case2"
    return "NoneAsserted"


def heat(terms, t: float, r: float) -> mp.mpc:
    """H_t of a radial symbol at radius r, term by term in closed form.

    H_t(r^{2m}) = Σ_i C(m,i)² i! tⁱ r^{2(m−i)} and
    H_t(e^{λr²}) = e^{λr²/(1−tλ)}/(1−tλ).  H₁ is the Wick symbol.
    """
    x = mp.mpf(r) ** 2
    t = mp.mpf(t)
    total = mp.mpc(0)
    for c, m, lam in terms:
        if lam == 0:
            term = sum(
                math.comb(m, i) ** 2 * math.factorial(i) * t**i * x ** (m - i)
                for i in range(m + 1)
            )
        elif m == 0:
            s = 1 - t * to_mpc(lam)
            term = mp.exp(to_mpc(lam) * x / s) / s
        else:
            raise ValueError("terms are pure monomials or pure exponentials")
        total += to_mpc(c) * term
    return total


@functools.lru_cache(maxsize=None)
def monomial_matrix(j: int, k: int, n_dim: int) -> np.ndarray:
    """T_{z^j z̄^k} truncated to n_dim: (n+j)!/√(n!(n+j−k)!) from e_n to
    e_{n+j−k}, 0 when n+j−k < 0; each ratio exact at 40 digits, then rounded
    once to float64."""
    out = np.zeros((n_dim, n_dim))
    for n in range(n_dim):
        row = n + j - k
        if 0 <= row < n_dim:
            exact = mp.sqrt(mp.mpf(math.factorial(n + j) ** 2) / (math.factorial(n) * math.factorial(row)))
            out[row, n] = mp.libmp.to_float(exact._mpf_, rnd=mp.libmp.round_nearest)
    out.setflags(write=False)
    return out


def toeplitz_matrix(coeffs: dict, n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """T_p = Σ c T_{z^j z̄^k} for p = Σ c z^j z̄^k, and Σ |c| |T_{z^j z̄^k}|,
    the size against which rounding in a sum of such terms is judged."""
    value = np.zeros((n_dim, n_dim), dtype=complex)
    size = np.zeros((n_dim, n_dim))
    for (j, k), c in coeffs.items():
        value += c * monomial_matrix(j, k, n_dim)
        size += abs(c) * monomial_matrix(j, k, n_dim)
    return value, size
