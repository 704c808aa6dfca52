"""log Γ and the rising factorial on the arguments this package uses.

Both functions reproduce ``scipy.special.gammaln`` and ``scipy.special.poch``
bit for bit, so the package gives the same numbers without importing
``scipy.special``, whose import costs more than a whole CLI call.

``gammaln`` is a port, operation for operation, of the Cephes ``lgam``
routine that SciPy ships (Cephes Math Library, Stephen L. Moshier; the
coefficients below are Cephes', distributed with SciPy under its BSD
licence), restricted to ``x ≥ 1``: the upward recurrence and the rational
fit on ``[2, 3]`` below 13, Stirling's series from 13 on.  Every logarithm is
``math.log`` (the platform libm, which Cephes calls too); numpy's
vectorised ``np.log`` may differ in the last bit.  The ``+ − × ÷`` of numpy
are correctly rounded, so the Stirling branch is vectorised around the
logarithm.

Every caller passes integers or half-integers ``≥ 1``, so values are kept in
a table of ``log Γ(k/2)`` that grows by doubling; a lookup is an array
index.  Arguments beyond the table's largest size are computed directly by
the same port.  Any other argument raises :class:`DomainError`.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["gammaln", "poch"]

# Cephes lgam: Stirling-series correction A, rational fit B/C on [2, 3]
_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_C = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log √(2π)
_MAXLGM = 2.556348e305

# Table sizes are powers of two counted in half-units: index k holds log Γ(k/2).
_TABLE_MIN = 256
_TABLE_MAX = 1 << 20  # 8 MB; covers every argument below 524 288


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """:func:`_polevl` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam_small(x: float) -> float:
    """Cephes ``lgam`` for ``1 ≤ x < 13``: recur into [2, 3], then the B/C fit."""
    z = 1.0
    p = 0.0
    u = x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    p -= 2.0
    x = x + p
    p = x * _polevl(x, _B) / _p1evl(x, _C)
    return math.log(z) + p


def _lgam_stirling(x: np.ndarray) -> np.ndarray:
    """Cephes ``lgam`` for ``x ≥ 13``, elementwise."""
    log_x = np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)
    with np.errstate(over="ignore", under="ignore"):  # only for x beyond 1e154
        q = (x - 0.5) * log_x - x + _LS2PI
        p = 1.0 / (x * x)
    far = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
           + 0.0833333333333333333333) / x
    near = _polevl(p, _A) / x
    q = np.where(x > 1.0e8, q, q + np.where(x >= 1000.0, far, near))
    return np.where(x > _MAXLGM, np.inf, q)


def _lgam(x: np.ndarray) -> np.ndarray:
    """Cephes ``lgam`` for float64 ``x ≥ 1``, elementwise."""
    out = np.empty_like(x)
    small = x < 13.0
    out[small] = [_lgam_small(v) for v in x[small].tolist()]
    out[~small] = _lgam_stirling(x[~small])
    return out


# log Γ(k/2) at index k, shared by every caller in the process; it only grows
_table = np.empty(0)


def _table_upto(k_max: int) -> np.ndarray:
    """The table of ``log Γ(k/2)``, grown by doubling to cover index ``k_max``."""
    global _table
    size = len(_table)
    if k_max >= size:
        new_size = max(_TABLE_MIN, 2 * size)
        while new_size <= k_max:
            new_size *= 2
        k = np.arange(max(size, 2), new_size)
        grown = np.empty(new_size)
        grown[:2] = np.nan  # Γ(0) and Γ(1/2) are outside the domain
        grown[2:size] = _table[2:]
        grown[k] = _lgam(k / 2.0)
        _table = grown
    return _table


def gammaln(x):
    """``log Γ(x)`` for integers and half-integers ``x ≥ 1``.

    Equal bit for bit to ``scipy.special.gammaln``.  Accepts a scalar or an
    array and returns the same shape; any other argument raises
    :class:`DomainError`.
    """
    x = np.asarray(x, dtype=float)
    twice = x + x
    if twice.size and twice.min() >= 2.0 and (top := twice.max()) < _TABLE_MAX:
        k = twice.astype(np.intp)
        if (k == twice).all():
            out = _table_upto(int(top))[k]
            return out if out.ndim else float(out)
    # empty, beyond the table, or outside the domain
    if not np.all((twice >= 2.0) & (twice == np.floor(twice))) or np.isinf(twice).any():
        raise DomainError("gammaln is defined here for integers and half-integers >= 1")
    out = _lgam(x.reshape(-1)).reshape(x.shape)
    return out if out.ndim else float(out)


def poch(a, m: int):
    """Rising factorial ``(a)_m = a(a+1)…(a+m−1)`` for integer ``m ≥ 0``, ``a ≥ 1``.

    Multiplied in Cephes' order, ``(a+m−1)(a+m−2)…a``, so it equals
    ``scipy.special.poch`` bit for bit on this domain.
    """
    if int(m) != m or m < 0:
        raise DomainError(f"poch needs an integer m >= 0, got {m}")
    a = np.asarray(a, dtype=float)
    if a.size and not a.min() >= 1.0:
        raise DomainError("poch is defined here for a >= 1")
    # Cephes starts from 1.0 · (a+m−1), which is exactly a+m−1
    r = a + (m - 1) if m else np.ones_like(a)
    with np.errstate(over="ignore"):  # an overflowing product is inf, as in Cephes
        for j in range(int(m) - 2, -1, -1):
            r *= a + j
    return r if r.ndim else float(r)
