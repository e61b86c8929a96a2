"""Dense complex matrix algebra: singular values (LAPACK's SVD), Schatten
quasinorms, the anti-triangular 0/1 mask Delta_n, and the singular spectrum it
shares with the upper-triangular mask chi_n, in closed form; for factors
x, y >= 0, the spectrum of triu(x y^T), from its bidiagonal inverse by one
call of LAPACK's dqds routine (or numpy's SVD of that inverse where the
routine's symbol does not resolve) to high relative accuracy, or, when that
inverse is unfit, from the dense SVD of its nonzero block."""

from __future__ import annotations

import ctypes
import math
import numbers

import numpy as np

__all__ = [
    "singular_values",
    "schatten_quasinorm",
    "delta_matrix",
    "mask_spectrum",
]


def _as_matrix(a, name="matrix"):
    """Coerce to a 2-D ndarray and enforce the type invariants."""
    m = np.asarray(a)
    if m.ndim != 2 or 0 in m.shape:
        raise ValueError(f"{name} must be a 2-D array with positive shape, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _check_p(p, p_max=np.inf):
    """The one exponent validator: p as a float, or ValueError unless p is a real number in (0, p_max]."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"exponent p must be a real number, got {p!r}")
    p = float(p)
    if not (p > 0) or not math.isfinite(p) or not math.isfinite(1.0 / p):
        raise ValueError(f"exponent p must be positive and finite with a finite reciprocal, got {p}")
    if p > p_max:
        raise ValueError(f"p must lie in (0, {p_max:g}], got {p}")
    return p


def _check_size(n, name="n", least=1):
    """The one integer validator: n as an int, or ValueError unless n is an integer (numpy integers
    included, bool not) and n >= least.  Sizes, levels and samples take 1, counts 0, offsets and seeds None."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    n = int(n)
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def singular_values(a):
    """Singular values of the matrix ``a``, sorted nonincreasing.

    Every input goes to LAPACK's SVD via numpy.  It is backward stable: each
    value carries an absolute error of order max(m, n) * eps * operator norm,
    so values at that level are rounding noise.  Non-convergence raises
    ``numpy.linalg.LinAlgError`` (it is never silently ignored).
    """
    return np.linalg.svd(_as_matrix(a), compute_uv=False)


def schatten_quasinorm(a, p):
    """Schatten quasinorm (sum of p-th powers of singular values)^(1/p).

    Defined for every p > 0; for p < 1 this is a quasinorm satisfying the
    p-triangle inequality.  The zero matrix returns 0; any other matrix whose power
    sum, or its 1/p-th power, leaves the double range raises OverflowError naming p.
    The 1/p-th root multiplies the power sum's relative rounding error by 1/p, about eps/p
    at small p: S_p([[5]]) is 5 to 5.9e-5 relative at p = 1e-12, and reads 1.0 at p = 1e-300.
    """
    p = _check_p(p)
    return _schatten_from_spectrum(singular_values(a), p)


def _schatten_from_spectrum(s, p):
    """(sum of s**p)^(1/p) for singular values s and a checked exponent p."""
    with np.errstate(over="ignore"):
        total = float(np.sum(s**p))
    if total == 0 and not s.any():  # the zero matrix
        return 0.0
    return _power_sum_root(total, p)


class _PowerSumUnderflow(OverflowError):
    """The power sum of a nonzero input, or its 1/p-th power, underflowed to 0."""


def _power_sum_root(total, p):
    """total^(1/p) for the power sum of a nonzero input, or OverflowError naming p when that sum or
    total^(1/p) leaves the double range (the subclass _PowerSumUnderflow when it underflows to 0)."""
    if not 0 < total < math.inf:
        error = _PowerSumUnderflow if total == 0 else OverflowError
        raise error(f"the power sum at p={p:g} leaves the double range")
    try:
        root = total ** (1.0 / p)
    except OverflowError:
        root = math.inf
    if not 0 < root < math.inf:
        error = _PowerSumUnderflow if root == 0 else OverflowError
        raise error(f"the 1/p-th power of the power sum at p={p:g} leaves the double range")
    return root


def delta_matrix(n):
    """n-by-n anti-triangular 0/1 Hankel matrix: entry (j, k) is 1 iff j+k < n.

    This block carries every nonzero entry of the corresponding infinite
    matrix, so all its spectral quantities are exact.  It equals the Hankel
    matrix of the analytic Dirichlet kernel of length n, and it is P_n's mask chi_n = np.triu(np.ones((n, n)))
    with the columns reversed, so both share one singular spectrum (mask_spectrum).
    """
    n = _check_size(n)
    idx = np.arange(n)
    return (np.add.outer(idx, idx) < n).astype(float)


def mask_spectrum(n):
    """Singular values of chi_n and delta_matrix(n), nonincreasing, in
    closed form (no LAPACK): 1 / (2 sin((2j - 1) pi / (2(2n + 1)))), j = 1..n."""
    n = _check_size(n)
    j = np.arange(1, n + 1)
    return 0.5 / np.sin((2 * j - 1) * np.pi / (2.0 * (2 * n + 1)))


def _find_dlasq1():
    """LAPACK's dqds routine dlasq1 and its integer type, from the LAPACK that numpy's own SVD links (a symbol
    looked up on numpy's linalg extension is searched in the libraries it loads), or None where no name resolves."""
    try:
        lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name, integer in (("scipy_dlasq1_64_", ctypes.c_int64), ("dlasq1_64_", ctypes.c_int64),
                          ("dlasq1_", ctypes.c_int32)):
        dlasq1 = getattr(lapack, name, None)
        if dlasq1 is not None:
            dlasq1.argtypes = [ctypes.POINTER(integer), *[ctypes.c_void_p] * 3, ctypes.POINTER(integer)]
            dlasq1.restype = None
            return dlasq1, integer
    return None


_DLASQ1 = _find_dlasq1()


def _triu_outer_spectrum(x, y):
    """The n singular values of triu(x y^T) for finite factors x, y >= 0 of one length n whose products
    x_i y_j are finite, nonincreasing.

    triu(x y^T) = D_x chi_n D_y, and its inverse A = D_y^{-1} (I - N) D_x^{-1} is upper bidiagonal with
    diagonal 1/(x_i y_i) and superdiagonal -1/(x_{i+1} y_i).  The kernel takes B = |A| = S A S, with
    S = diag((-1)^i) orthogonal, so B and A share their singular values.  They come from one call of
    LAPACK's dqds routine dlasq1 on B's diagonal and superdiagonal, to high relative accuracy (Demmel &
    Kahan 1990; Fernando & Parlett 1994), bit for bit the values numpy's SVD gives the dense B (its
    Householder steps leave a bidiagonal input as it is, and its qd step is that routine); their
    reciprocals in reverse order are the values sought, each to relative error O(n eps), and
    mask_spectrum(n) is the case x = y = 1.  Where no dlasq1 symbol resolves (_find_dlasq1), the values
    are singular_values of the dense n x n B, the same route through numpy's SVD.
    B is unfit when an entry is not a normal double (a zero factor entry makes it infinite) or its
    entries span more than 100 decades: with one entry 1e160 above the others, LAPACK's values were
    off by 5e-5 relative.  Then the values are the dense SVD's of triu(x y^T) with its zero rows and
    columns dropped, up to that SVD's rounding floor, followed by exact zeros: an SVD of the whole
    matrix would give each zero row a value at rounding level, which S_p at p < 1 would count.
    """
    n = x.size
    work = np.empty(6 * n)  # B's diagonal, its superdiagonal (dlasq1 ignores the last slot), 4n doubles for dqds
    band = work[: 2 * n - 1]
    with np.errstate(all="ignore"):  # a zero, tiny or huge factor is refused below
        rx, ry = 1.0 / x, 1.0 / y
        np.multiply(rx, ry, out=work[:n])
        np.multiply(rx[1:], ry[:-1], out=work[n : 2 * n - 1])
        lo, hi = band.min(), band.max()
        if lo >= np.finfo(float).tiny and hi < math.inf and hi <= 1e100 * lo:  # nan fails all
            if _DLASQ1 is None:
                b = np.zeros(n * n)
                b[:: n + 1], b[1 :: n + 1] = work[:n], work[n : 2 * n - 1]
                values = singular_values(b.reshape(n, n))
            else:
                dlasq1, integer = _DLASQ1
                info, address = integer(), work.ctypes.data
                dlasq1(integer(n), address, address + 8 * n, address + 16 * n, info)
                if info.value:
                    raise np.linalg.LinAlgError(f"dqds did not converge (dlasq1 info {info.value})")
                values = work[:n]
            s = 1.0 / values[::-1]
            if 0 < s[-1] and s[0] < math.inf:
                return s
    t = np.triu(np.outer(x, y))
    t = t[np.ix_(t.any(axis=1), t.any(axis=0))]
    s = np.zeros(n)
    if t.size:
        s[: min(t.shape)] = singular_values(t)
    return s
