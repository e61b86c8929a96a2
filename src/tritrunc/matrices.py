"""Dense complex matrix algebra: singular values (one LAPACK route, the
SVD), Schatten quasinorms, the anti-triangular 0/1 mask Delta_n, and the
singular spectrum it shares with the upper-triangular mask chi_n, in closed
form; for factors x, y >= 0, the spectrum of triu(x y^T), from its bidiagonal
inverse to high relative accuracy or, when that inverse is unfit, from the
dense SVD of its nonzero block."""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "singular_values",
    "schatten_quasinorm",
    "delta_matrix",
    "mask_spectrum",
]


def _as_matrix(a, name="matrix", stack=False):
    """Coerce to a 2-D ndarray, or with ``stack`` to a stack (..., m, n) of them, and enforce the type invariants."""
    m = np.asarray(a)
    if (m.ndim < 2 if stack else m.ndim != 2) or 0 in m.shape:
        what = "a 2-D array or a stack of them" if stack else "a 2-D array"
        raise ValueError(f"{name} must be {what} with positive shape, got shape {m.shape}")
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
    """Singular values of ``a``, sorted nonincreasing; of a stack (..., m, n), those of each matrix, shape (..., min(m, n)).

    Every input goes to LAPACK's SVD via numpy, one matrix at a time, so a
    stacked call gives each matrix the bits of a call on that matrix alone.
    It is backward stable: each value carries an absolute error of order
    max(m, n) * eps * operator norm, so values at that level are rounding
    noise.  Non-convergence raises ``numpy.linalg.LinAlgError`` (it is never
    silently ignored).
    """
    return np.linalg.svd(_as_matrix(a, stack=True), compute_uv=False)


def schatten_quasinorm(a, p):
    """Schatten quasinorm (sum of p-th powers of singular values)^(1/p).

    Defined for every p > 0; for p < 1 this is a quasinorm satisfying the
    p-triangle inequality.  The zero matrix returns 0; any other matrix whose power
    sum, or its 1/p-th power, leaves the double range raises OverflowError naming p.
    """
    p = _check_p(p)
    return _schatten_from_spectrum(singular_values(_as_matrix(a)), p)


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


def _triu_outer_spectrum(x, y):
    """The n singular values of triu(x y^T) for finite factors x, y >= 0 of one length n whose products
    x_i y_j are finite, nonincreasing; for stacks of factors (..., n), those of each pair of rows, (..., n).

    triu(x y^T) = D_x chi_n D_y, and its inverse A = D_y^{-1} (I - N) D_x^{-1} is upper bidiagonal with
    diagonal 1/(x_i y_i) and superdiagonal -1/(x_{i+1} y_i).  The kernel takes B = |A| = S A S, with
    S = diag((-1)^i) orthogonal, so B and A share their singular values; LAPACK's qd step reads only
    |d_i| and e_i^2, so no sign reaches the computed values either.  LAPACK's Householder steps leave
    an input that is already upper bidiagonal as it is (each reflector is the identity), and its values
    come by dqds, to high relative accuracy (Demmel & Kahan 1990; Fernando & Parlett 1994); their
    reciprocals in reverse order are the values sought, each to relative error O(n eps), and
    mask_spectrum(n) is the case x = y = 1.  The fit rows' B go to LAPACK in one stacked call, each row's
    values bit for bit those of a call on its B alone; that stack holds n^2 doubles a row, so a caller
    bounds its memory by the rows it passes (random_witness_search sizes its blocks of draws so).
    B is unfit when an entry is not a normal double (a zero factor entry makes it infinite) or its
    entries span more than 100 decades: with one entry 1e160 above the others, LAPACK's values were
    off by 5e-5 relative.  Then the row's values are the dense SVD's of triu(x y^T) with its zero rows
    and columns dropped, one row at a time, up to that SVD's rounding floor, followed by exact zeros: an
    SVD of the whole matrix would give each zero row a value at rounding level, which S_p at p < 1 would
    count.
    """
    n = x.shape[-1]
    xs, ys = x.reshape(-1, n), y.reshape(-1, n)
    s = np.empty(xs.shape)
    done = np.zeros(len(xs), dtype=bool)
    with np.errstate(all="ignore"):  # a zero, tiny or huge factor is refused below
        rx, ry = 1.0 / xs, 1.0 / ys
        band = np.concatenate((rx * ry, rx[:, 1:] * ry[:, :-1]), axis=1)  # B's diagonal, then its superdiagonal
        lo, hi = np.minimum.reduce(band, axis=1), np.maximum.reduce(band, axis=1)
        fit = np.flatnonzero((lo >= np.finfo(float).tiny) & (hi < math.inf) & (hi <= 1e100 * lo))  # nan fails all
        if fit.size:  # singular_values rejects an empty stack
            b = np.zeros((fit.size, n * n))
            b[:, :: n + 1], b[:, 1 :: n + 1] = band[fit, :n], band[fit, n:]
            s[fit] = 1.0 / singular_values(b.reshape(-1, n, n))[:, ::-1]
        done[fit] = (0 < s[fit, -1]) & (s[fit, 0] < math.inf)
    for i in np.flatnonzero(~done):
        t = np.triu(np.outer(xs[i], ys[i]))
        t = t[np.ix_(t.any(axis=1), t.any(axis=0))]
        s[i] = 0.0
        if t.size:
            s[i, : min(t.shape)] = singular_values(t)
    return s.reshape(x.shape)
