"""Kernel families and cutoff functions.

This module owns the concrete analytic machinery: the analytic Dirichlet
kernel, the Fejér kernel, compactly supported smooth bumps and their
polynomial samples, and the dyadic partition-of-unity window whose dilates
drive the Littlewood-Paley decomposition.

The cutoff formulas are fixed (not merely "some admissible choice") so that
every constant appearing in the experiments is deterministic:

    sigma(s) = exp(-1/s) for s > 0, else 0          (smooth, flat at 0)
    h(s)     = sigma(s) / (sigma(s) + sigma(1-s))   (smooth step, 0->1 on [0,1])
    v(x)     = h(log2 x + 1) - h(log2 x)            (window, supp [1/2, 2])
    q(t)     = exp(1 - 1/(1 - t^2)) for |t| < 1     (bump, q(0) = 1)

h is exactly 0 for s <= 0 and exactly 1 for s >= 1 in floating point, which
makes v(1) = 1 exact and the telescoping partition of unity hold to rounding.
"""

from __future__ import annotations

import numpy as np

from .matrices import _check_size
from .trigpoly import TrigPoly

__all__ = [
    "standard_bump",
    "standard_window",
    "dirichlet_plus",
    "fejer",
    "bump_poly",
    "apply_window",
]


def _sigma(s):
    out = np.zeros(s.shape)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _smooth_step(s):
    a = _sigma(s)
    b = _sigma(1.0 - s)
    # a + b > 0 everywhere: a = 0 only for s <= 0, where b = sigma(1-s) > 0.
    return a / (a + b)


def standard_bump(t):
    """The reference bump q(t) = exp(1 - 1/(1 - t^2)) on (-1, 1), 0 outside,
    elementwise on an array of any shape."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def standard_window(x):
    """The reference dyadic window v(x) = h(log2 x + 1) - h(log2 x),
    elementwise on an array of any shape.

    v vanishes outside [1/2, 2], v(1) = 1 exactly, and for every x >= 1 the
    dilates satisfy sum_{j>=0} v(2^-j x) = 1 (telescoping of the step h).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > 0
    s = np.log2(x[pos])
    out[pos] = _smooth_step(s + 1.0) - _smooth_step(s)
    return out


def dirichlet_plus(n):
    """Analytic Dirichlet kernel: coefficients 1 on 0..n-1."""
    n = _check_size(n)
    return TrigPoly(0, np.ones(n))


def fejer(m):
    """Fejér kernel: coefficients 1 - |j|/(m+1) for |j| <= m.

    Nonnegative on the circle with mean 1 under this normalization.
    """
    m = _check_size(m, "m")
    js = np.arange(-m, m + 1)
    return TrigPoly(-m, 1.0 - np.abs(js) / (m + 1.0))


def bump_poly(m):
    """Polynomial sample of the standard bump: coefficients q(k/m), |k| <= m - 1.

    The |k| = m endpoints vanish because q(+-1) = 0, so they are not stored.
    q is even, so the coefficients are symmetric and the polynomial is
    real-valued on the circle.
    """
    m = _check_size(m, "m")
    ks = np.arange(-(m - 1), m)
    return TrigPoly(-(m - 1), standard_bump(ks / m))


def apply_window(f, n):
    """Multiply the j > 0 coefficients of f by v(2^-n j); zero all j <= 0.

    v is the standard window, so the nonzero support of the piece lies in the
    open dyadic band (2^{n-1}, 2^{n+1}), with v = 1 at j = 2^n.

    This evaluates the window where the coefficients live, so it realizes the
    circle convolution of f with the n-th window polynomial exactly (no
    quadrature and no floating residue on untouched bands).  The piece is
    stored on its nonzero coefficients alone: the window is evaluated on the
    band within f's support, and the ends where f or the tail of v is 0 are
    trimmed, so the first and last stored coefficients are nonzero and the
    stored window sizes the quadrature grid of lp_quasinorm.  An empty piece
    is TrigPoly(0, [0.0]).
    """
    n = _check_size(n, "level", least=0)
    # past n = bit_length(f.hi) the band starts above f.hi (and 2^n may be huge)
    if n > f.hi.bit_length():
        return TrigPoly(0, [0.0])
    lo = max(f.lo, 1, 2**n // 2 + 1)
    hi = min(f.hi, 2 ** (n + 1) - 1)
    if hi < lo:
        return TrigPoly(0, [0.0])
    js = np.arange(lo, hi + 1)
    c = f.coefficients_on(lo, hi) * standard_window(js / 2.0**n)
    nz = np.flatnonzero(c)
    if nz.size == 0:
        return TrigPoly(0, [0.0])
    return TrigPoly(lo + int(nz[0]), c[nz[0] : nz[-1] + 1])

