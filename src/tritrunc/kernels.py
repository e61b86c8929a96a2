"""Kernel families and certified cutoff functions.

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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matrices import _check_p
from .trigpoly import TrigPoly

__all__ = [
    "PointwiseFunction",
    "standard_bump",
    "standard_window",
    "dirichlet_plus",
    "fejer",
    "bump_poly",
    "lp_piece",
    "apply_window",
    "resolvent_hp_norm",
    "dirichlet_lp_ceiling",
]


@dataclass(frozen=True)
class PointwiseFunction:
    """A bump or a window made callable pointwise: the evaluator sees a 1-D
    float array; a scalar argument gives a float, an array of any shape an
    array of that shape."""

    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.evaluator(np.atleast_1d(x).ravel()))
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _sigma(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _smooth_step(s):
    s = np.asarray(s, dtype=float)
    a = _sigma(s)
    b = _sigma(1.0 - s)
    # a + b > 0 everywhere: a = 0 only for s <= 0, where b = sigma(1-s) > 0.
    return a / (a + b)


def standard_bump():
    """The reference bump q(t) = exp(1 - 1/(1 - t^2)) on (-1, 1), 0 outside."""

    def _q(t):
        out = np.zeros(t.shape)
        inside = np.abs(t) < 1
        ti = t[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
        return out

    return PointwiseFunction(_q)


def standard_window():
    """The reference dyadic window v(x) = h(log2 x + 1) - h(log2 x).

    v vanishes outside [1/2, 2], v(1) = 1 exactly, and for every x >= 1 the
    dilates satisfy sum_{j>=0} v(2^-j x) = 1 (telescoping of the step h).
    """

    def _v(x):
        out = np.zeros(x.shape)
        pos = x > 0
        s = np.log2(x[pos])
        out[pos] = _smooth_step(s + 1.0) - _smooth_step(s)
        return out

    return PointwiseFunction(_v)


def dirichlet_plus(n):
    """Analytic Dirichlet kernel: coefficients 1 on 0..n-1."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return TrigPoly(0, np.ones(n))


def fejer(m):
    """Fejér kernel: coefficients 1 - |j|/(m+1) for |j| <= m.

    Nonnegative on the circle with mean 1 under this normalization.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    js = np.arange(-m, m + 1)
    return TrigPoly(-m, 1.0 - np.abs(js) / (m + 1.0))


def bump_poly(m, q=None):
    """Polynomial sample of a bump: coefficients q(k/m) for |k| <= m - 1.

    The |k| = m endpoints vanish because q(+-1) = 0, so they are not stored.
    With an even q the coefficients are symmetric, hence the polynomial is
    real-valued on the circle.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if q is None:
        q = standard_bump()
    ks = np.arange(-(m - 1), m)
    return TrigPoly(-(m - 1), q(ks / m))


def lp_piece(n, v=None, max_degree=None):
    """The n-th dyadic window polynomial: coefficients v(2^-n j) for j > 0.

    Its natural support is the open dyadic band (2^{n-1}, 2^{n+1}); for n = 0
    it degenerates to the single monomial z.  max_degree must leave room for
    the full band (callers declare the coefficient budget they can afford).
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if v is None:
        v = standard_window()
    if max_degree is not None and int(max_degree) < 2 ** (n + 1):
        raise ValueError(f"max_degree={int(max_degree)} truncates the level-{n} band; need >= {2 ** (n + 1)}")
    if n == 0:
        return TrigPoly(1, [1.0])
    lo = 2 ** (n - 1) + 1
    hi = 2 ** (n + 1) - 1
    js = np.arange(lo, hi + 1)
    return TrigPoly(lo, v(js / 2.0**n))


def apply_window(f, n, v=None):
    """Multiply the j > 0 coefficients of f by v(2^-n j); zero all j <= 0.

    This evaluates the window where the coefficients live, so it realizes the
    circle convolution of f with the n-th window polynomial exactly (no
    quadrature and no floating residue on untouched bands).
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    if v is None:
        v = standard_window()
    if f.hi < 1:
        return TrigPoly(0, [0.0])
    lo = max(f.lo, 1)
    js = np.arange(lo, f.hi + 1)
    return TrigPoly(lo, f.coefficients_on(lo, f.hi) * v(js / 2.0**n))


def resolvent_hp_norm(p, rtol=1e-8):
    """H^p quasinorm of 1/(1-z): ((1/pi) * int_0^pi (2 sin(t/2))^-p dt)^(1/p).

    The integrand has an integrable endpoint singularity at t = 0 for
    0 < p < 1, so a geometrically graded mesh over [2^-40 pi, pi] is used
    (midpoint rule per cell, 200 cells per decade, refined by doubling until
    the change is below rtol).  Truncating the [0, 2^-40 pi] head omits at
    most a^(1-p)/(1-p) of the integral (a = 2^-40 pi): ~1e-6 relative at
    p = 1/2 and ~1e-3 at p = 3/4.  The omission only lowers the value, so
    every ceiling derived from it errs on the strict side.
    """
    p = _check_p(p)
    if p >= 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")

    a, b = (2.0**-40) * np.pi, np.pi
    decades = np.log10(b / a)

    def integrate(cells_per_decade):
        n_cells = int(np.ceil(decades * cells_per_decade))
        edges = np.geomspace(a, b, n_cells + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        widths = np.diff(edges)
        return float(np.sum((2.0 * np.sin(mids / 2.0)) ** (-p) * widths))

    density = 200
    prev = integrate(density)
    while True:
        density *= 2
        cur = integrate(density)
        if abs(cur - prev) <= rtol * abs(cur):
            break
        prev = cur
    return (cur / np.pi) ** (1.0 / p)


def dirichlet_lp_ceiling(p):
    """Uniform-in-n L^p ceiling for the analytic Dirichlet kernels, 0 < p < 1.

    Dominating the length-n kernel by the pole 1/(1-z) independently of n
    costs a factor 2 at the p-th-power level, so every ||D_n||_{L^p} is at
    most 2^{1/p} * resolvent_hp_norm(p).  That ceiling is what this returns;
    the boundedness of the whole kernel family below one fixed constant is
    the testable content.
    """
    return 2.0 ** (1.0 / float(p)) * resolvent_hp_norm(p)
