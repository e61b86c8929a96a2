"""Hankel matrices of analytic polynomials and dyadic-decomposition quasinorms.

The bridge between the function side and the operator side: an analytic
polynomial phi of degree d is carried by the (d+1) x (d+1) Hankel matrix with
entries phi^(j+k) — that finite block holds every nonzero entry of the
corresponding infinite matrix, so its spectrum is exact — while the dyadic
window pieces of phi measure its smoothness-penalized size, and
``hankel_multiplier_upper`` is the paper's bound on the Schur-multiplier
quasinorm of that Hankel matrix.  Each of the three takes an analytic phi
only (``_require_analytic``).  The band estimate that joins the two sides for
phi in one dyadic band is E3's measure, and the bump witness E2 sets against
the bound is E2's (``tritrunc.experiments``); each is computed from
``hankel_matrix`` and the S_p and L^p entry points directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import apply_window
from .matrices import _PowerSumUnderflow, _check_p, _power_sum_root
from .trigpoly import lp_quasinorm

__all__ = ["BesovReport", "hankel_matrix", "hankel_multiplier_upper", "besov_quasinorm"]


@dataclass(frozen=True)
class BesovReport:
    """Level-by-level dyadic quasinorm summary.

    levels holds (n, 2^n * ||window_n piece||_p^p) in increasing n; zero_term
    is |phi^(0)|^p (the constant coefficient is invisible to the windows and
    is added back so only the zero polynomial has quasinorm 0); total is
    (sum of terms + zero_term)^(1/p).
    """

    levels: tuple
    zero_term: float
    total: float


def _require_analytic(f, op):
    if f.lo < 0 and f.coefficients_on(f.lo, min(f.hi, -1)).any():
        raise ValueError(f"{op} requires an analytic polynomial (no negative-index coefficients); got support {f.lo}..{f.hi}")


def hankel_matrix(f):
    """The (d+1) x (d+1) Hankel matrix phi^(j+k), d = max(f.hi, 0) (stored, untrimmed): a read-only view of
    phi^(0..2d) in f's storage dtype.  A zero symbol stored at negative indices only is the 1 x 1 zero matrix."""
    _require_analytic(f, "hankel_matrix")
    d = max(f.hi, 0)
    return np.lib.stride_tricks.sliding_window_view(f.coefficients_on(0, 2 * d), d + 1)


def hankel_multiplier_upper(f, p):
    """Analytic multiplier upper bound (2m)^{1/p-1} ||phi||_{L^p}, m = max(f.hi, 0) + 1: the paper's Hankel-route
    bound, which E2 reports (``tritrunc multiplier-bound`` prints matrices.mask_multiplier_ceiling).

    m is the size of hankel_matrix(f), one past the stored top index, so stored
    trailing zeros count: TrigPoly(0, [1.0, 0.0, 0.0]) has m = 3, not deg + 1 = 1,
    and a zero symbol stored at negative indices only has m = 1.  At p <= 1 the
    factor grows with m, so a larger m only loosens the bound.

    Valid for p <= 1 and any analytic polynomial phi; every witness ratio
    against the Hankel matrix of phi stays below it, up to the L^p factor's
    quadrature error (measured at most 3e-5 relative at p = 1/2).  A bound beyond the double range raises OverflowError naming p.
    """
    p = _check_p(p, 1.0)
    _require_analytic(f, "hankel_multiplier_upper")
    with np.errstate(over="ignore"):
        upper = float(np.float64(2.0 * (max(f.hi, 0) + 1)) ** (1.0 / p - 1.0) * lp_quasinorm(f, p))
    if not math.isfinite(upper):
        raise OverflowError(f"the bound (2m)^(1/p-1) ||phi||_p at p={p} leaves the double range")
    return upper


def besov_quasinorm(f, p):
    """Dyadic (Littlewood-Paley) quasinorm of an analytic polynomial.

    Sums 2^n * ||f * V_n||_p^p over the levels n with 2^{n-1} <= f.hi
    — every later level is exactly zero because the window is evaluated on
    the coefficients — plus the |phi^(0)|^p augmentation, and reports the
    1/p-th root.  Each level's piece is stored on its nonzero coefficients
    (apply_window), so its quadrature grid is sized by the piece's own span,
    not by f's degree; an empty piece contributes 0 with no quadrature.  A
    piece whose L^p power sum, or its root, underflows contributes 0 too; a
    nonzero f whose total power sum, zero term included, or its root leaves
    the double range raises OverflowError naming p.
    """
    p = _check_p(p)
    _require_analytic(f, "besov_quasinorm")

    levels = []
    n = 0
    while 2.0 ** (n - 1) <= f.hi:
        piece = apply_window(f, n)
        try:
            term = 2.0**n * lp_quasinorm(piece, p) ** p if piece.coeffs.any() else 0.0
        except _PowerSumUnderflow:  # |piece|^p is below the smallest double: it adds 0, as rounding would
            term = 0.0
        levels.append((n, term))
        n += 1

    with np.errstate(over="ignore"):  # an infinite zero term reaches the total's check, which names p
        zero_term = float(abs(f.coefficients_on(0, 0)[0]) ** p)
    power_sum = sum(term for _, term in levels) + zero_term
    total = _power_sum_root(power_sum, p) if f.coeffs.any() else 0.0
    return BesovReport(levels=tuple(levels), zero_term=zero_term, total=total)
