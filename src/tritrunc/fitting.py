"""Log-log power-law regression: the unit of experimental evidence."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ScalingFit", "fit_powerlaw"]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (ln x, ln y) judged against a target slope.

    ``passed`` is derived from the fields, never stored: |slope - target| <=
    tolerance, or slope - target <= tolerance when one_sided (the boundedness
    experiments, where an arbitrarily negative slope is fine).
    """

    slope: float
    intercept: float
    max_residual: float
    target: float
    tolerance: float
    one_sided: bool = False

    @property
    def passed(self):
        gap = self.slope - self.target
        return (gap if self.one_sided else abs(gap)) <= self.tolerance


def fit_powerlaw(points, target, tolerance, one_sided=False):
    """Fit y = C * x^slope by closed-form least squares on the log-log points.

    With u = ln x and w = ln y, and mu and mw their means, slope =
    sum((u - mu)(w - mw)) / sum((u - mu)^2) and intercept = mw - slope * mu.
    Every sum is ``math.fsum`` (correctly rounded), so no BLAS or LAPACK kernel
    touches the fit: its bits depend on the points and the C library's log
    alone.  Requires at least 3 points with finite, strictly positive
    coordinates, at least 2 of them with distinct x; the verdict compares the
    slope against target within tolerance (two-sided by default).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points for a power-law fit, got {len(pts)}")
    if not all(0.0 < v < math.inf for pt in pts for v in pt):  # NaN fails the comparison too
        raise ValueError("power-law fit requires finite, strictly positive coordinates")
    lx = [math.log(x) for x, _ in pts]
    ly = [math.log(y) for _, y in pts]
    if len(set(lx)) < 2:  # on the logs: adjacent huge doubles can share one
        raise ValueError("power-law fit requires at least 2 distinct x")
    target, tolerance = float(target), float(tolerance)
    if not (tolerance > 0):
        raise ValueError("tolerance must be positive")

    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    dx = [x - mx for x in lx]
    slope = math.fsum(d * (y - my) for d, y in zip(dx, ly)) / math.fsum(d * d for d in dx)
    intercept = my - slope * mx
    max_residual = max(abs(y - (slope * x + intercept)) for x, y in zip(lx, ly))
    return ScalingFit(slope, intercept, max_residual, target, tolerance, bool(one_sided))
