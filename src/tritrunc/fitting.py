"""Log-log power-law regression: the unit of experimental evidence."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ScalingFit", "fit_powerlaw"]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (ln x, ln y) judged against a target slope.

    one_sided relaxes the verdict to slope <= target + tolerance (used by the
    boundedness experiments, where an arbitrarily negative slope is fine).
    """

    slope: float
    intercept: float
    max_residual: float
    target: float
    tolerance: float
    passed: bool
    one_sided: bool = False


def fit_powerlaw(points, target, tolerance, one_sided=False):
    """Fit y = C * x^slope by closed-form least squares on the log-log points.

    Requires at least 3 points with finite, strictly positive coordinates; the
    verdict compares the slope against target within tolerance (two-sided by
    default).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points for a power-law fit, got {len(pts)}")
    if not all(0.0 < v < math.inf for pt in pts for v in pt):  # NaN fails the comparison too
        raise ValueError("power-law fit requires finite, strictly positive coordinates")
    target = float(target)
    tolerance = float(tolerance)
    if not (tolerance > 0):
        raise ValueError("tolerance must be positive")

    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    max_residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    if one_sided:
        passed = slope - target <= tolerance
    else:
        passed = abs(slope - target) <= tolerance
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=max_residual,
        target=target,
        tolerance=tolerance,
        passed=bool(passed),
        one_sided=bool(one_sided),
    )
