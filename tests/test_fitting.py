"""Log-log power-law fits and their pass/fail verdicts."""

import math
import random

import mpmath
import numpy as np
import pytest

from tritrunc.fitting import ScalingFit, fit_powerlaw


def test_exact_power_law_is_recovered():
    xs = [2.0**k for k in range(3, 11)]
    fit = fit_powerlaw([(x, 5.0 * x**2) for x in xs], target=2.0, tolerance=0.01)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-12)
    assert fit.max_residual <= 1e-12
    assert fit.passed


def test_small_multiplicative_noise_keeps_the_verdict():
    xs = [2.0**k for k in range(3, 11)]
    ys = [x**1.5 * (1.0 + 0.01 * (-1.0) ** k) for k, x in enumerate(xs)]
    fit = fit_powerlaw(list(zip(xs, ys)), target=1.5, tolerance=0.05)
    assert fit.passed
    assert fit.max_residual > 0


def test_two_sided_verdict_rejects_off_target_slopes():
    pts = [(x, x**1.3) for x in (2.0, 4.0, 8.0, 16.0)]
    assert not fit_powerlaw(pts, target=1.0, tolerance=0.1).passed
    assert fit_powerlaw(pts, target=1.3, tolerance=0.1).passed


def test_one_sided_verdict_accepts_any_decay():
    pts = [(x, x**-2.0) for x in (2.0, 4.0, 8.0, 16.0)]
    assert not fit_powerlaw(pts, target=0.0, tolerance=0.05).passed
    fit = fit_powerlaw(pts, target=0.0, tolerance=0.05, one_sided=True)
    assert fit.passed and fit.one_sided


def test_fit_requires_three_positive_points():
    with pytest.raises(ValueError, match="at least 3"):
        fit_powerlaw([(1.0, 1.0), (2.0, 2.0)], target=1.0, tolerance=0.1)
    with pytest.raises(ValueError, match="strictly positive"):
        fit_powerlaw([(1.0, 1.0), (2.0, 0.0), (3.0, 1.0)], target=1.0, tolerance=0.1)
    with pytest.raises(ValueError, match="tolerance"):
        fit_powerlaw([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)], target=1.0, tolerance=0.0)
    with pytest.raises(ValueError, match="at least 2 distinct x"):  # no line through one abscissa
        fit_powerlaw([(2, 1), (2, 2), (2, 3)], target=1.0, tolerance=0.1)


@pytest.mark.parametrize("bad", [(1.0, np.nan), (1.0, np.inf), (np.inf, 1.0), (np.nan, 1.0), (-np.inf, 1.0)])
def test_fit_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite, strictly positive"):
        fit_powerlaw([bad, (2.0, 2.0), (4.0, 4.0)], target=1.0, tolerance=0.1)


def test_fit_is_a_frozen_record():
    fit = fit_powerlaw([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)], target=1.0, tolerance=0.1)
    assert isinstance(fit, ScalingFit)
    with pytest.raises(AttributeError):
        fit.slope = 0.0


def _mp_fit(pts):
    """The least-squares line through the exact logs of the points, at the working precision."""
    lx = [mpmath.log(x) for x, _ in pts]
    ly = [mpmath.log(y) for _, y in pts]
    mx, my = mpmath.fsum(lx) / len(pts), mpmath.fsum(ly) / len(pts)
    slope = mpmath.fsum((u - mx) * (w - my) for u, w in zip(lx, ly)) / mpmath.fsum((u - mx) ** 2 for u in lx)
    return slope, my - slope * mx


def test_fit_is_within_two_ulp_of_a_50_digit_fit():
    # series shaped like the registry's: x = 2^k or 2^k + 1 over 3 to 8 levels, y = C x^s with 1% noise
    rng = random.Random(47)
    for _ in range(300):
        kmin, levels, shift = rng.randint(1, 8), rng.randint(3, 8), rng.randint(0, 1)
        c, s = rng.uniform(0.1, 5.0), rng.uniform(-0.1, 2.0)
        xs = [2.0**k + shift for k in range(kmin, kmin + levels)]
        pts = [(x, c * x**s * (1.0 + 0.01 * rng.gauss(0.0, 1.0))) for x in xs]
        fit = fit_powerlaw(pts, target=s, tolerance=1.0)
        # each log carries up to half an ulp of the largest one; the intercept extrapolates the line
        # to ln x = 0, so its error also scales with ln x_max
        ulp = math.ulp(max(abs(math.log(v)) for pt in pts for v in pt))
        reach = max(1.0, math.log(xs[-1]))
        with mpmath.workdps(50):
            slope, intercept = _mp_fit(pts)
            assert abs(fit.slope - slope) <= 2 * ulp, (pts, fit.slope, slope)
            assert abs(fit.intercept - intercept) <= 2 * ulp * reach, (pts, fit.intercept, intercept)
