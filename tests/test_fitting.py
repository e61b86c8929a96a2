"""Log-log power-law fits and their pass/fail verdicts."""

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


@pytest.mark.parametrize("bad", [(1.0, np.nan), (1.0, np.inf), (np.inf, 1.0), (np.nan, 1.0), (-np.inf, 1.0)])
def test_fit_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite, strictly positive"):
        fit_powerlaw([bad, (2.0, 2.0), (4.0, 4.0)], target=1.0, tolerance=0.1)


def test_fit_is_a_frozen_record():
    fit = fit_powerlaw([(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)], target=1.0, tolerance=0.1)
    assert isinstance(fit, ScalingFit)
    with pytest.raises(AttributeError):
        fit.slope = 0.0
