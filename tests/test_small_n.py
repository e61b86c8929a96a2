"""The true norm of triangular truncation on S_p at small n.

At p <= 1 the multiplier norm of chi_n on S_p is the sup of S_p(D_u chi_n D_v)
over unit u, v >= 0.  Every optimum found at small n has v equal to u
reversed, which at n = 2 leaves one parameter: u = (cos a, sin a),
v = (sin a, cos a) on [0, pi/2].  The maximum comes from a fine grid refined by
golden-section search, with numpy's SVD of the 2 x 2 product.

At n <= 5 the fixed-point ascent (oracles.ascent) meets the same table from
every start: with W S Z^T the SVD of D_u chi_n D_v, its rounding-floor values
dropped, and G = W S^{p-1} Z^T, set u <- |(G o chi_n) v| and then
v <- |(G o chi_n)^T u|, each normalized.  At p = 1 each step maximizes S_1's dual pairing in u, then
in v, so the ratio never falls; at p < 1 it can (by 1.2e-3 relative at p = 1/4
from all-ones, and in the first steps from random starts), and it still
converges.
"""

import math

import numpy as np
import pytest

from oracles import ascent, transference_ceiling
from tritrunc.matrices import mask_spectrum

CHI_2 = np.triu(np.ones((2, 2)))
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ratio(a, p):
    u = np.array([math.cos(a), math.sin(a)])
    s = np.linalg.svd(u[:, None] * CHI_2 * u[::-1], compute_uv=False)
    return float(np.sum(s**p) ** (1.0 / p))


def maximum(p):
    grid = np.linspace(0.0, np.pi / 2, 2001)
    i = int(np.argmax([ratio(a, p) for a in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    x1, x2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f1, f2 = ratio(x1, p), ratio(x2, p)
    for _ in range(100):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = ratio(x1, p)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = ratio(x2, p)
    return max(f1, f2, ratio(grid[i], p))


def test_the_trace_class_norm_at_n_2_is_two_over_root_three():
    # Angelos, Cowen & Narayan (1992); measured 1.1547005383792515
    assert abs(maximum(1.0) - 2.0 / math.sqrt(3.0)) <= 1e-14


@pytest.mark.parametrize("p, want", [(0.5, 2.1327104114123), (0.25, 8.2474343547506)])
def test_the_norm_at_n_2_matches_the_multistart_table(p, want):
    # computed values (measured 2.132710411412251 and 8.247434354750542), which a multistart
    # Nelder-Mead and the fixed-point ascent both reach to 13 digits
    assert maximum(p) == pytest.approx(want, rel=1e-12, abs=0)


def test_the_norm_at_n_2_beats_the_all_ones_witness():
    # the all-ones ratio S_p(chi_2) / 2 is (2 + sqrt 5) / 2 = 2.1180339887499 at p = 1/2
    all_ones = float(np.sum(np.linalg.svd(CHI_2, compute_uv=False) ** 0.5) ** 2) / 2
    assert all_ones == pytest.approx((2.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)
    assert maximum(0.5) > all_ones


# n, p, the multistart table value (13 digits); n = 2 repeats the values maximum(p) pins
TABLE = [
    (2, 1.0, 2.0 / math.sqrt(3.0)),
    (2, 0.5, 2.1327104114123),
    (2, 0.25, 8.2474343547506),
    (3, 1.0, 1.2531972647422),
    (3, 0.5, 3.3127838685337),
    (3, 0.25, 28.2869775309772),
    (4, 1.0, 1.3261226664824),
    (4, 0.5, 4.5203654785411),
    (5, 0.5, 5.7466533316537),
]


def starts(n):
    yield np.ones(n), np.ones(n)
    rng = np.random.default_rng(1701)
    for _ in range(50):
        yield rng.uniform(0.01, 1.01, n), rng.uniform(0.01, 1.01, n)


@pytest.mark.parametrize("n, p, want", TABLE, ids=[f"n{n}-p{p:g}" for n, p, _ in TABLE])
def test_the_ascent_reaches_the_table_from_every_start(n, p, want):
    for u, v in starts(n):
        ratios = ascent(n, p, u, v)
        assert ratios[-1] == pytest.approx(want, rel=1e-12, abs=0), (len(ratios), ratios[-1])


@pytest.mark.parametrize("n, p, want", TABLE, ids=[f"n{n}-p{p:g}" for n, p, _ in TABLE])
def test_the_table_lies_between_the_all_ones_ratio_and_the_transference_ceiling(n, p, want):
    # at n = 5, p = 1/2: 5.699065 < 5.746653 < 8.203749
    all_ones = float(np.sum(mask_spectrum(n) ** p) ** (1.0 / p)) / n
    assert all_ones < want < transference_ceiling(n, p)


MONOTONE = [(n, p) for n, p, _ in TABLE if p >= 0.5]


@pytest.mark.parametrize("n, p", MONOTONE, ids=[f"n{n}-p{p:g}" for n, p in MONOTONE])
def test_no_ascent_step_lowers_the_ratio_at_p_one_or_from_all_ones_at_p_one_half(n, p):
    for u, v in starts(n) if p == 1.0 else [(np.ones(n), np.ones(n))]:
        ratios = np.array(ascent(n, p, u, v))
        assert np.all(ratios[1:] >= ratios[:-1] * (1.0 - 1e-12)), ratios
