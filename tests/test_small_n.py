"""The true norm of triangular truncation on S_p at n = 2.

At p <= 1 the multiplier norm of chi_n on S_p is the sup of S_p(D_u chi_n D_v)
over unit u, v >= 0.  Every optimum found at small n has v equal to u
reversed, which at n = 2 leaves one parameter: u = (cos a, sin a),
v = (sin a, cos a) on [0, pi/2].  The maximum comes from a fine grid refined by
golden-section search, with numpy's SVD of the 2 x 2 product.
"""

import math

import numpy as np
import pytest

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
