"""The true norm of triangular truncation past the all-ones witness, to its O(1) term.

Both ends of ||P_n||^p are C_p^p n^(1-p) + O(1): the all-ones lower end L_n = S_p(chi_n) / n and the
transference ceiling U_n(p) (tests/test_two_term_law.py).  The fixed-point ascent (oracles.ascent)
from all-ones climbs above L_n at n = 2^k + 1, and its gap ascent^p - L_n^p, measured here at
k = 2..7, peaks at k = 4 or 5 and then falls at every level, so in the measured range the true norm's
O(1) term approaches L_n's, not U_n's.  Each ascent value is a lower end, up to the SVD floor, and the
ascent is a local method: the values are measured, not proved.
"""

import functools

import numpy as np
import pytest

from oracles import ascent
from tritrunc.matrices import mask_spectrum

EXPONENTS = (0.25, 0.5, 0.75, 1.0)
LEVELS = range(2, 8)


@functools.cache
def gaps(p):
    """{k: (the ascent's value from all-ones, its gap ascent^p - L_n^p)} at n = 2^k + 1."""
    out = {}
    for k in LEVELS:
        n = 2**k + 1
        top = ascent(n, p, np.ones(n), np.ones(n))[-1]
        all_ones = float(np.sum(mask_spectrum(n) ** p) ** (1.0 / p)) / n
        out[k] = top, top**p - all_ones**p
    return out


@pytest.mark.parametrize("p", EXPONENTS)
def test_the_ascent_climbs_above_the_all_ones_ratio_at_every_level(p):
    # smallest measured gap 1.431e-3, at p = 1/4, k = 2
    assert all(gap > 0 for _, gap in gaps(p).values()), gaps(p)


@pytest.mark.parametrize("p", EXPONENTS)
def test_the_gap_falls_at_every_level_from_k_5_to_7(p):
    # measured at p = 1/2: 1.188e-2, 1.089e-2, 9.550e-3
    falling = [gaps(p)[k][1] for k in (5, 6, 7)]
    assert falling[0] > falling[1] > falling[2], falling


# computed values at k = 6, n = 65 (measured 307367.475520251, 84.8952043613695, 6.47614038394372 and
# 2.1160172312968752)
PINNED = [(0.25, 307367.4755203), (0.5, 84.8952043613696), (0.75, 6.476140383944), (1.0, 2.1160172312969)]


@pytest.mark.parametrize("p, want", PINNED)
def test_the_ascent_at_k_6_matches_the_computed_value(p, want):
    assert gaps(p)[6][0] == pytest.approx(want, rel=1e-12, abs=0)
