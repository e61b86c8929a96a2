import numpy as np
import pytest

from oracles import direct_grid_eval
from tritrunc.kernels import apply_window, bump_poly, dirichlet_plus, fejer, standard_bump, standard_window
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, lp_quasinorm, riesz_plus


# --- bump --------------------------------------------------------------------


def test_bump_pointwise_values():
    q = standard_bump
    assert q(0.0) == 1.0
    assert q(1.0) == 0.0 and q(-1.0) == 0.0
    assert q(2.5) == 0.0
    assert q(0.5) == pytest.approx(np.exp(-1.0 / 3.0), abs=1e-15)


def test_bump_is_even_and_keeps_the_shape():
    q = standard_bump
    ts = np.linspace(-0.99, 0.99, 37)
    assert np.array_equal(q(ts), q(-ts))
    assert q(np.array([[0.0, 0.5], [1.0, -2.0]])).shape == (2, 2)


# --- window ------------------------------------------------------------------


def test_window_support_and_peak():
    v = standard_window
    assert v(1.0) == 1.0
    assert v(0.5) == 0.0 and v(2.0) == 0.0  # closed endpoints of [1/2, 2]
    assert v(0.49) == 0.0 and v(2.01) == 0.0
    assert v(0.0) == 0.0 and v(-3.0) == 0.0
    xs = np.geomspace(0.5, 2.0, 101)
    vals = v(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_window_partition_of_unity():
    # 10^4 log-spaced points on [1, 2^20]; the dilate sum must telescope to 1
    v = standard_window
    xs = np.geomspace(1.0, 2.0**20, 10_000)
    total = np.zeros_like(xs)
    for j in range(26):
        total += v(xs / 2.0**j)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_window_dyadic_sum_on_integers():
    # telescoping at integer frequencies, where besov levels sample the window
    v = standard_window
    js = np.arange(1, 2**12 + 1, dtype=float)
    total = np.zeros_like(js)
    for n in range(14):
        total += v(js / 2.0**n)
    assert np.max(np.abs(total - 1.0)) <= 1e-14


# --- polynomial kernels -------------------------------------------------------


def test_dirichlet_plus_layout():
    f = dirichlet_plus(4)
    assert f.lo == 0 and f.hi == 3
    assert np.array_equal(f.coeffs, np.ones(4))
    with pytest.raises(ValueError):
        dirichlet_plus(0)


def test_fejer_layout_and_mean():
    k = fejer(3)
    assert k.lo == -3 and k.hi == 3
    assert np.allclose(k.coeffs.real, [0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25])
    # nonnegative kernel with unit constant coefficient: the quadrature mean
    # is exact at any admissible grid size
    for m in (3, 40):
        assert lp_quasinorm(fejer(m), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_fejer_is_nonnegative_on_the_circle():
    vals = direct_grid_eval(fejer(24), 4096)
    assert np.max(np.abs(vals.imag)) < 1e-10
    assert np.min(vals.real) > -1e-10


def test_bump_poly_samples_the_bump():
    q = standard_bump
    f = bump_poly(8)
    assert f.lo == -7 and f.hi == 7
    assert f.coefficients_on(0, 0)[0] == 1.0
    assert f.coefficients_on(4, 4)[0] == pytest.approx(q(0.5), abs=0)
    assert np.array_equal(f.coeffs, f.coeffs[::-1])  # even symbol
    with pytest.raises(ValueError):
        bump_poly(0)


def test_riesz_half_of_bump_poly():
    f = bump_poly(16)
    g = riesz_plus(f)
    assert g.lo == 0 and g.hi == 15
    assert g.coefficients_on(0, 0)[0] == 1.0


# --- Littlewood-Paley (dyadic window) pieces -------------------------------------
# The level-n piece of f is apply_window(f, n); on a Dirichlet kernel long
# enough to cover the band it is the bare window polynomial.


def test_lp_piece_level_zero_is_z():
    piece = apply_window(dirichlet_plus(8), 0)
    assert (piece.lo, piece.coeffs.tolist()) == (1, [1.0])


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_lp_piece_support_is_open_dyadic_band(n):
    f = apply_window(dirichlet_plus(2 ** (n + 2)), n)
    nz = np.flatnonzero(f.coeffs) + f.lo
    assert nz[0] == 2 ** (n - 1) + 1
    assert nz[-1] <= 2 ** (n + 1) - 1  # the far tail of v may round to 0
    assert f.coefficients_on(2**n, 2**n)[0] == 1.0  # window peak sits at the band centre


def test_apply_window_rejects_negative_level():
    with pytest.raises(ValueError, match="level"):
        apply_window(dirichlet_plus(8), -1)


def test_apply_window_scales_coefficients_exactly():
    v = standard_window
    f = TrigPoly(-2, np.arange(1.0, 9.0))  # support -2..5
    g = apply_window(f, 1)
    assert g.lo >= 1
    js = np.arange(g.lo, g.hi + 1)
    expected = f.coefficients_on(g.lo, g.hi) * v(js / 2.0)
    assert np.array_equal(g.coefficients_on(g.lo, g.hi), expected)


def test_apply_window_on_nonpositive_support_is_zero():
    assert not apply_window(TrigPoly(-3, [1, 2, 3, 4]), 2).coeffs.any()


def test_window_levels_partition_coefficients():
    # summing the windowed pieces over all levels recovers the j >= 1 part
    f = dirichlet_plus(40)
    js = np.arange(f.lo, f.hi + 1)
    total = sum(apply_window(f, n).coefficients_on(f.lo, f.hi) for n in range(8))
    want = np.where(js >= 1, f.coefficients_on(f.lo, f.hi), 0)
    assert np.max(np.abs(total - want)) <= 1e-14


# The piece is stored on its nonzero coefficients alone, so its stored window
# is what sizes lp_quasinorm's grid.


def _assert_trimmed(piece):
    if not piece.coeffs.any():
        assert (piece.lo, piece.coeffs.tolist()) == (0, [0.0])
    else:
        assert piece.coeffs[0] != 0 and piece.coeffs[-1] != 0


def test_apply_window_stores_only_the_nonzero_piece():
    f = dirichlet_plus(2**12 + 1)
    for n in range(14):
        piece = apply_window(f, n)
        _assert_trimmed(piece)
        assert piece.coeffs.any() or n == 13
    gen = SplitMix64(derive_seed("kernels", "trimmed-window"))
    for level in range(1, 11):
        # a band polynomial with zero padding on both sides, and one cut short
        lo, hi = 2 ** (level - 1) + 1, 2 ** (level + 1) - 1
        band = TrigPoly(lo - 3, np.concatenate([np.zeros(3), gen.complex_normal(hi - lo + 1), np.zeros(5)]))
        for n in range(level - 1, level + 2):
            piece = apply_window(band, n)
            _assert_trimmed(piece)
            bare = apply_window(TrigPoly(lo, band.coefficients_on(lo, hi)), n)
            assert piece.lo == bare.lo and np.array_equal(piece.coeffs, bare.coeffs)
        half = TrigPoly(lo, gen.complex_normal(2 ** (level - 1)))  # lo..2^level
        for n in (level, level + 1):
            _assert_trimmed(apply_window(half, n))


def test_apply_window_piece_that_rounds_to_zero_is_zero():
    # v(2^-n j) underflows to 0 next to the band's edges: 2049 at level 12
    # (exp(-1/s) with s ~ 7e-4) and 4095 at level 11 (1 - h rounds to 0)
    for f, n in (
        (dirichlet_plus(2**12 + 1), 13),
        (TrigPoly(2049, [1.0]), 12),
        (TrigPoly(4095, [1.0]), 11),
        (TrigPoly(4094, [0.0, 1.0]), 11),
    ):
        piece = apply_window(f, n)
        assert not piece.coeffs.any()
        _assert_trimmed(piece)


def test_apply_window_at_a_level_far_past_the_degree_is_zero():
    assert not apply_window(dirichlet_plus(9), 10**9).coeffs.any()
