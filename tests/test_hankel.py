"""Hankel matrices of polynomials and the dyadic-quasinorm bridge."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from tritrunc.fitting import fit_powerlaw
import tritrunc.hankel as hankel
from tritrunc.hankel import besov_quasinorm, hankel_matrix, hankel_multiplier_upper
from tritrunc.kernels import apply_window, bump_poly, dirichlet_plus
from tritrunc.matrices import delta_matrix, mask_spectrum, schatten_quasinorm
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, lp_quasinorm, quadrature_floor, riesz_plus

from corpora import hankel_degree_bound_corpus
from oracles import jump_mass


def band_poly(level, rng):
    """Random complex polynomial filling the open dyadic band at this level."""
    lo = 2 ** (level - 1) + 1
    width = 2 ** (level + 1) - 1 - lo + 1
    return TrigPoly(lo, rng.complex_normal((width,)))


# --- hankel_matrix -------------------------------------------------------------


def test_monomial_hankel_is_antidiagonal():
    m = hankel_matrix(TrigPoly(5, [1.0]))
    assert m.shape == (6, 6)
    assert np.array_equal(m, np.fliplr(np.eye(6)))


def test_hankel_entries_follow_coefficients():
    f = TrigPoly(0, [1.0, 2.0, 3.0])
    want = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 0.0], [3.0, 0.0, 0.0]])
    assert np.array_equal(hankel_matrix(f), want)


@pytest.mark.parametrize("n", range(1, 41))
def test_dirichlet_hankel_is_the_flipped_triangle(n):
    assert np.array_equal(hankel_matrix(dirichlet_plus(n)), delta_matrix(n))


def test_hankel_rejects_negative_frequencies():
    with pytest.raises(ValueError, match="analytic"):
        hankel_matrix(TrigPoly(-1, [1.0, 1.0]))


def test_a_zero_symbol_at_negative_indices_is_the_one_by_one_zero_matrix():
    # stored at negative indices only, so f.hi < 0; its S_p is 0, as its Besov quasinorm is
    for f in (TrigPoly(-3, [0.0, 0.0]), TrigPoly(-1, [0.0])):
        m = hankel_matrix(f)
        assert m.shape == (1, 1) and not m.any()
        assert schatten_quasinorm(m, 0.5) == besov_quasinorm(f, 0.5).total == 0.0


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_the_upper_end_of_a_zero_symbol_at_negative_indices_is_plus_zero(p):
    # m is the size of its Hankel matrix, 1, not f.hi + 1 = -3, whose negative 2m gave -0.0 or an overflow
    upper = hankel_multiplier_upper(TrigPoly(-5, [0.0, 0.0]), p)
    assert upper == 0.0 and math.copysign(1.0, upper) == 1.0


def test_the_analytic_check_reads_the_stored_negative_window_alone():
    # a symbol stored far below index 0 is checked on its own coefficients, not on a window down to -1
    assert hankel_matrix(TrigPoly(-(10**12), [0.0, 0.0])).shape == (1, 1)
    with pytest.raises(ValueError, match="analytic"):
        hankel_matrix(TrigPoly(-(10**12), [0.0, 1e-300]))
    with pytest.raises(ValueError, match="analytic"):
        besov_quasinorm(TrigPoly(-2, [0.0, 1j, 5.0]), 0.5)
    assert hankel_matrix(TrigPoly(-2, [0.0, 0.0, 5.0])).tolist() == [[5.0]]


def test_hankel_dtype_tracks_coefficients():
    assert np.isrealobj(hankel_matrix(TrigPoly(0, [1.0, 2.0])))
    m = hankel_matrix(TrigPoly(0, [1.0, 1j]))
    assert np.iscomplexobj(m)
    assert m[0, 1] == 1j


def test_a_real_symbol_gives_a_real_read_only_view():
    m = hankel_matrix(dirichlet_plus(9))
    assert m.dtype == np.float64 and not m.flags.writeable
    assert np.array_equal(m, delta_matrix(9))
    # E3's largest band, k = 9: a complex 1024 x 1024 matrix
    band = band_poly(9, SplitMix64(derive_seed("hankel-view", 9)))
    m = hankel_matrix(band)
    assert m.dtype == np.complex128 and m.shape == (1024, 1024)
    assert m[3, 300] == band.coefficients_on(303, 303)[0]


def test_hankel_assembly_holds_no_square_array():
    # the view holds only the 2d + 1 coefficients (32 KiB at k = 9); a dense 1024 x 1024 complex copy is 16 MiB
    band = band_poly(9, SplitMix64(derive_seed("hankel-view", 9)))
    tracemalloc.start()
    try:
        hankel_matrix(band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# --- besov_quasinorm -----------------------------------------------------------


def test_besov_levels_stop_after_the_degree():
    report = besov_quasinorm(dirichlet_plus(9), 0.5)
    assert [n for n, _ in report.levels] == [0, 1, 2, 3, 4]
    # degree 8 sits on the closed left edge of level 4, where the window is 0
    assert report.levels[-1][1] == 0.0


def test_besov_of_constant_is_the_zero_term():
    report = besov_quasinorm(TrigPoly(0, [1.0]), 0.5)
    assert report.levels == ()
    assert report.zero_term == 1.0
    assert report.total == 1.0


@pytest.mark.parametrize("p", [0.5, 2.0 / 3.0, 1.0])
def test_besov_of_z_is_one(p):
    report = besov_quasinorm(TrigPoly(1, [1.0]), p)
    assert report.zero_term == 0.0
    # level 0 sees the coefficient with weight v(1) = 1; level 1 sees v(1/2) = 0
    assert report.levels[1][1] == 0.0
    assert report.total == pytest.approx(1.0, abs=1e-12)


def test_besov_of_zero_polynomial_is_zero():
    assert besov_quasinorm(TrigPoly(0, [0.0]), 0.5).total == 0.0
    assert besov_quasinorm(TrigPoly(0, [0.0, 0.0, 0.0]), 400.0).total == 0.0


def test_besov_level_whose_power_sum_underflows_adds_zero():
    # level 4's piece of D(10) is v(9/16) z^9 ~ 9.2e-3 z^9, and (9.2e-3)^160 is below the smallest double
    report = besov_quasinorm(dirichlet_plus(10), 160)
    assert report.levels[4] == (4, 0.0)
    assert report.total == (sum(term for _, term in report.levels) + report.zero_term) ** (1 / 160)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_besov_power_sum_outside_the_double_range_raises(scale):
    # every term of a 1e-3 polynomial underflows at p = 400, and a 1e3 one overflows
    with pytest.raises(OverflowError, match=r"power sum at p=400 leaves the double range"):
        besov_quasinorm(TrigPoly(0, [scale, scale, scale]), 400)


@pytest.mark.parametrize("coeffs, p", [([1e300], 400), ([1e300, 1.0], 2)])
def test_besov_zero_term_outside_the_double_range_raises(coeffs, p):
    # |phi^(0)|^p overflows; the error names p, with no RuntimeWarning on the way
    with pytest.raises(OverflowError, match=rf"power sum at p={p} leaves the double range"):
        besov_quasinorm(TrigPoly(0, coeffs), p)


def test_besov_rejects_bad_exponents_and_negative_frequencies():
    with pytest.raises(ValueError, match="exponent"):
        besov_quasinorm(TrigPoly(0, [1.0]), 0.0)
    with pytest.raises(ValueError, match="analytic"):
        besov_quasinorm(TrigPoly(-2, [1.0, 0.0, 1.0]), 0.5)


def test_three_adjacent_windows_reassemble_a_band():
    rng = SplitMix64(derive_seed("hankel-three-term"))
    for level in range(2, 9):
        f = band_poly(level, rng)
        total = sum(apply_window(f, n).coefficients_on(f.lo, f.hi) for n in (level - 1, level, level + 1))
        assert np.max(np.abs(total - f.coeffs)) <= 1e-12


def test_three_adjacent_windows_reassemble_a_monomial():
    f = TrigPoly(16, [1.0])  # sits exactly at the peak of level 4
    total = sum(apply_window(f, n).coefficients_on(f.lo, f.hi) for n in (3, 4, 5))
    assert np.max(np.abs(total - f.coeffs)) <= 1e-12


def test_besov_passes_only_trimmed_pieces_to_the_quadrature(monkeypatch):
    seen = []

    def spy(f, p, n_samples=None):
        seen.append(f)
        return lp_quasinorm(f, p, n_samples)

    monkeypatch.setattr(hankel, "lp_quasinorm", spy)
    rng = SplitMix64(derive_seed("hankel-trimmed-pieces"))
    padded = TrigPoly(0, np.concatenate([np.zeros(5), rng.complex_normal(60), np.zeros(7)]))
    for f in (dirichlet_plus(2**7 + 1), dirichlet_plus(100), padded, TrigPoly(1, [1.0])):
        seen.clear()
        report = besov_quasinorm(f, 0.5)
        assert 0 < len(seen) <= len(report.levels)
        assert all(g.coeffs[0] != 0 and g.coeffs[-1] != 0 for g in seen)


# Each level's grid is sized by its piece's nonzero span, 512 samples per
# coefficient, not by the kernel's degree.


def test_span_sized_level_grids_pass_the_doubling_certificate():
    # measured worst case 2.2e-10 (k = 3..11, p = 1/2)
    for k in range(3, 12):
        f = dirichlet_plus(2**k + 1)
        for n in range(k + 2):
            piece = apply_window(f, n)
            if not piece.coeffs.any():
                continue
            floor = quadrature_floor(piece)
            a, b = lp_quasinorm(piece, 0.5, floor), lp_quasinorm(piece, 0.5, 2 * floor)
            assert a == pytest.approx(b, rel=1e-8), (k, n)


def test_span_sized_levels_match_the_degree_sized_grid():
    # E7's grid: every level against its piece stored on 1..2^k, which sizes
    # the grid by the degree, 512 * 2^k samples (measured worst 1.8e-10)
    for k in range(3, 11):
        f = dirichlet_plus(2**k + 1)
        for n, term in besov_quasinorm(f, 0.5).levels:
            piece = apply_window(f, n)
            if not piece.coeffs.any():
                assert term == 0.0
                continue
            wide = TrigPoly(1, piece.coefficients_on(1, 2**k))
            assert quadrature_floor(wide) == max(4096, 512 * 2**k)
            assert term == pytest.approx(2.0**n * lp_quasinorm(wide, 0.5) ** 0.5, rel=1e-9), (k, n)


@pytest.mark.parametrize("p", [0.5, 2.0 / 3.0])
def test_besov_tracks_hankel_schatten_quasinorm(p):
    # the two sides of the equivalence may drift apart only logarithmically:
    # their ratio, fitted as a power of the degree, has slope ~ 0
    points = []
    for k in range(2, 10):
        n = 2**k + 1
        f = dirichlet_plus(n)
        ratio = schatten_quasinorm(hankel_matrix(f), p) / besov_quasinorm(f, p).total
        points.append((n, ratio))
    fit = fit_powerlaw(points, target=0.0, tolerance=0.15)
    assert fit.passed, f"p={p}: ratio drifts with slope {fit.slope:+.4f}"


# --- the jump mass J_p: the constant that leads E1, E6 and E7 -------------------


@pytest.mark.parametrize("p", [0.25, 0.5, 2.0 / 3.0, 0.75])
def test_jump_mass_is_the_main_theorem_constant(p):
    # by Legendre's duplication formula J_p = C_p^p, with C_p as in
    # test_all_ones_lower_end_tends_to_the_main_theorem_constant
    with mpmath.workdps(30):
        q = mpmath.mpf(p)
        c_pp = 2**-q * mpmath.beta((1 - q) / 2, mpmath.mpf(0.5)) / mpmath.pi
        assert abs(mpmath.gamma(1 - q) / mpmath.gamma(1 - q / 2) ** 2 - c_pp) < mpmath.mpf(10) ** -25
        assert abs(jump_mass(p) - float(c_pp)) <= 1e-14


# k -> the term at level k: E7's top Besov level term over 2^k, and E6's numerator ||P_+ bump_{2^k}||_p^p
JUMP_TERMS = {
    "E7-top-level": lambda k, p: dict(besov_quasinorm(dirichlet_plus(2**k + 1), p).levels)[k] / 2**k,
    "E6-numerator": lambda k, p: lp_quasinorm(riesz_plus(bump_poly(2**k)), p) ** p,
}


@pytest.mark.parametrize("p", [0.25, 0.5])
@pytest.mark.parametrize("name", list(JUMP_TERMS))
def test_jump_terms_rise_to_the_jump_mass(name, p):
    # both sides end in a unit jump, so both tend to J_p from below; each gap is at most half the gap
    # three levels earlier (measured 0.21-0.36; at p = 1/2 the E7 gaps read 0.0447, 0.0161, 0.0057)
    gaps = [jump_mass(p) - JUMP_TERMS[name](k, p) for k in (6, 9, 12)]
    assert all(gap > 0 for gap in gaps), (name, gaps)
    assert all(later <= 0.5 * earlier for earlier, later in zip(gaps, gaps[1:])), (name, gaps)


@pytest.mark.parametrize("p", [0.25, 0.5])
def test_besov_over_schatten_falls_toward_one(p):
    # Peller's two sides on one family: B^p = ||D_n^+||_B^p (E7) and S^p = S_p(Delta_n)^p (E1) are both
    # J_p n plus a lower-order term, so B^p / S^p falls toward 1.  Measured at k = 6, 8, ..., 14:
    # 1.548, 1.330, 1.179, 1.093, 1.047 at p = 1/2, and 1.635, 1.374, 1.176, 1.073, 1.029 at p = 1/4
    ratios = [besov_quasinorm(dirichlet_plus(2**k + 1), p).total ** p / np.sum(mask_spectrum(2**k + 1) ** p)
              for k in (6, 8, 10, 12, 14)]
    gaps = [r - 1.0 for r in ratios]
    assert all(gap > 0 for gap in gaps), ratios
    assert all(later <= 0.65 * earlier for earlier, later in zip(gaps, gaps[1:])), ratios  # measured 0.39-0.60
    assert gaps[-1] < 0.05, ratios


# --- the band estimate -------------------------------------------------------------
# E3's ratio ||Gamma_phi||_{S_p} / (2^{(k+1)/p} ||phi||_{L^p}) on the level-k band; its 1e-9 rounding
# slack is E3's check row in tritrunc.experiments.


def band_ratio(f, p, level):
    return schatten_quasinorm(hankel_matrix(f), p) / (2.0 ** ((level + 1) / p) * lp_quasinorm(f, p))


@pytest.mark.parametrize("p", [0.5, 2.0 / 3.0, 1.0])
def test_band_ratio_never_exceeds_one(p):
    # and the band's top monomial z^m, m = 2^{k+1} - 1, attains it: Gamma is the (m+1) x (m+1) reversal,
    # 2^{k+1} singular values 1, and ||z^m||_p = 1 (it read exactly 1.0 at k = 2..6, p = 1/4, 1/2 and 1)
    rng = SplitMix64(derive_seed("hankel-band-ratio", p))
    for level in range(2, 7):
        assert band_ratio(band_poly(level, rng), p, level) <= 1 + 1e-9
        assert band_ratio(TrigPoly(2 ** (level + 1) - 1, [1.0]), p, level) == pytest.approx(1.0, rel=1e-12)


# --- polynomial degree bound ----------------------------------------------------


def test_degree_bound_formula():
    # ||Gamma_phi||_{S_p} <= 2^{1/p-1} m^{1/p} ||phi||_{L^p} for p <= 1 and deg phi < m;
    # Gamma of 1 + z is [[1, 1], [1, 0]], with singular values phi and 1/phi (golden ratio)
    f, p, m = TrigPoly(0, [1.0, 1.0]), 0.5, 2
    lhs = schatten_quasinorm(hankel_matrix(f), p)
    rhs = 2.0 ** (1.0 / p - 1.0) * m ** (1.0 / p) * lp_quasinorm(f, p)
    assert lhs == pytest.approx(2.0 + np.sqrt(5.0), rel=1e-12)
    assert lhs <= rhs


def test_degree_bound_corpus():
    violations, checked, worst = hankel_degree_bound_corpus()
    assert checked >= 200
    assert violations == [], f"worst margin {worst}"
