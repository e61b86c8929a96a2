"""Schur-multiplier witnesses: lower bounds against analytic ceilings, each up to a stated error.

A witness ratio is a lower bound up to its spectrum's rounding, O(n eps) relative for dqds;
a ceiling carries its L^p factor's quadrature error.
"""

import math
import tracemalloc

import numpy as np
import pytest

from corpora import chi_doubling_decomposition
from tritrunc import matrices, multipliers
from tritrunc.experiments import ExperimentConfig, _multiplier_interval, run_experiment
from tritrunc.hankel import hankel_matrix, hankel_multiplier_upper
from tritrunc.kernels import bump_poly, dirichlet_plus, fejer
from tritrunc.matrices import (
    _triu_outer_spectrum,
    delta_matrix,
    mask_spectrum,
    schatten_quasinorm,
)
from tritrunc.multipliers import WitnessReport, random_witness_search, witness_ratio
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, lp_quasinorm, riesz_plus

from corpora import matrix_witness_ratio, multiplier_upper_corpus
from oracles import trimmed_triu_spectrum


# --- witness_ratio ----------------------------------------------------------------


def _pad(a, rows, cols):
    """a zero-padded to rows x cols (bottom/right)."""
    return np.pad(a, [(0, rows - a.shape[0]), (0, cols - a.shape[1])])


def test_witness_ratio_on_the_all_ones_witness():
    # Delta_2 = [[1, 1], [1, 0]] shares chi_2's singular values, the golden ratio and its inverse, which sum to sqrt 5
    rep = witness_ratio(np.ones(2), np.ones(2), 1.0)
    assert rep.numerator == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert rep.denominator == pytest.approx(2.0, abs=1e-12)
    assert rep.ratio == rep.numerator / rep.denominator


def test_witness_ratio_validates_inputs():
    # the factors of u v^* on Delta_n are two vectors of one length n: no other pair has a reading
    for u, v in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones(2)), (np.ones((3, 3)), np.ones(3)),
                 (np.ones(5), np.ones((5, 1))), (np.ones((2, 2)), np.ones((2, 2))), (np.float64(1.0), np.ones(1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            witness_ratio(u, v, 0.5)
    with pytest.raises(ValueError, match="zero witness"):
        witness_ratio(np.zeros(2), np.ones(2), 0.5)
    for bad in (complex(0, np.nan), complex(0, np.inf)):  # a non-finite imaginary part alone
        u = np.ones(2, dtype=complex)
        u[1] = bad
        for v in (np.ones(2), np.array([1.0, 0.0])):
            with pytest.raises(ValueError, match=r"witness norm \|\|u\|\| \|\|v\|\| is (inf|nan), not finite"):
                witness_ratio(u, v, 0.5)


def test_pair_witness_validates_inputs():
    for u, v in ((np.ones(3), np.ones(2)), (np.ones(2), np.ones(3)), (np.ones((3, 1)), np.ones(3)),
                 (np.ones(3), np.ones((1, 3)))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            witness_ratio(u, v, 0.5)
    # a zero factor is named even against an infinite one, whose norm product is 0 * inf = nan
    for u, v in ((np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(3, dtype=complex)),
                 (np.zeros(3), np.array([1, np.inf, 1.0])), (np.array([1, np.inf, 1.0]), np.zeros(3)),
                 (np.zeros(0), np.zeros(0))):
        with pytest.raises(ValueError, match="zero witness"):
            witness_ratio(u, v, 0.5)
    with pytest.raises(ValueError, match="p must be"):
        witness_ratio(np.ones(3), np.ones(3), 0.0)


def test_pair_witness_rejects_a_non_finite_factor():
    # a non-finite factor fails the norm ||u|| ||v|| before any spectrum
    for u, v in ((np.array([1, np.inf, 1.0]), np.ones(3)), (np.ones(3), np.array([1, np.nan, 1.0])),
                 (np.ones(3), np.array([1, 1j * np.inf, 1]))):
        with pytest.raises(ValueError, match=r"witness norm \|\|u\|\| \|\|v\|\| is (inf|nan), not finite"):
            witness_ratio(u, v, 0.5)


def test_pair_witness_rejects_a_norm_outside_the_double_range():
    # finite nonzero factors whose ||u|| ||v|| overflows to inf or underflows to 0
    for u, v in ((np.full(3, 1e200), np.ones(3)), (np.full(3, 1e-170), np.full(3, 1e-170))):
        with pytest.raises(ValueError, match=r"witness norm \|\|u\|\| \|\|v\|\| is (inf|0\.0), not finite and positive"):
            witness_ratio(u, v, 0.5)


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("n", [9, 33, 65])
def test_pair_witness_is_bit_identical_to_its_formula(n, p):
    # exact equality: a shortcut that changes the rounding of either end fails here.  The numerator is the
    # bidiagonal formula: |u| Delta_n |v|^T is triu(x y^T), x = |u| and y = |v| reversed, up to a column
    # reversal, and the inverse of triu(x y^T) is the upper bidiagonal B with diagonal 1/(x_i y_i) and
    # superdiagonal -1/(x_{i+1} y_i).  For any multiplier a (Delta_n, Delta_n with one entry flipped, a
    # dense real matrix) the S_p of a * u v^* = D_u a D_v^* is that of the real |u| a |v|^T: the phases drop out
    rng = SplitMix64(derive_seed("pair-witness-bits", n))
    idx = np.arange(n)
    delta = (np.add.outer(idx, idx) < n).astype(float)
    flipped = delta.copy()
    flipped[n - 1, n - 1] = 1.0
    for _ in range(3):
        u, v = rng.complex_normal(n), rng.complex_normal(n)
        rep = witness_ratio(u, v, p)
        rx, ry = 1.0 / np.abs(u), 1.0 / np.abs(v)[::-1]
        b = np.diag(rx * ry) + np.diag(-(rx[1:] * ry[:-1]), 1)
        s = 1.0 / np.linalg.svd(b, compute_uv=False)[::-1]
        assert rep.numerator == float(np.sum(s**p)) ** (1 / p)
        assert rep.denominator == float(np.linalg.norm(u) * np.linalg.norm(v))
        for a in (delta, flipped, rng.complex_normal((n, n)).real):
            assert schatten_quasinorm(a * np.outer(u, v.conj()), p) == pytest.approx(
                schatten_quasinorm(np.abs(u)[:, None] * a * np.abs(v), p), rel=1e-10, abs=0)


def test_degenerate_pairs_on_the_mask_keep_the_dense_formula():
    # a zero entry of u, and entries near 1e-170 whose bidiagonal entry 1/(x_0 y_0) overflows, leave
    # the bidiagonal inverse for the SVD of the trimmed triu(x y^T), then exact zeros, bit for bit
    n = 9
    rng = SplitMix64(derive_seed("pair-witness-degenerate"))
    zero_u, tiny_u, tiny_v = rng.complex_normal((3, n))
    zero_v = rng.complex_normal(n)
    zero_u[4] = 0.0
    tiny_u[0] = tiny_v[n - 1] = 1e-170
    for u, v in ((zero_u, zero_v), (tiny_u, tiny_v)):
        x, y = np.abs(u), np.abs(v)[::-1]
        s = trimmed_triu_spectrum(x, y)
        assert np.array_equal(_triu_outer_spectrum(x, y), s)
        for p in (0.5, 1.0):
            assert witness_ratio(u, v, p).numerator == float(np.sum(s**p)) ** (1 / p)
    # the zero row of the first pair adds an exact zero to the spectrum, where the SVD of the whole
    # matrix leaves a rounding-floor value that S_{1/2} would count
    x, y = np.abs(zero_u), np.abs(zero_v)[::-1]
    s = _triu_outer_spectrum(x, y)
    whole = np.linalg.svd(np.triu(np.outer(x, y)), compute_uv=False)
    assert s[-1] == 0.0 < whole[-1] < 1e-14 * whole[0]
    numerator = witness_ratio(zero_u, zero_v, 0.5).numerator
    assert float(np.sum(whole**0.5)) ** 2.0 > (1 + 1e-11) * numerator


def test_pair_witness_is_the_rank_one_matrix():
    # away from the rounding floor (p >= 1) the factored form agrees with the dense Delta_n * u v^*
    rng = SplitMix64(derive_seed("pair-witness"))
    for n in (1, 3, 6, 9):
        idx = np.arange(n)
        delta = (np.add.outer(idx, idx) < n).astype(float)
        u, v = rng.complex_normal(n), rng.complex_normal(n)
        dense = np.outer(u, v.conj())
        for p in (1.0, 2.0):
            pair = witness_ratio(u, v, p)
            assert pair.numerator == pytest.approx(schatten_quasinorm(delta * dense, p), rel=1e-12)
            assert pair.denominator == pytest.approx(schatten_quasinorm(dense, p), rel=1e-12)


def test_pair_witness_holds_no_dense_rank_one_matrix(monkeypatch):
    # n = 512 is E8's largest rank-one size, but E8 takes its spectra from experiments._projected_pair and
    # never calls witness_ratio.  witness_ratio stores no n x n inverse and no u v^* (the complex u v^* alone
    # is 2 n^2 doubles): on the dqds route a pair holds O(n) doubles (measured 11-14 n at n = 65..4096), and
    # where no dlasq1 symbol resolves, the dense bidiagonal inverse and numpy's SVD workspace (1.15 n^2)
    n = 512
    rng = SplitMix64(derive_seed("pair-witness-memory"))
    u, v = rng.complex_normal(n), rng.complex_normal(n)

    def peak_doubles():
        witness_ratio(u, v, 0.5)  # warm-up: first-call allocations are not the evaluation's
        tracemalloc.start()
        try:
            witness_ratio(u, v, 0.5)
            return tracemalloc.get_traced_memory()[1] / 8
        finally:
            tracemalloc.stop()

    if matrices._find_dlasq1() is not None:  # then the kernel must take dqds
        assert peak_doubles() <= 16 * n
    monkeypatch.setattr(matrices, "_DLASQ1", None)
    assert peak_doubles() <= 1.5 * n * n


def test_pair_witness_ignores_the_phases():
    rng = SplitMix64(derive_seed("pair-witness-phases"))
    for p in (0.5, 0.75, 1.0):
        u, v = rng.complex_normal(13), rng.complex_normal(13)
        assert witness_ratio(u, v, p).ratio == pytest.approx(
            witness_ratio(np.abs(u), np.abs(v), p).ratio, rel=1e-14, abs=0
        )


def test_pair_witness_trims_zero_rows_and_columns():
    # a witness that misses the mask's support scores zero, with no spectrum: row 4 of Delta_5 is e_0
    assert witness_ratio(np.eye(5)[4], np.array([0.0, 1.0, 1.0, 1.0, 1.0]), 0.5).numerator == 0.0
    # rows 3 and 4 of Delta_5 against columns 0 and 1 leave the 2 x 2 block [[1, 1], [2, 0]], whose two
    # singular values sum to sqrt(||M||_F^2 + 2 |det M|) = sqrt(6 + 4)
    rep = witness_ratio(np.array([0.0, 0.0, 0.0, 1.0, 2.0]), np.ones(5), 1.0)
    assert rep.numerator == pytest.approx(np.sqrt(10.0), rel=1e-15)
    assert rep.denominator == pytest.approx(np.sqrt(5.0) * np.sqrt(5.0), rel=1e-15)


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("k", range(1, 9))
def test_all_ones_pair_on_the_padded_mask_is_the_closed_form(k, p):
    # S_p(Delta_n) / n: the mask's closed-form spectrum over the exact denominator ||1_n||^2 = n.  Zero-padded
    # to the bump witness's size N, the mask keeps its S_p, and its all-ones ratio is S_p(Delta_n) / N
    n = 2**k + 1
    s_p = float(np.sum(mask_spectrum(n) ** p) ** (1.0 / p))
    ones = np.ones(n)
    assert witness_ratio(ones, ones, p).ratio == pytest.approx(s_p / n, rel=1e-12, abs=0)
    size = 3 * 2 ** (k - 1) + 1
    padded = _pad(delta_matrix(n), size, size)
    ones = np.ones(size)
    assert schatten_quasinorm(padded * np.outer(ones, ones), p) / size == pytest.approx(s_p / size, rel=1e-12, abs=0)


@pytest.mark.parametrize("p, c_p", [(0.5, 1.393204), (2.0 / 3.0, 1.765935), (0.75, 2.127934)])
def test_all_ones_lower_end_tends_to_the_main_theorem_constant(p, c_p):
    # S_p(Delta_n) / n over n^{1/p-1}, from the closed-form spectrum alone (no LAPACK), is a
    # Riemann sum rising to C_p = (2^{-p} B((1-p)/2, 1/2) / pi)^{1/p}
    a = (1.0 - p) / 2.0
    limit = (2.0**-p * math.gamma(a) * math.gamma(0.5) / math.gamma(a + 0.5) / math.pi) ** (1.0 / p)
    assert limit == pytest.approx(c_p, abs=1e-6)
    ratios = []
    for k in range(4, 21):
        n = 2**k + 1
        ratios.append(float(np.sum(mask_spectrum(n) ** p) ** (1.0 / p)) / n / n ** (1.0 / p - 1.0))
    assert all(lo < hi for lo, hi in zip(ratios, ratios[1:]))
    assert ratios[-1] < limit
    if p == 0.5:
        assert limit - ratios[-1] < 1e-3


def test_zero_padding_preserves_schatten_quasinorms():
    rng = SplitMix64(derive_seed("embed-spectrum"))
    a = rng.complex_normal((4, 6))
    for p in (0.5, 1.0, 2.0):
        assert schatten_quasinorm(_pad(a, 9, 9), p) == pytest.approx(
            schatten_quasinorm(a, p), rel=1e-12
        )


# --- the constructive witness: E2's measure --------------------------------------


def _e2_witness_ratio(k, p):
    # E2's lower bound on ||Delta_n||_mult, n = 2^k + 1: the "delta lower bound" of the test names below
    return _multiplier_interval(ExperimentConfig("E2"), p, k, 2**k + 1, 0)["witness_ratio"]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_delta_lower_bound_witness_is_the_recentred_bump(k):
    # bit for bit the mask's n x n block of the bump witness W over the whole of W: the measure
    # scores the symbol truncated at index n - 1, whose Hankel matrix is that block
    bump = bump_poly(2 ** (k - 1))
    p_k = TrigPoly(bump.lo + 2**k, bump.coeffs)
    n, w = 2**k + 1, hankel_matrix(p_k)
    s_half = [float(np.sum(np.linalg.svd(m, compute_uv=False) ** 0.5)) ** 2.0
              for m in (delta_matrix(n) * w[:n, :n], w)]
    assert _e2_witness_ratio(k, 0.5) == s_half[0] / s_half[1]
    # strictly inside the open dyadic band (2^{k-1}, 2^{k+1})
    assert p_k.lo == 2 ** (k - 1) + 1
    assert p_k.hi == 3 * 2 ** (k - 1) - 1
    assert p_k.coefficients_on(2**k, 2**k)[0] == 1.0  # bump peak recentred at 2^k


def test_an_upper_end_factor_outside_the_double_range_raises():
    # (2m)^{1/p-1} = 6^499 overflows a double; the error names p
    with pytest.raises(OverflowError, match=r"at p=0\.002 leaves the double range"):
        hankel_multiplier_upper(dirichlet_plus(3), 0.002)


def test_an_upper_end_beyond_the_double_range_raises():
    # at k = 6 the factor (2m)^{1/p-1} is finite, and its product with ||phi||_p > 1 overflows
    with pytest.raises(OverflowError, match=r"at p=0\.00681107223 leaves the double range"):
        hankel_multiplier_upper(dirichlet_plus(65), 0.00681107223)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_masking_the_witness_is_a_schur_product(k):
    # truncating the polynomial to index <= 2^k acts on the Hankel side as the
    # entrywise product with the 0/1 anti-triangular pattern, zero outside its block
    bump = bump_poly(2 ** (k - 1))
    p_k = TrigPoly(bump.lo + 2**k, bump.coeffs)
    js = np.arange(p_k.lo, p_k.hi + 1)
    r_k = TrigPoly(p_k.lo, np.where(js <= 2**k, p_k.coeffs, 0))
    n, size = 2**k + 1, 3 * 2 ** (k - 1)
    assert hankel_matrix(p_k).shape == hankel_matrix(r_k).shape == (size, size)
    masked = _pad(delta_matrix(n), size, size) * hankel_matrix(p_k)
    assert np.array_equal(masked, hankel_matrix(r_k))
    assert np.array_equal(masked[:n, :n], delta_matrix(n) * hankel_matrix(p_k)[:n, :n])


@pytest.mark.parametrize("k", range(4, 9))
def test_delta_lower_bound_matches_the_padded_mask(k):
    # E2's witnesses: the truncated symbol scores as the zero-padded mask against the whole
    # witness, up to the spectra's rounding floor at p = 1/2
    bump = bump_poly(2 ** (k - 1))
    b = hankel_matrix(TrigPoly(bump.lo + 2**k, bump.coeffs))
    padded = matrix_witness_ratio(_pad(delta_matrix(2**k + 1), *b.shape), b, 0.5)
    assert _e2_witness_ratio(k, 0.5) == pytest.approx(padded, rel=1e-8, abs=0)


def test_delta_lower_bound_is_deterministic_and_grows():
    # the mask at its own size scores above 1 against the larger bump witness from k = 3 on
    ratios = [_e2_witness_ratio(k, 0.5) for k in range(2, 6)]
    again = [_e2_witness_ratio(k, 0.5) for k in range(2, 6)]
    assert ratios == again
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[1] > 1.0


@pytest.mark.parametrize("p", [0.5, 2.0 / 3.0])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_lower_bound_stays_below_the_analytic_ceiling(k, p):
    lower = _e2_witness_ratio(k, p)
    upper = hankel_multiplier_upper(dirichlet_plus(2**k + 1), p)
    assert lower <= upper * (1 + 1e-4)


def test_hankel_multiplier_upper_validates():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        hankel_multiplier_upper(TrigPoly(0, [1.0]), 1.5)
    with pytest.raises(ValueError, match="analytic"):
        hankel_multiplier_upper(TrigPoly(-1, [1.0, 1.0]), 0.5)


def test_multiplier_upper_dominates_random_witnesses():
    violations, checked, worst = multiplier_upper_corpus()
    assert checked >= 200
    assert violations == [], f"worst margin {worst}"


# --- doubling -------------------------------------------------------------------
# diag(a, a) against [[b, b], [b, b]]: the Schur product is diag(a*b, a*b), whose
# quasinorm gains 2^{1/p}, while the rank-doubling witness only gains a factor 2


def test_witness_doubling_gains_exactly_the_p_factor():
    # the doubled witness [[b, b], [b, b]] is rank deficient by construction;
    # its numerically-zero singular values (~eps) enter the denominator as
    # eps^p, so the identity is certifiable at 1e-9 only for p >= 2/3 (the
    # conditioning floor; see the p = 1/2 check below)
    rng = SplitMix64(derive_seed("double-witness"))
    for trial in range(100):
        n = 2 + int(rng.integers(1, 7)[0])
        a = rng.complex_normal((n, n))
        b = rng.complex_normal((n, n))
        p = 2.0 / 3.0 + (1.0 - 2.0 / 3.0) * rng.uniform(1)[0]
        base = matrix_witness_ratio(a, b, p)
        doubled = matrix_witness_ratio(np.kron(np.eye(2), a), np.kron(np.ones((2, 2)), b), p)
        assert doubled == pytest.approx(
            2.0 ** (1.0 / p - 1.0) * base, rel=1e-9
        )


def test_witness_doubling_at_one_half_meets_the_conditioning_floor():
    # at p = 1/2 the eps-level junk contributes ~ n * eps^(1/2) ~ 1e-7
    # relative; the identity holds to that floor but not to 1e-9
    rng = SplitMix64(derive_seed("double-witness-half"))
    for _ in range(25):
        a = rng.complex_normal((4, 4))
        b = rng.complex_normal((4, 4))
        base = matrix_witness_ratio(a, b, 0.5)
        doubled = matrix_witness_ratio(np.kron(np.eye(2), a), np.kron(np.ones((2, 2)), b), 0.5)
        assert doubled == pytest.approx(2.0 * base, rel=5e-7)


def test_witness_doubling_identity_matrices():
    # closed forms: base 1, doubled 2; the doubled side still pays the
    # rank-deficiency floor (eps^(1/2) junk at p = 1/2), even for 0/1 inputs
    base = matrix_witness_ratio(np.eye(2), np.eye(2), 0.5)
    doubled = matrix_witness_ratio(np.kron(np.eye(2), np.eye(2)), np.kron(np.ones((2, 2)), np.eye(2)), 0.5)
    assert base == pytest.approx(1.0, rel=1e-12)
    assert doubled == pytest.approx(2.0, rel=5e-7)


@pytest.mark.parametrize("n", range(1, 17))
def test_chi_doubling_decomposition(n):
    assert chi_doubling_decomposition(n)


def test_p_triangle_controls_the_doubled_mask():
    # ||chi_2n * B||^p <= ||diag part * B||^p + ||corner part * B||^p
    rng = SplitMix64(derive_seed("doubled-mask-triangle"))
    p = 0.5
    for n in (2, 3, 5, 8):
        b = rng.complex_normal((2 * n, 2 * n))
        whole = schatten_quasinorm(np.triu(np.ones((2 * n, 2 * n))) * b, p) ** p
        zero = np.zeros((n, n))
        chi_n = np.triu(np.ones((n, n)))
        diag_mask = np.block([[chi_n, zero], [zero, chi_n]])
        diag = schatten_quasinorm(diag_mask * b, p) ** p
        corner_mask = np.block([[zero, np.ones((n, n))], [zero, zero]])
        corner = schatten_quasinorm(corner_mask * b, p) ** p
        assert whole <= diag + corner + 1e-9


# --- randomized search ----------------------------------------------------------


def test_witness_search_is_deterministic():
    a = delta_matrix(5)
    first = random_witness_search(a, 0.5, draws=20, seed=7)
    second = random_witness_search(a, 0.5, draws=20, seed=7)
    assert first == second


def test_witness_search_never_loses_to_the_constructive_witness():
    # the all-ones and largest-entry pool alone beats the bump witness on the unpadded mask,
    # by 1.2013x at its tightest (k = 1, p = 1), so multiplier-bound need not evaluate it
    for k in range(1, 9):
        a = delta_matrix(2**k + 1)
        for p in (0.05, 0.25, 0.5, 0.75, 1.0):
            found = random_witness_search(a, p, draws=0, seed=1)
            assert found.ratio >= 1.2 * _e2_witness_ratio(k, p)


def test_search_draws_never_beat_the_all_ones_pair_on_the_queries_mix():
    # the multiplier-bound rows of the benchmark's query mix: k = 3..6, p = 1/2, budgets 25, 50 and 100
    for k in range(3, 7):
        a = delta_matrix(2**k + 1)
        ones = np.ones(a.shape[0])
        for draws in (12, 25, 50):
            for seed in (1701, 2029):
                assert random_witness_search(a, 0.5, draws, seed) == witness_ratio(ones, ones, 0.5)


def test_search_draws_beat_the_all_ones_pair_at_small_levels_near_p_one():
    # so the all-ones pair alone would lower these rows: by 1.9% at k = 1 and 2.4% at k = 2
    for k in (1, 2):
        a = delta_matrix(2**k + 1)
        ones = np.ones(a.shape[0])
        assert random_witness_search(a, 1.0, 50, 1701).ratio > 1.01 * witness_ratio(ones, ones, 1.0).ratio


def _pool_and_rank_one_best(a, p, draws, seed):
    """Best ratio of the all-ones and largest-entry pool and the seeded rank-one draws, one witness_ratio call each."""
    size = a.shape[0]
    ones = np.ones(size)
    i, j = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    ratios = [witness_ratio(ones, ones, p).ratio, witness_ratio(np.eye(size)[i], np.eye(size)[j], p).ratio]
    gen = SplitMix64(derive_seed("witness-search", seed))
    for _ in range(draws):
        u = gen.complex_normal(size)
        v = gen.complex_normal(size)
        ratios.append(witness_ratio(u, v, p).ratio)
    return max(ratios)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_witness_search_replays_through_the_plain_frame(k):
    # the search's value is exactly the best of its pool and its stream's draws,
    # drawn one complex_normal call at a time and each evaluated as a pair, whatever the search's blocks
    a = delta_matrix(2**k + 1)
    for p in (0.5, 1.0):
        for draws in (3,) if k == 8 else (12, 25):
            for seed in (3, 11):
                assert random_witness_search(a, p, draws, seed).ratio == _pool_and_rank_one_best(a, p, draws, seed)


def test_witness_search_draws_across_stream_blocks(monkeypatch):
    # the bulk draws come in blocks that continue one stream: two draws (four rows of 5 complex numbers, 40 doubles) a block
    monkeypatch.setattr(multipliers, "_BLOCK_DOUBLES", 40)
    a = delta_matrix(5)
    for draws in (1, 2, 5):
        assert random_witness_search(a, 0.75, draws, 4).ratio == _pool_and_rank_one_best(a, 0.75, draws, 4)


def test_witness_search_reports_the_winning_draw():
    a = delta_matrix(3)
    best = random_witness_search(a, 1.0, 40, 2)
    gen = SplitMix64(derive_seed("witness-search", 2))
    draws = [(gen.complex_normal(3), gen.complex_normal(3)) for _ in range(40)]
    ratios = [witness_ratio(*pair, 1.0).ratio for pair in draws]
    assert best.ratio == max(ratios) > 1.0  # a draw beats the pool here
    assert best == witness_ratio(*draws[int(np.argmax(ratios))], 1.0)


def test_witness_search_spends_one_spectrum_per_draw(monkeypatch):
    calls = {"svd": 0, "eigvalsh": 0}
    svd_inputs = []
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            if _name == "svd":
                svd_inputs.append((a.shape, a.dtype.kind))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    kernel_inputs = []

    def kernel(x, y):
        kernel_inputs.append(x.shape + y.shape)
        return _triu_outer_spectrum(x, y)

    monkeypatch.setattr(multipliers, "_triu_outer_spectrum", kernel)
    k = 6
    random_witness_search(delta_matrix(2**k + 1), 0.5, 50, 1)
    # one kernel call per pair: the pool's all-ones pair, the largest entry's matrix unit and the 50 draws,
    # each a pair of 65 factors (both denominators are exact); the unit's dense 1 x 1 block is the one SVD
    # when the kernel's dqds symbol resolves, and no eigensolver runs anywhere
    assert kernel_inputs == [(65, 65)] * 52
    assert calls["eigvalsh"] == 0
    if matrices._DLASQ1 is not None:
        assert svd_inputs == [((1, 1), "f")]


def test_witness_search_validates():
    with pytest.raises(ValueError, match="must be the mask"):
        random_witness_search(np.ones((2, 3)), 0.5, draws=4, seed=0)
    with pytest.raises(ValueError, match="draws"):
        random_witness_search(delta_matrix(2), 0.5, draws=-1, seed=0)
    with pytest.raises(ValueError, match="draws must be an integer, got 2.9"):
        random_witness_search(delta_matrix(2), 0.5, draws=2.9, seed=0)
    with pytest.raises(ValueError, match="seed must be an integer, got 2.7"):
        random_witness_search(delta_matrix(5), 0.5, draws=3, seed=2.7)
    for bad in (np.ones(3), 5.0, np.ones((0, 0))):
        with pytest.raises(ValueError, match="multiplier must be a 2-D array with positive shape"):
            random_witness_search(bad, 0.5, draws=2, seed=0)
    # chi_n, the all-ones matrix, Delta_n with one entry flipped, a padded Delta_{n-1} and i Delta_n: the search
    # scores rank-one pairs on Delta_n alone, so any other matrix is refused before a draw
    n = 5
    flipped = delta_matrix(n).copy()  # delta_matrix is a read-only view
    flipped[n - 1, n - 1] = 1.0
    for bad in (np.triu(np.ones((n, n))), np.ones((n, n)), flipped, np.pad(delta_matrix(n - 1), [(0, 1), (0, 1)]),
                delta_matrix(n) * 1j):
        with pytest.raises(ValueError, match=r"multiplier must be the mask delta_matrix\(n\), got another \(5, 5\)"):
            random_witness_search(bad, 0.5, draws=2, seed=0)
    assert random_witness_search(delta_matrix(n).astype(np.int8), 0.5, 2, 0) == random_witness_search(
        delta_matrix(n), 0.5, 2, 0)
    a = delta_matrix(9)
    assert random_witness_search(a, 0.5, draws=0, seed=0).ratio == _pool_and_rank_one_best(a, 0.5, 0, 0)


def test_search_pool_scores_the_largest_entry(monkeypatch):
    # the pool's second member is the matrix unit at Delta_n's largest entry (0, 0), a 1 x 1 spectrum of
    # ratio 1, as schatten_quasinorm gives the dense Delta_n * e_0 e_0^T; it is never below the identity
    # witness's (mean_i |Delta_ii|^p)^{1/p}.  At p <= 1 it never beats the all-ones pair, whose ratio is then
    # above 1 for n >= 2; at p = 2 that pair's ratio is sqrt(n (n + 1) / 2) / n, and the unit wins
    reports = []

    def recorded(*args):
        reports.append(witness_ratio(*args))
        return reports[-1]

    monkeypatch.setattr(multipliers, "witness_ratio", recorded)
    for n in range(1, 9):
        idx = np.arange(n)
        delta = (np.add.outer(idx, idx) < n).astype(float)
        unit = np.zeros((n, n))
        unit[0, 0] = 1.0
        for p in (0.25, 0.5, 1.0, 2.0):
            reports.clear()
            best = random_witness_search(delta, p, 0, 1)
            assert reports[1] == WitnessReport(1.0, 1.0)
            assert schatten_quasinorm(delta * unit, p) / schatten_quasinorm(unit, p) == 1.0
            assert reports[1].ratio >= np.mean(np.diag(delta) ** p) ** (1.0 / p)
            if p <= 1 or n == 1:
                assert best == reports[0] and (best.ratio > 1.0 or n == 1)
            else:
                assert best == reports[1]


# --- the p = 1 shadow -----------------------------------------------------------


def _e5_riesz_ratios(kmin, kmax):
    # E5's ratio ||analytic half of K_m||_1 / ||K_m||_1, keyed by m
    result = run_experiment(ExperimentConfig("E5", kmin=kmin, kmax=kmax))
    return {r.n: r.value for r in result.records if r.quantity == "riesz_ratio"}


def test_fejer_riesz_ratio_grows():
    ratios = _e5_riesz_ratios(3, 7)
    r8, r32, r128 = (ratios[m] for m in (8, 32, 128))
    assert 1.0 < r8 < r32 < r128


def test_fejer_riesz_ratio_matches_direct_quadrature():
    # the denominator ||K_m||_1 is exactly 1 (next test), so the ratio is its numerator
    m = 16
    assert _e5_riesz_ratios(3, 7)[m] == lp_quasinorm(riesz_plus(fejer(m)), 1.0)


@pytest.mark.parametrize("m", [2**k for k in range(4, 12)])  # E5's registered grid
def test_fejer_l1_quadrature_is_one(m):
    # K_m >= 0 has mean one, which the midpoint rule on N > m nodes integrates exactly
    value = lp_quasinorm(fejer(m), 1.0)
    assert abs(value - 1.0) <= 2 * np.spacing(value)  # 2 ulp
