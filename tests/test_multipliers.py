"""Schur-multiplier witnesses: certified lower bounds against analytic ceilings."""

import math

import numpy as np
import pytest

from corpora import chi_doubling_decomposition
from tritrunc import multipliers
from tritrunc.hankel import hankel_matrix
from tritrunc.kernels import dirichlet_plus, fejer
from tritrunc.matrices import (
    block2x2,
    block_diag2,
    chi_matrix,
    delta_matrix,
    mask_spectrum,
    schatten_quasinorm,
    schur_product,
)
from tritrunc.multipliers import (
    band_witness_pair,
    delta_lower_bound,
    dirichlet_witness_upper,
    double_witness,
    fejer_riesz_ratio,
    hankel_multiplier_upper,
    random_witness_search,
    witness_ratio,
)
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, lp_quasinorm, riesz_plus

from corpora import multiplier_upper_corpus


# --- witness_ratio ----------------------------------------------------------------


def _pad(a, rows, cols):
    """a zero-padded to rows x cols (bottom/right)."""
    return np.pad(a, [(0, rows - a.shape[0]), (0, cols - a.shape[1])])


def test_witness_ratio_on_the_all_ones_witness():
    rep = witness_ratio(chi_matrix(2), np.ones((2, 2)), 1.0)
    assert rep.numerator == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert rep.denominator == pytest.approx(2.0, abs=1e-12)
    assert rep.ratio == rep.numerator / rep.denominator


def test_witness_ratio_validates_inputs():
    # a multiplier larger than the witness in either dimension has no reading
    for a, b in ((chi_matrix(3), np.ones((2, 2))), (np.ones((3, 2)), np.ones((2, 3))),
                 (np.ones((2, 3)), np.ones((3, 2))), (np.ones(3), np.ones((3, 3)))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            witness_ratio(a, b, 0.5)
    with pytest.raises(ValueError, match="zero witness"):
        witness_ratio(chi_matrix(2), np.zeros((2, 2)), 0.5)


def test_a_smaller_multiplier_is_zero_outside_its_block():
    # against a larger witness the multiplier counts as its zero-padded copy
    rng = SplitMix64(derive_seed("smaller-multiplier"))
    b = rng.complex_matrix(5, 7)
    for a in (chi_matrix(3), rng.complex_matrix(2, 6), rng.complex_matrix(5, 7)):
        for p in (0.5, 1.0, 2.0):
            got, want = witness_ratio(a, b, p), witness_ratio(_pad(a, *b.shape), b, p)
            assert got.numerator == pytest.approx(want.numerator, rel=1e-12)
            assert got.denominator == want.denominator
            assert got.multiplier.shape == a.shape


def test_pair_witness_validates_inputs():
    a = chi_matrix(3)
    for u, v in ((np.ones(3), np.ones(2)), (np.ones(2), np.ones(3)), (np.ones((3, 1)), np.ones(3)),
                 (np.ones(3), np.ones((1, 3)))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            witness_ratio(a, (u, v), 0.5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        witness_ratio(np.ones((3, 2)), (np.ones(2), np.ones(3)), 0.5)
    for u, v in ((np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(3, dtype=complex))):
        with pytest.raises(ValueError, match="zero witness"):
            witness_ratio(a, (u, v), 0.5)
    with pytest.raises(ValueError, match="p must be"):
        witness_ratio(np.zeros((3, 3)), (np.ones(3), np.ones(3)), 0.0)


def test_pair_witness_is_the_rank_one_matrix():
    # away from the rounding floor (p >= 1) the factored form agrees with the dense one
    rng = SplitMix64(derive_seed("pair-witness"))
    for m, n in ((1, 1), (3, 5), (6, 4), (9, 9)):
        a = rng.complex_matrix(m, n)
        u, v = rng.complex_normal(m), rng.complex_normal(n)
        for p in (1.0, 2.0):
            pair, dense = witness_ratio(a, (u, v), p), witness_ratio(a, np.outer(u, v.conj()), p)
            assert np.array_equal(pair.witness, dense.witness)
            assert pair.numerator == pytest.approx(dense.numerator, rel=1e-12)
            assert pair.denominator == pytest.approx(dense.denominator, rel=1e-12)


def test_pair_witness_ignores_the_phases():
    rng = SplitMix64(derive_seed("pair-witness-phases"))
    a = _pad(delta_matrix(9), 13, 13)
    for p in (0.5, 0.75, 1.0):
        u, v = rng.complex_normal(13), rng.complex_normal(13)
        assert witness_ratio(a, (u, v), p).ratio == pytest.approx(
            witness_ratio(a, (np.abs(u), np.abs(v)), p).ratio, rel=1e-14, abs=0
        )


def test_pair_witness_trims_zero_rows_and_columns():
    # a witness factor that misses the mask's support scores zero, with no spectrum
    a = _pad(delta_matrix(3), 5, 5)
    u = np.array([0.0, 0.0, 0.0, 1.0, 2.0])
    assert witness_ratio(a, (u, np.ones(5)), 0.5).numerator == 0.0
    rep = witness_ratio(a, (np.array([0.0, 1.0, 0.0, 3.0, 0.0]), np.ones(5)), 1.0)
    assert rep.numerator == pytest.approx(np.sqrt(2.0), rel=1e-15)  # row 1 of the mask: two ones
    assert rep.denominator == pytest.approx(np.sqrt(10.0) * np.sqrt(5.0), rel=1e-15)


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("k", range(1, 9))
def test_all_ones_pair_on_the_padded_mask_is_the_closed_form(k, p):
    # S_p(Delta_n) / N: the mask's closed-form spectrum over the exact denominator ||1_N||^2 = N,
    # with the mask at its own size (N = n) and zero-padded to the bump witness's size
    n = 2**k + 1
    s_p = float(np.sum(mask_spectrum(n) ** p) ** (1.0 / p))
    for size in (n, 3 * 2 ** (k - 1) + 1):
        ones = np.ones(size)
        got = witness_ratio(_pad(delta_matrix(n), size, size), (ones, ones), p).ratio
        assert got == pytest.approx(s_p / size, rel=1e-12, abs=0)


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
    a = rng.complex_matrix(4, 6)
    for p in (0.5, 1.0, 2.0):
        assert schatten_quasinorm(_pad(a, 9, 9), p) == pytest.approx(
            schatten_quasinorm(a, p), rel=1e-12
        )


# --- the constructive witness pair ----------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_band_witness_pair_support(k):
    p_k, r_k = band_witness_pair(k)
    # strictly inside the open dyadic band (2^{k-1}, 2^{k+1})
    assert p_k.lo == 2 ** (k - 1) + 1
    assert p_k.hi == 3 * 2 ** (k - 1) - 1
    assert p_k.coefficient(2**k) == 1.0  # bump peak recentred at 2^k
    assert r_k.lo == p_k.lo
    # restrict zeroes coefficients without shrinking the stored window
    assert r_k.coefficient(2**k) == 1.0
    assert all(r_k.coefficient(j) == 0.0 for j in range(2**k + 1, r_k.hi + 1))


def test_band_witness_pair_rejects_k_zero():
    with pytest.raises(ValueError, match="k must be >= 1"):
        band_witness_pair(0)


@pytest.mark.parametrize("k", [-1, 0, 2.7, True])
def test_level_k_bounds_reject_a_bad_level(k):
    # a bad level is rejected, never truncated or wrapped onto a valid one
    for bound in (dirichlet_witness_upper, delta_lower_bound):
        with pytest.raises(ValueError, match="k must be"):
            bound(k, 0.5)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_masking_the_witness_is_a_schur_product(k):
    # truncating the polynomial to index <= 2^k acts on the Hankel side as the
    # entrywise product with the 0/1 anti-triangular pattern, zero outside its block
    p_k, r_k = band_witness_pair(k)
    n, size = 2**k + 1, 3 * 2 ** (k - 1)
    assert hankel_matrix(p_k).shape == hankel_matrix(r_k).shape == (size, size)
    masked = schur_product(_pad(delta_matrix(n), size, size), hankel_matrix(p_k))
    assert np.array_equal(masked, hankel_matrix(r_k))
    assert np.array_equal(masked[:n, :n], schur_product(delta_matrix(n), hankel_matrix(p_k)[:n, :n]))


def test_delta_lower_bound_report_shape():
    # the mask at its own size against the larger bump witness
    rep = delta_lower_bound(3, 0.5)
    assert rep.p == 0.5
    assert np.array_equal(rep.multiplier, delta_matrix(9))
    assert rep.witness.shape == (12, 12)
    assert rep.ratio > 1.0


@pytest.mark.parametrize("k", range(4, 9))
def test_delta_lower_bound_matches_the_padded_mask(k):
    # E2's witnesses: the mask read as zero outside its block scores as its zero-padded
    # copy, up to the spectra's rounding floor at p = 1/2
    rep = delta_lower_bound(k, 0.5)
    padded = witness_ratio(_pad(rep.multiplier, *rep.witness.shape), rep.witness, 0.5)
    assert rep.ratio == pytest.approx(padded.ratio, rel=1e-8, abs=0)


def test_delta_lower_bound_is_deterministic_and_grows():
    ratios = [delta_lower_bound(k, 0.5).ratio for k in range(2, 6)]
    again = [delta_lower_bound(k, 0.5).ratio for k in range(2, 6)]
    assert ratios == again
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("p", [0.5, 2.0 / 3.0])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_lower_bound_stays_below_the_analytic_ceiling(k, p):
    lower = delta_lower_bound(k, p).ratio
    upper = dirichlet_witness_upper(k, p)
    assert lower <= upper * (1 + 1e-4)


def test_dirichlet_witness_upper_is_the_generic_bound():
    k, p = 4, 0.5
    assert dirichlet_witness_upper(k, p) == hankel_multiplier_upper(
        dirichlet_plus(2**k + 1), p
    )


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


def test_double_witness_gains_exactly_the_p_factor():
    # the doubled witness [[b, b], [b, b]] is rank deficient by construction;
    # its numerically-zero singular values (~eps) enter the denominator as
    # eps^p, so the identity is certifiable at 1e-9 only for p >= 2/3 (the
    # conditioning floor; see the p = 1/2 check below)
    rng = SplitMix64(derive_seed("double-witness"))
    for trial in range(100):
        n = 2 + int(rng.integers(1, 7)[0])
        a = rng.complex_matrix(n, n)
        b = rng.complex_matrix(n, n)
        p = 2.0 / 3.0 + (1.0 - 2.0 / 3.0) * rng.uniform(1)[0]
        base, doubled = double_witness(a, b, p)
        assert doubled.ratio == pytest.approx(
            2.0 ** (1.0 / p - 1.0) * base.ratio, rel=1e-9
        )


def test_double_witness_at_one_half_meets_the_conditioning_floor():
    # at p = 1/2 the eps-level junk contributes ~ n * eps^(1/2) ~ 1e-7
    # relative; the identity holds to that floor but not to 1e-9
    rng = SplitMix64(derive_seed("double-witness-half"))
    for _ in range(25):
        a = rng.complex_matrix(4, 4)
        b = rng.complex_matrix(4, 4)
        base, doubled = double_witness(a, b, 0.5)
        assert doubled.ratio == pytest.approx(2.0 * base.ratio, rel=5e-7)


def test_double_witness_identity_matrices():
    # closed forms: base 1, doubled 2; the doubled side still pays the
    # rank-deficiency floor (eps^(1/2) junk at p = 1/2), even for 0/1 inputs
    base, doubled = double_witness(np.eye(2), np.eye(2), 0.5)
    assert base.ratio == pytest.approx(1.0, rel=1e-12)
    assert doubled.ratio == pytest.approx(2.0, rel=5e-7)


@pytest.mark.parametrize("n", range(1, 17))
def test_chi_doubling_decomposition(n):
    assert chi_doubling_decomposition(n)


def test_p_triangle_controls_the_doubled_mask():
    # ||chi_2n * B||^p <= ||diag part * B||^p + ||corner part * B||^p
    rng = SplitMix64(derive_seed("doubled-mask-triangle"))
    p = 0.5
    for n in (2, 3, 5, 8):
        b = rng.complex_matrix(2 * n, 2 * n)
        whole = schatten_quasinorm(schur_product(chi_matrix(2 * n), b), p) ** p
        diag = schatten_quasinorm(schur_product(block_diag2(chi_matrix(n)), b), p) ** p
        zero = np.zeros((n, n))
        corner_mask = block2x2(zero, np.ones((n, n)), zero, zero)
        corner = schatten_quasinorm(schur_product(corner_mask, b), p) ** p
        assert whole <= diag + corner + 1e-9


# --- randomized search ----------------------------------------------------------


def test_witness_search_is_deterministic():
    a = delta_matrix(5)
    first = random_witness_search(a, 0.5, draws=20, seed=7)
    second = random_witness_search(a, 0.5, draws=20, seed=7)
    assert first.ratio == second.ratio
    assert np.array_equal(first.witness, second.witness)


def test_witness_search_never_loses_to_the_constructive_witness():
    # the all-ones and identity pool alone beats the bump witness on the unpadded mask,
    # by 1.2013x at its tightest (k = 1, p = 1), so multiplier-bound need not evaluate it
    for k in range(1, 9):
        a = delta_matrix(2**k + 1)
        for p in (0.05, 0.25, 0.5, 0.75, 1.0):
            found = random_witness_search(a, p, draws=0, seed=1)
            assert found.ratio >= 1.2 * delta_lower_bound(k, p).ratio


def _pool_and_rank_one_best(a, p, draws, seed):
    """Best ratio of the all-ones and identity pool and the seeded rank-one draws, one witness_ratio call each."""
    size = a.shape[0]
    ones = np.ones(size)
    ratios = [witness_ratio(a, (ones, ones), p).ratio, witness_ratio(a, np.eye(size), p).ratio]
    gen = SplitMix64(derive_seed("witness-search", seed))
    for _ in range(draws):
        u = gen.complex_normal(size)
        v = gen.complex_normal(size)
        ratios.append(witness_ratio(a, (u, v), p).ratio)
    return max(ratios)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_witness_search_replays_through_the_plain_frame(k):
    # the search's value is exactly the best of its pool and its stream's draws,
    # drawn one complex_normal call at a time and each evaluated as a pair
    a = delta_matrix(2**k + 1)
    for p in (0.5, 1.0):
        for draws in (12, 25):
            for seed in (3, 11):
                assert random_witness_search(a, p, draws, seed).ratio == _pool_and_rank_one_best(a, p, draws, seed)


def test_witness_search_draws_across_stream_blocks(monkeypatch):
    # the bulk draws come in blocks that continue one stream
    monkeypatch.setattr(multipliers, "_DRAW_BLOCK", 2)
    a = delta_matrix(5)
    for draws in (1, 2, 5):
        assert random_witness_search(a, 0.75, draws, 4).ratio == _pool_and_rank_one_best(a, 0.75, draws, 4)


def test_witness_search_reports_the_winning_draw_as_a_matrix():
    a = delta_matrix(3)
    best = random_witness_search(a, 1.0, 40, 2)
    gen = SplitMix64(derive_seed("witness-search", 2))
    draws = [(gen.complex_normal(3), gen.complex_normal(3)) for _ in range(40)]
    ratios = [witness_ratio(a, pair, 1.0).ratio for pair in draws]
    assert best.ratio == max(ratios) > 1.0  # a draw beats the pool here
    u, v = draws[int(np.argmax(ratios))]
    assert np.array_equal(best.witness, np.outer(u, v.conj()))


def test_witness_search_spends_one_spectrum_per_draw(monkeypatch):
    calls = {"svd": 0, "eigvalsh": 0}
    svd_inputs = set()
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            if _name == "svd":
                svd_inputs.add((a.shape, a.dtype.kind))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    k = 6
    random_witness_search(delta_matrix(2**k + 1), 0.5, 50, 1)
    # pool: one SVD for the all-ones numerator (its denominator is exact) and two for
    # the identity; draws: one real SVD each, of the 65 x 65 numerator
    assert calls == {"svd": 53, "eigvalsh": 0}
    assert svd_inputs == {((65, 65), "f")}


def test_witness_search_validates():
    with pytest.raises(ValueError, match="square"):
        random_witness_search(np.ones((2, 3)), 0.5, draws=4, seed=0)
    with pytest.raises(ValueError, match="draws"):
        random_witness_search(np.ones((2, 2)), 0.5, draws=-1, seed=0)
    with pytest.raises(ValueError, match="draws must be an integer, got 2.9"):
        random_witness_search(np.ones((2, 2)), 0.5, draws=2.9, seed=0)
    with pytest.raises(ValueError, match="seed must be an integer, got 2.7"):
        random_witness_search(delta_matrix(5), 0.5, draws=3, seed=2.7)
    a = delta_matrix(9)
    assert random_witness_search(a, 0.5, draws=0, seed=0).ratio == _pool_and_rank_one_best(a, 0.5, 0, 0)


# --- the p = 1 shadow -----------------------------------------------------------


def test_fejer_riesz_ratio_grows():
    r8, r32, r128 = (fejer_riesz_ratio(m) for m in (8, 32, 128))
    assert 1.0 < r8 < r32 < r128


def test_fejer_riesz_ratio_matches_direct_quadrature():
    # the denominator ||K_m||_1 is exactly 1 (next test), so the ratio is its numerator
    m = 16
    assert fejer_riesz_ratio(m) == lp_quasinorm(riesz_plus(fejer(m)), 1.0)


@pytest.mark.parametrize("m", [2**k for k in range(4, 12)])  # E5's registered grid
def test_fejer_l1_quadrature_is_one(m):
    # K_m >= 0 has mean one, which the midpoint rule on N > m nodes integrates exactly
    value = lp_quasinorm(fejer(m), 1.0)
    assert abs(value - 1.0) <= 2 * np.spacing(value)  # 2 ulp
