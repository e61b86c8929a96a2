"""Schur-multiplier witnesses: certified lower bounds against analytic ceilings."""

import numpy as np
import pytest

from corpora import chi_doubling_decomposition
from tritrunc.hankel import hankel_matrix
from tritrunc.kernels import dirichlet_plus, fejer
from tritrunc.matrices import (
    block2x2,
    block_diag2,
    chi_matrix,
    delta_matrix,
    ones_matrix,
    schatten_quasinorm,
    schur_product,
)
from tritrunc.multipliers import (
    band_witness_pair,
    delta_lower_bound,
    dirichlet_witness_upper,
    double_witness,
    embed,
    fejer_riesz_ratio,
    hankel_multiplier_upper,
    random_witness_search,
    witness_embed_size,
    witness_ratio,
)
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, lp_quasinorm, riesz_plus

from corpora import multiplier_upper_corpus


# --- witness_ratio and embed ----------------------------------------------------


def test_witness_ratio_on_the_all_ones_witness():
    rep = witness_ratio(chi_matrix(2), ones_matrix(2), 1.0)
    assert rep.numerator == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert rep.denominator == pytest.approx(2.0, abs=1e-12)
    assert rep.ratio == rep.numerator / rep.denominator


def test_witness_ratio_validates_inputs():
    with pytest.raises(ValueError, match="dimension mismatch"):
        witness_ratio(chi_matrix(2), ones_matrix(3), 0.5)
    with pytest.raises(ValueError, match="zero witness"):
        witness_ratio(chi_matrix(2), np.zeros((2, 2)), 0.5)


def test_embed_preserves_schatten_quasinorms():
    rng = SplitMix64(derive_seed("embed-spectrum"))
    a = rng.complex_matrix(4, 6)
    for p in (0.5, 1.0, 2.0):
        assert schatten_quasinorm(embed(a, 9), p) == pytest.approx(
            schatten_quasinorm(a, p), rel=1e-12
        )


def test_embed_rejects_shrinking():
    with pytest.raises(ValueError, match="cannot embed"):
        embed(np.ones((3, 3)), 2)


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


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_masking_the_witness_is_a_schur_product(k):
    # truncating the polynomial to index <= 2^k acts on the Hankel side as the
    # entrywise product with the padded 0/1 anti-triangular pattern
    p_k, r_k = band_witness_pair(k)
    size = witness_embed_size(k)
    assert hankel_matrix(p_k).shape == (size - 1, size - 1)
    masked = schur_product(
        embed(delta_matrix(2**k + 1), size), embed(hankel_matrix(p_k), size)
    )
    assert np.array_equal(masked, embed(hankel_matrix(r_k), size))


def test_delta_lower_bound_report_shape():
    rep = delta_lower_bound(3, 0.5)
    size = witness_embed_size(3)
    assert rep.p == 0.5
    assert rep.multiplier.shape == (size, size)
    assert rep.witness.shape == (size, size)
    assert rep.ratio > 1.0


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
        corner_mask = block2x2(zero, ones_matrix(n), zero, zero)
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
    # the all-ones and identity pool alone beats the bump witness on the unpadded mask
    for k in (2, 3):
        a = delta_matrix(2**k + 1)
        found = random_witness_search(a, 0.5, draws=3, seed=1)
        assert found.ratio >= delta_lower_bound(k, 0.5).ratio


def _pool_and_rank_one_best(a, p, draws, seed):
    """Best ratio of the all-ones and identity pool and the seeded rank-one draws, through plain witness_ratio."""
    size = a.shape[0]
    ratios = [witness_ratio(a, np.ones_like(a), p).ratio, witness_ratio(a, np.eye(size), p).ratio]
    gen = SplitMix64(derive_seed("witness-search", seed))
    for _ in range(draws):
        u = gen.complex_normal(size)
        v = gen.complex_normal(size)
        ratios.append(witness_ratio(a, np.outer(u, v.conj()), p).ratio)
    return max(ratios)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_witness_search_replays_through_the_plain_frame(k):
    # the search's value is exactly the best of its pool and its stream's draws,
    # each evaluated by a plain witness_ratio call
    a = embed(delta_matrix(2**k + 1), witness_embed_size(k))
    for p in (0.5, 1.0):
        for draws in (12, 25):
            for seed in (3, 11):
                assert random_witness_search(a, p, draws, seed).ratio == _pool_and_rank_one_best(a, p, draws, seed)


def test_witness_search_spends_two_spectra_per_draw(monkeypatch):
    calls = {"svd": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    k = 6
    random_witness_search(embed(delta_matrix(2**k + 1), witness_embed_size(k)), 0.5, 50, 1)
    # pool: 4 symmetric solves on the real symmetric padded mask; draws: 50 x 2 complex SVDs
    assert calls == {"svd": 100, "eigvalsh": 4}


def test_witness_search_validates():
    with pytest.raises(ValueError, match="square"):
        random_witness_search(np.ones((2, 3)), 0.5, draws=4, seed=0)
    with pytest.raises(ValueError, match="draws"):
        random_witness_search(np.ones((2, 2)), 0.5, draws=-1, seed=0)
    a = embed(delta_matrix(9), witness_embed_size(3))
    assert random_witness_search(a, 0.5, draws=0, seed=0).ratio == _pool_and_rank_one_best(a, 0.5, 0, 0)


# --- the p = 1 shadow -----------------------------------------------------------


def test_fejer_riesz_ratio_grows():
    r8, r32, r128 = (fejer_riesz_ratio(m) for m in (8, 32, 128))
    assert 1.0 < r8 < r32 < r128


def test_fejer_riesz_ratio_matches_direct_quadrature():
    m = 16
    k_m = fejer(m)
    direct = lp_quasinorm(riesz_plus(k_m), 1.0) / lp_quasinorm(k_m, 1.0)
    assert fejer_riesz_ratio(m) == direct
