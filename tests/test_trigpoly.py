import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import endpoint_coefficient_corpus
from oracles import dirichlet_lp_closed_form, direct_lp
import tritrunc.trigpoly as trigpoly
from tritrunc.kernels import apply_window, bump_poly, dirichlet_plus, fejer
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, lp_quasinorm, quadrature_floor, riesz_plus


def rand_poly(gen, lo_min=-8, lo_max=8, max_span=12):
    lo = lo_min + int(gen.integers(1, lo_max - lo_min + 1)[0])
    span = 1 + int(gen.integers(1, max_span)[0])
    return TrigPoly(lo, gen.complex_normal(span))


# --- construction and window bookkeeping ------------------------------------


def test_window_properties():
    f = TrigPoly(-2, [1, 0, 3, 0, 5])
    assert (f.lo, f.hi) == (-2, 2)
    assert f.coefficient(0) == 3
    assert f.coefficient(99) == 0
    assert f.coefficient(-2) == 1


def test_coefficients_on_pads_with_zeros():
    f = TrigPoly(1, [2, 4])
    assert np.array_equal(f.coefficients_on(-1, 4), [0, 0, 2, 4, 0, 0])
    with pytest.raises(ValueError):
        f.coefficients_on(3, 1)


POLY = TrigPoly(-2, [1.0, 2.0, 3.0, 4.0])

# entry point -> (its output with the integer argument n, a value n may take)
INTEGER_ARGUMENTS = {
    "TrigPoly lo": (lambda n: TrigPoly(n, [1.0, 2.0]).coefficients_on(-4, 4), -1),
    "coefficient": (lambda n: POLY.coefficient(n), -1),
    "coefficients_on lo": (lambda n: POLY.coefficients_on(n, 3), -3),
    "coefficients_on hi": (lambda n: POLY.coefficients_on(-3, n), 3),
    "shift": (lambda n: POLY.shift(n).coefficients_on(-6, 6), -3),
    "restrict lo": (lambda n: POLY.restrict(lo=n).coeffs, -1),
    "restrict hi": (lambda n: POLY.restrict(hi=n).coeffs, 0),
    "lp_quasinorm n_samples": (lambda n: lp_quasinorm(POLY, 0.5, n_samples=n), 4097),
}


@pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
def test_integer_arguments_go_through_the_validator(name):
    # offsets and sample counts are integers: no truncation of a fraction, no bool, no string
    call, n = INTEGER_ARGUMENTS[name]
    for bad in (2.9, True, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    # numpy integers are integers, with bit-identical output
    got, want = np.asarray(call(np.int64(n))), np.asarray(call(n))
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        TrigPoly(0, [])
    with pytest.raises(ValueError):
        TrigPoly(0, [1.0, np.nan])
    with pytest.raises(ValueError):
        TrigPoly(0, [[1.0, 2.0]])


def test_coeffs_are_frozen():
    f = TrigPoly(0, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 9.0


def test_equality_is_padding_insensitive():
    assert TrigPoly(0, [0, 1, 0]) == TrigPoly(1, [1])
    assert TrigPoly(-1, [0, 0, 0]) == TrigPoly(5, [0])
    assert TrigPoly(0, [1]) != TrigPoly(1, [1])


def test_unhashable():
    with pytest.raises(TypeError):
        hash(TrigPoly(0, [1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 5), st.integers(0, 5))
def test_padding_never_changes_equality(seed, pad_left, pad_right):
    gen = SplitMix64(seed)
    f = rand_poly(gen)
    padded = TrigPoly(
        f.lo - pad_left,
        np.concatenate([np.zeros(pad_left), f.coeffs, np.zeros(pad_right)]),
    )
    assert padded == f and f == padded


def test_algebra_on_mismatched_windows():
    f = TrigPoly(-1, [1, 2])
    g = TrigPoly(1, [10])
    assert f + g == TrigPoly(-1, [1, 2, 10])
    assert f - g == TrigPoly(-1, [1, 2, -10])
    assert 2 * f == TrigPoly(-1, [2, 4])
    assert f * 0.5 == TrigPoly(-1, [0.5, 1])
    assert -g == TrigPoly(1, [-10])


def test_shift_moves_support():
    f = TrigPoly(0, [1, 2, 3])
    assert f.shift(5) == TrigPoly(5, [1, 2, 3])
    assert f.shift(-4).lo == -4


def test_restrict_zeroes_outside_window():
    f = TrigPoly(0, [1, 2, 3, 4])
    g = f.restrict(lo=1, hi=2)
    assert g == TrigPoly(1, [2, 3])
    assert g.hi == f.hi  # stored window is kept, only values are zeroed


def test_is_analytic_semantics():
    assert TrigPoly(0, [1]).is_analytic
    assert TrigPoly(-2, [0, 0, 5]).is_analytic  # negative part all zero
    assert not TrigPoly(-1, [1, 1]).is_analytic


# --- quadrature --------------------------------------------------------------


def test_quadrature_floor_formula():
    assert quadrature_floor(TrigPoly(0, [1])) == 4096
    assert quadrature_floor(TrigPoly(0, np.ones(9))) == 4608  # 512 * 9
    assert quadrature_floor(TrigPoly(-4, np.ones(9))) == 4608


def test_lp_below_floor_names_minimum():
    f = TrigPoly(0, np.ones(9))
    with pytest.raises(ValueError, match="4608"):
        lp_quasinorm(f, 1.0, 4607)


@pytest.mark.parametrize("p", [0.0, -0.5, np.nan, np.inf])
def test_lp_rejects_bad_exponent(p):
    with pytest.raises(ValueError):
        lp_quasinorm(TrigPoly(0, [1]), p)


def test_monomials_are_exact_at_any_admissible_size():
    # one FFT (4096, odd 4097) or folded into 128 rows (2^20)
    for k in (-3, 0, 5):
        f = TrigPoly(k, [2.0])
        for n in (4096, 4097, 2**20):
            for p in (0.3, 1.0, 2.0):
                assert lp_quasinorm(f, p, n) == pytest.approx(2.0, abs=1e-14)


def test_lp_matches_direct_summation():
    gen = SplitMix64(derive_seed("trig", "lp-direct"))
    for _ in range(10):
        f = rand_poly(gen, max_span=8)
        n = quadrature_floor(f)
        for p in (0.5, 1.0, 2.0):
            assert lp_quasinorm(f, p, n) == pytest.approx(direct_lp(f, p, n), rel=1e-10)


def _folded_oracle_cases():
    # stored span 2^k gives N = 2^(k+9): one FFT up to k = 4, folded from k = 5
    levels = ((3, 3), (4, 4), (4, 3), (5, 5), (5, 4), (8, 8), (8, 6))
    cases = [(apply_window(dirichlet_plus(2**k + 1), n), None) for k, n in levels]
    cases.append((fejer(40), None))  # odd span
    gen = SplitMix64(derive_seed("trig", "folded-band"))
    cases.append((TrigPoly(33, gen.complex_normal(64)), None))
    padded = apply_window(dirichlet_plus(2**5 + 1), 5)
    cases += [(padded, quadrature_floor(padded) + 1), (padded, 2 * quadrature_floor(padded))]
    return cases


@pytest.mark.parametrize("block", [None, 3 * 2**13])
def test_folded_lp_matches_direct_summation(block, monkeypatch):
    if block is not None:  # several blocks per call, the last one partial
        monkeypatch.setattr(trigpoly, "_BLOCK_SAMPLES", block)
    for f, n in _folded_oracle_cases():
        n = quadrature_floor(f) if n is None else n
        for p in (0.5, 1.0, 2.0):
            assert lp_quasinorm(f, p, n) == pytest.approx(direct_lp(f, p, n), rel=1e-10)


def test_folded_lp_memory_is_bounded():
    f = apply_window(dirichlet_plus(2**14 + 1), 14)  # N = 2^23: 134 MB as one complex array
    tracemalloc.start()
    try:
        lp_quasinorm(f, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


def test_lp_shift_invariant():
    gen = SplitMix64(derive_seed("trig", "shift"))
    f = rand_poly(gen)
    for m in (-7, 3, 40):
        assert lp_quasinorm(f.shift(m), 0.7) == pytest.approx(lp_quasinorm(f, 0.7), rel=1e-12)


def test_parseval_at_p_two():
    gen = SplitMix64(derive_seed("trig", "parseval"))
    for _ in range(60):
        f = rand_poly(gen)
        l2 = np.sqrt(np.sum(np.abs(f.coeffs) ** 2))
        assert lp_quasinorm(f, 2.0) == pytest.approx(l2, rel=1e-10)


def test_dirichlet_two_l1_is_4_over_pi():
    assert lp_quasinorm(dirichlet_plus(2), 1.0) == pytest.approx(4.0 / np.pi, rel=1e-7)


def test_endpoint_coefficient_corpus():
    violations, count, worst = endpoint_coefficient_corpus()
    assert count >= 200
    assert not violations, violations[:5]
    assert worst <= 1.0 + 1e-6


def test_dirichlet_family_lp_anchor_ladder():
    """The production quadrature of D_n at the default floor agrees with the
    closed-form magnitude |sin(nt/2)/sin(t/2)| summed on the same grid, and
    never falls below |D_n(0)| = 1 (|f|^p is subharmonic for analytic f)."""
    for p in (0.5, 0.75):
        for n in (2, 3, 17, 129, 512, 513, 1024, 2048):
            got = lp_quasinorm(dirichlet_plus(n), p)
            assert got == pytest.approx(dirichlet_lp_closed_form(n, p, max(4096, 512 * n)), rel=1e-9)
            assert got >= 1.0


def test_quadrature_doubling_on_experiment_kernels():
    family = [
        (dirichlet_plus(17), (0.5, 1.0)),
        (dirichlet_plus(257), (0.5, 2.0 / 3.0)),
        (dirichlet_plus(513), (0.5,)),
        (fejer(128), (1.0, 0.5)),
        (riesz_plus(fejer(128)), (1.0,)),
        (bump_poly(64), (0.5,)),
        (bump_poly(256), (0.5,)),
        (riesz_plus(bump_poly(64)), (0.5,)),
        (apply_window(dirichlet_plus(257), 7), (0.5,)),
    ]
    gen = SplitMix64(derive_seed("trig", "doubling-band"))
    family.append((TrigPoly(65, gen.complex_normal(127)), (0.5,)))
    for f, ps in family:
        n0 = quadrature_floor(f)
        for p in ps:
            a = lp_quasinorm(f, p, n0)
            b = lp_quasinorm(f, p, 2 * n0)
            assert abs(a - b) / b < 1e-4


# --- Riesz projections -------------------------------------------------------


def test_riesz_split_is_exact():
    gen = SplitMix64(derive_seed("trig", "riesz"))
    for _ in range(20):
        f = rand_poly(gen)
        plus = riesz_plus(f)
        assert plus.is_analytic
        assert plus == f.restrict(lo=0)
        assert plus + f.restrict(hi=-1) == f


def test_riesz_edge_cases():
    f = TrigPoly(2, [1, 2])  # already analytic
    assert riesz_plus(f) is f
    g = TrigPoly(-3, [1, 2])  # entirely anti-analytic
    assert riesz_plus(g).is_zero
    h = TrigPoly(-1, [5, 7])
    assert riesz_plus(h) == TrigPoly(0, [7])
