import tracemalloc

import numpy as np
import pytest

from corpora import endpoint_coefficient_corpus
from oracles import dirichlet_lp_closed_form, direct_lp, longdouble_lp
import tritrunc.trigpoly as trigpoly
from tritrunc.hankel import hankel_matrix
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
    assert f.coefficients_on(0, 0)[0] == 3
    assert f.coefficients_on(99, 99)[0] == 0
    assert f.coefficients_on(-2, -2)[0] == 1


def test_coefficients_on_pads_with_zeros():
    f = TrigPoly(1, [2, 4])
    assert np.array_equal(f.coefficients_on(-1, 4), [0, 0, 2, 4, 0, 0])
    with pytest.raises(ValueError):
        f.coefficients_on(3, 1)


def test_storage_is_real_unless_an_imaginary_part_is_nonzero():
    # the symbol's kind is decided once, at construction
    for coeffs in ([1, 2 + 0j], [1, 2], [0.5, complex(-1.0, -0.0)]):
        assert TrigPoly(0, coeffs).coeffs.dtype == np.float64
    for coeffs in ([1, 2 + 1j], [0.0, complex(0.0, 1e-300)]):
        assert TrigPoly(0, coeffs).coeffs.dtype == np.complex128


def test_coefficients_on_keeps_the_storage_dtype():
    for f, dtype in ((TrigPoly(1, [2.0, 4.0]), np.float64), (TrigPoly(1, [2.0, 4j]), np.complex128)):
        for lo, hi in ((-1, 4), (1, 2), (7, 9)):  # padded, exact, all padding
            assert f.coefficients_on(lo, hi).dtype == dtype


def test_repr_names_the_window_and_the_nonzero_count():
    assert repr(TrigPoly(-1, [0.0, 2.0, 0.0])) == "TrigPoly(lo=-1, hi=1, nnz=1)"


POLY = TrigPoly(-2, [1.0, 2.0, 3.0, 4.0])

# entry point -> (its output with the integer argument n, a value n may take)
INTEGER_ARGUMENTS = {
    "TrigPoly lo": (lambda n: TrigPoly(n, [1.0, 2.0]).coefficients_on(-4, 4), -1),
    "coefficients_on lo": (lambda n: POLY.coefficients_on(n, 3), -3),
    "coefficients_on hi": (lambda n: POLY.coefficients_on(-3, n), 3),
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
    # a non-finite real or imaginary part, nan or infinite, is rejected
    for bad in (np.nan, -np.inf, complex(1.0, np.inf), complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            TrigPoly(0, [1.0, bad])
    with pytest.raises(ValueError):
        TrigPoly(0, [[1.0, 2.0]])


def test_coeffs_are_frozen():
    f = TrigPoly(0, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 9.0


def test_is_analytic_semantics():
    # the Hankel matrix takes a polynomial whose negative-index coefficients all vanish
    hankel_matrix(TrigPoly(0, [1]))
    hankel_matrix(TrigPoly(-2, [0, 0, 5]))  # negative part all zero
    for f in (TrigPoly(-1, [1, 1]), TrigPoly(-2, [0, 1, 5])):
        with pytest.raises(ValueError, match="requires an analytic polynomial"):
            hankel_matrix(f)


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


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_lp_power_sum_outside_the_double_range_raises(scale):
    # |f|^400 underflows to 0 at |f| ~ 1e-3 and overflows to inf at ~ 1e3; the zero polynomial stays 0
    with pytest.raises(OverflowError, match=r"power sum at p=400 leaves the double range"):
        lp_quasinorm(TrigPoly(0, [scale, scale]), 400)
    assert lp_quasinorm(TrigPoly(0, [0.0, 0.0]), 400) == 0.0


def test_lp_root_that_underflows_raises():
    # the mean power sum of bump_poly(1024) at p = 1e-10 is a double below 1, and its 1e10-th power is 0
    with pytest.raises(OverflowError, match=r"1/p-th power of the power sum at p=1e-10 leaves the double range"):
        lp_quasinorm(bump_poly(1024), 1e-10)


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
    # a level piece's floor is 512 x its nonzero span: folded into rows of
    # M >= max(2^13, span) where that is at least 2 * 2^13; below it, one FFT
    # of M = N for complex input and odd N, and of M = N/2 (the mirrored half)
    # for real input at even N, such as N = 4096 and 8192
    levels = ((3, 3), (4, 4), (4, 3), (5, 5), (5, 4), (8, 8), (8, 6))
    cases = [(apply_window(dirichlet_plus(2**k + 1), n), None) for k, n in levels]
    cases.append((fejer(40), None))  # odd span
    gen = SplitMix64(derive_seed("trig", "folded-band"))
    cases.append((TrigPoly(33, gen.complex_normal(64)), None))
    cases.append((TrigPoly(-3, gen.complex_normal(8)), None))  # complex, one FFT of N = 4096
    # the level-5 piece of D(33) stored with zero padding on 1..32
    padded = TrigPoly(1, apply_window(dirichlet_plus(2**5 + 1), 5).coefficients_on(1, 32))
    cases += [(padded, quadrature_floor(padded) + 1), (padded, 2 * quadrature_floor(padded))]
    return cases


def test_folded_oracle_cases_include_folded_grids(monkeypatch):
    lengths = []
    ifft = np.fft.ifft

    def spy(a, n=None, **kwargs):
        lengths.append(n)
        return ifft(a, n=n, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    folds = []
    for f, n in _folded_oracle_cases():
        n = quadrature_floor(f) if n is None else n
        lengths.clear()
        lp_quasinorm(f, 1.0, n)
        folds.append(n // lengths[0])
    assert sum(fold >= 2 for fold in folds) >= 3, folds
    assert 1 in folds, folds


def test_real_coefficients_transform_half_the_grid(monkeypatch):
    # for real c, |f| at node N-1-k equals |f| at node k: at even N only N/2
    # samples are transformed; complex coefficients and odd N keep all N
    samples = []
    ifft = np.fft.ifft

    def spy(a, n=None, **kwargs):
        samples.append(a.shape[0] * n)
        return ifft(a, n=n, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    grids = []
    for f, n in _folded_oracle_cases():
        n = quadrature_floor(f) if n is None else n
        real = not np.any(f.coeffs.imag)
        samples.clear()
        lp_quasinorm(f, 1.0, n)
        assert sum(samples) == (n // 2 if real and n % 2 == 0 else n), (f, n)
        grids.append((real, n))
    # real at N = 4096 and 8192 (formerly one unfolded FFT) and at odd N; complex
    assert {4096, 8192} <= {n for real, n in grids if real}, grids
    assert any(real and n % 2 for real, n in grids), grids
    assert not all(real for real, _ in grids), grids


@pytest.mark.parametrize(
    "f, n, length, rows",
    [
        (TrigPoly(0, [1.0, 2.0]), 4096, 2048, 1),
        (TrigPoly(0, [1.0, 2.0]), 8192, 4096, 1),
        (TrigPoly(0, [1.0, 2.0]), 16384, 8192, 1),
        (TrigPoly(0, [1.0, 2.0]), 4097, 4097, 1),
        (TrigPoly(0, [1.0, 2j]), 4096, 4096, 1),
        (TrigPoly(0, [1.0, 2j]), 16384, 8192, 2),
        (TrigPoly(1, np.ones(1499)), 767488, 11992, 32),
        (TrigPoly(1, np.full(1499, 1j)), 767488, 11992, 64),
    ],
    ids=["real-4096", "real-8192", "real-16384", "real-odd", "complex-4096", "complex-16384", "real-floor", "complex-floor"],
)
def test_row_length_rule_pins_the_transform_length_and_row_count(f, n, length, rows, monkeypatch):
    # a mirrored (real, even N) sum folds from N/2, every other sum from N; the row
    # length halves while it stays even and its half holds max(span, 2^13)
    calls = []
    ifft = np.fft.ifft

    def spy(a, n=None, **kwargs):
        calls.append((n, a.shape[0]))
        return ifft(a, n=n, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    lp_quasinorm(f, 0.5, n)
    assert calls[0][0] == length, calls
    assert sum(r for _, r in calls) == rows, calls


@pytest.mark.parametrize("block", [None, 3 * 2**13])
def test_folded_lp_matches_direct_summation(block, monkeypatch):
    if block is not None:  # several blocks per call, the last one partial
        monkeypatch.setattr(trigpoly, "_BLOCK_SAMPLES", block)
    for f, n in _folded_oracle_cases():
        n = quadrature_floor(f) if n is None else n
        for p in (0.5, 1.0, 2.0):
            assert lp_quasinorm(f, p, n) == pytest.approx(direct_lp(f, p, n), rel=1e-10)


@pytest.mark.parametrize("p", [0.5, 2 / 3, 1.0, 2.0])
def test_chunked_rows_change_no_bit(p, monkeypatch):
    # at 8x each grid a block holds up to 32 rows of 8192; chunks of 3 rows
    # split it into 11 transforms, the last of 2 rows, and must give the bits
    # of the same block transformed in one piece.  Then blocks of 3 rows of
    # 8192, several a call and the last one partial, split into chunks of one
    # row: the rows rebuilt for every later block must give the same bits too
    rows = []
    ifft = np.fft.ifft

    def spy(a, n=None, **kwargs):
        rows.append(a.shape[0])
        return ifft(a, n=n, **kwargs)

    def lp_by_chunk(chunk):
        monkeypatch.setattr(trigpoly, "_CHUNK_SAMPLES", chunk)
        values, transforms = [], []
        for f, n in _folded_oracle_cases():
            rows.clear()
            values.append(lp_quasinorm(f, p, 8 * (quadrature_floor(f) if n is None else n)))
            transforms.append(list(rows))
        return values, transforms

    monkeypatch.setattr(np.fft, "ifft", spy)
    whole, whole_rows = lp_by_chunk(trigpoly._BLOCK_SAMPLES)
    chunked, chunked_rows = lp_by_chunk(3 * 2**13)
    assert chunked == whole
    assert all(len(r) == 1 for r in whole_rows), whole_rows
    assert any(len(r) >= 3 and r[-1] < r[0] for r in chunked_rows), chunked_rows

    monkeypatch.setattr(trigpoly, "_BLOCK_SAMPLES", 3 * 2**13)
    whole, whole_rows = lp_by_chunk(trigpoly._BLOCK_SAMPLES)
    chunked, chunked_rows = lp_by_chunk(2**13)
    assert chunked == whole
    assert any(len(r) >= 3 and r[-1] < r[0] for r in whole_rows), whole_rows
    assert any(len(c) > len(w) >= 3 for c, w in zip(chunked_rows, whole_rows)), chunked_rows


def test_folded_lp_memory_is_bounded():
    # one float64 block of 2^18 samples, plus one chunk of table rows (at most
    # 2^16 complex samples) and its transform: measured 4.58 MB and 4.32 MB
    # (2^23 samples are 134 MB as one complex array; the level-13 piece's
    # default grid, 6,138,368 samples, is the largest the benchmark sums)
    d = dirichlet_plus(2**14 + 1)
    for f, n in ((apply_window(d, 14), 2**23), (apply_window(d, 13), None)):
        tracemalloc.start()
        try:
            lp_quasinorm(f, 0.5, n_samples=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6, (f, n, peak)


@pytest.mark.parametrize(
    "k, level, bound",
    [
        (10, 9, 1.7e-10),  # measured 1.50e-10 (N = 383488 = 2^9 * 7 * 107)
        (12, 11, 1.7e-6),  # measured 1.40e-6 (N = 1534976 = 2^10 * 1499)
    ],
)
def test_lp_rounding_floor_against_long_double(k, level, bound):
    # the same N-point midpoint sum in long double: what separates the two is
    # float64 rounding, summed through |.|^p where the piece is near 0
    f = apply_window(dirichlet_plus(2**k + 1), level)
    n = quadrature_floor(f)
    exact = longdouble_lp(f, 0.5, n)
    assert abs(lp_quasinorm(f, 0.5) - exact) / exact <= bound


def test_lp_shift_invariant():
    gen = SplitMix64(derive_seed("trig", "shift"))
    f = rand_poly(gen)
    for m in (-7, 3, 40):
        assert lp_quasinorm(TrigPoly(f.lo + m, f.coeffs), 0.7) == pytest.approx(lp_quasinorm(f, 0.7), rel=1e-12)


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
        assert not plus.coefficients_on(min(plus.lo, -1), -1).any()
        lo, hi = min(f.lo, 0), max(f.hi, 0)
        js, whole = np.arange(lo, hi + 1), f.coefficients_on(lo, hi)
        assert np.array_equal(plus.coefficients_on(lo, hi), np.where(js >= 0, whole, 0))
        assert np.array_equal(plus.coefficients_on(lo, hi) + np.where(js < 0, whole, 0), whole)


def test_riesz_edge_cases():
    f = TrigPoly(2, [1, 2])  # already analytic
    assert riesz_plus(f) is f
    g = TrigPoly(-3, [1, 2])  # entirely anti-analytic
    assert not riesz_plus(g).coeffs.any()
    h = riesz_plus(TrigPoly(-1, [5, 7]))
    assert (h.lo, h.coeffs.tolist()) == (0, [7])


def test_riesz_plus_of_a_complex_anti_analytic_symbol_is_a_real_zero():
    # the analytic window of a symbol stored on negative indices alone is one zero, kept real
    h = riesz_plus(TrigPoly(-(10**12), [1j, 2.0]))
    assert (h.lo, h.coeffs.dtype, h.coeffs.tolist()) == (0, np.float64, [0.0])
    # a complex symbol whose analytic part is real stores that part real
    g = riesz_plus(TrigPoly(-1, [1j, 3.0, 4.0]))
    assert (g.lo, g.coeffs.dtype, g.coeffs.tolist()) == (0, np.float64, [3.0, 4.0])
