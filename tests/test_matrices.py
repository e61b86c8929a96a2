import ctypes
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_singular_values, normal_reference, trimmed_triu_spectrum
from corpora import p_triangle_corpus
from tritrunc import matrices
from tritrunc.hankel import hankel_matrix
from tritrunc.kernels import bump_poly, dirichlet_plus, fejer
from tritrunc.matrices import (
    _triu_outer_spectrum,
    delta_matrix,
    mask_spectrum,
    schatten_quasinorm,
    singular_values,
)
from tritrunc.multipliers import delta_lower_bound, random_witness_search
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, lp_quasinorm


def test_delta_matrix_layout():
    assert np.array_equal(delta_matrix(3), [[1, 1, 1], [1, 1, 0], [1, 0, 0]])
    assert np.array_equal(delta_matrix(2), [[1, 1], [1, 0]])


def test_delta_is_chi_columns_reversed():
    # same rows in reversed column order, hence identical singular values
    for n in (1, 2, 5, 13):
        assert np.array_equal(delta_matrix(n), np.triu(np.ones((n, n)))[:, ::-1])


def test_delta_matrix_is_a_read_only_view():
    # like a Hankel matrix, Delta_n is a view of its symbol's 2n - 1 coefficients (64 KiB at n = 4097);
    # a dense float Delta_n is 128 MiB
    tracemalloc.start()
    try:
        m = delta_matrix(4097)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
    assert m.shape == (4097, 4097) and not m.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 0.0


def test_all_ones_spectrum_is_rank_one():
    s = singular_values(np.ones((6, 6)))
    assert s[0] == pytest.approx(6.0, abs=1e-12)
    assert np.all(s[1:] < 1e-12)


@pytest.mark.parametrize("n", [0, -3])
def test_structured_sizes_must_be_positive(n):
    for builder in (delta_matrix, mask_spectrum):
        with pytest.raises(ValueError):
            builder(n)


@pytest.mark.parametrize("builder", [delta_matrix, mask_spectrum, dirichlet_plus, fejer, bump_poly])
def test_sizes_must_be_integers(builder):
    # one integer validator: no truncation of a fraction, no bool, no string; numpy integers are integers
    for bad in (2.9, 3.0, True, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            builder(bad)
    got, want = builder(np.int64(3)), builder(3)
    if isinstance(want, TrigPoly):  # a TrigPoly's == is identity: compare its window and coefficients
        got, want = (got.lo, got.coeffs), (want.lo, want.coeffs)
    np.testing.assert_equal(got, want)


def test_triangular_projection_matches_chi_mask():
    # P_n is Schur multiplication by chi_n: it zeroes the strictly lower triangle, and is idempotent
    gen = SplitMix64(derive_seed("matrices", "proj"))
    for n in (1, 2, 7):
        a = gen.complex_normal((n, n))
        projected = np.triu(np.ones((n, n))) * a
        assert np.array_equal(projected, np.triu(a))
        assert np.array_equal(np.triu(np.ones((n, n))) * projected, projected)


def test_chi2_trace_norm_is_sqrt5():
    assert schatten_quasinorm(np.triu(np.ones((2, 2))), 1.0) == pytest.approx(np.sqrt(5.0), abs=1e-10)


def test_chi2_singular_values_closed_form():
    s = singular_values(np.triu(np.ones((2, 2))))
    golden = (np.sqrt(5.0) + 1.0) / 2.0
    assert s[0] == pytest.approx(golden, abs=1e-12)
    assert s[1] == pytest.approx(golden - 1.0, abs=1e-12)


def test_zero_matrix_quasinorm_is_zero():
    assert schatten_quasinorm(np.zeros((4, 4)), 0.5) == 0.0
    assert schatten_quasinorm(np.zeros((4, 4)), 2.0) == 0.0
    assert schatten_quasinorm(np.zeros((4, 4)), 400.0) == 0.0


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_a_power_sum_outside_the_double_range_raises(scale):
    # 1e-3^400 underflows to 0 and 1e3^400 overflows to inf: neither is returned as the S_400 value
    with pytest.raises(OverflowError, match=r"power sum at p=400 leaves the double range"):
        schatten_quasinorm(scale * np.eye(3), 400)


def test_a_root_outside_the_double_range_raises():
    # the power sum 3 * 10^0.001 is finite, its 1/p-th power 3.007^1000 is not; the error names p
    with pytest.raises(OverflowError, match=r"1/p-th power of the power sum at p=0\.001 leaves the double range"):
        schatten_quasinorm(10 * np.eye(3), 0.001)


@pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 1e-12])
def test_the_root_multiplies_the_power_sum_rounding_by_one_over_p(p):
    # S_p of [[5]] and the L^p of the constant 5 both round 5^p, then take its 1/p-th power, so the value is
    # 5 to about eps/p relative (measured at most 0.48 eps/p at p = 1e-3 .. 1e-16); the bound is 2 eps/p
    values = schatten_quasinorm(np.array([[5.0]]), p), lp_quasinorm(TrigPoly(0, [5.0]), p)
    assert values[0] == values[1]
    assert abs(values[0] - 5.0) / 5.0 <= 2 * np.finfo(float).eps / p


@pytest.mark.parametrize("p", [0.0, -1.0, np.inf, np.nan, [0.5], "0.5", True, None, 1e-320, -0.0,
                               pytest.param(np.float64(np.nan), id="float64-nan"),
                               pytest.param(np.float64(5e-324), id="float64-5e-324")])
def test_schatten_rejects_bad_exponents(p):
    with pytest.raises(ValueError):
        schatten_quasinorm(np.eye(2), p)


def test_schatten_takes_any_real_exponent():
    chi2 = np.triu(np.ones((2, 2)))
    assert schatten_quasinorm(chi2, Fraction(1, 2)) == schatten_quasinorm(chi2, 0.5)


@pytest.mark.parametrize("bad", [complex(0, np.nan), complex(0, np.inf)])
def test_schatten_rejects_a_non_finite_imaginary_part(bad):
    a = np.ones((3, 3), dtype=complex)
    a[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        schatten_quasinorm(a, 0.5)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 40, 257])
def test_chi_spectrum_closed_form(n):
    s = singular_values(np.triu(np.ones((n, n))))
    ref = mask_spectrum(n)
    assert np.all(np.diff(ref) < 0)
    assert np.max(np.abs(s - ref) / ref) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 40])
def test_mask_spectrum_matches_a_40_digit_eigensolve(n):
    # the referee the LAPACK comparisons are not: delta_matrix(n) is symmetric,
    # so its singular values are its absolute eigenvalues
    with mpmath.workdps(40):
        eigs = mpmath.eigsy(mpmath.matrix(delta_matrix(n).tolist()), eigvals_only=True)
        ref = np.array(sorted((float(abs(e)) for e in eigs), reverse=True))
    assert np.max(np.abs(mask_spectrum(n) - ref) / ref) <= 4 * np.finfo(float).eps


def test_chi_and_delta_share_spectrum():
    for n in range(1, 41):
        a = singular_values(np.triu(np.ones((n, n))))
        b = singular_values(delta_matrix(n))
        assert np.max(np.abs(a - b)) <= 1e-10 * a[0]


def test_jacobi_cross_check_small_sizes():
    gen = SplitMix64(derive_seed("matrices", "jacobi"))
    for _ in range(40):
        rows = 1 + int(gen.integers(1, 12)[0])
        cols = 1 + int(gen.integers(1, 12)[0])
        a = gen.complex_normal((rows, cols))
        lapack = singular_values(a)
        jacobi = jacobi_singular_values(a)
        scale = max(lapack[0], 1e-30)
        assert np.max(np.abs(lapack - jacobi)) < 1e-8 * scale


# --- symmetric inputs (real A == A^T): the SVD, like every other input ---


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1024, 2048])
def test_mask_svd_matches_closed_form(n):
    s = singular_values(delta_matrix(n))
    ref = mask_spectrum(n)
    assert np.all(np.diff(s) <= 0)
    assert np.max(np.abs(s - ref) / ref) < 1e-12


def test_bidiagonal_kernel_at_unit_factors_is_the_mask_spectrum():
    # triu(1 1^T) is chi_n: 4 ulp for the closed form's own rounding (1.24 ulp measured against 40
    # digits), n eps for dqds, which gives each value to relative error O(n eps) (measured at most
    # 33 ulp at n <= 300 and 55 ulp at n = 1025)
    for n in [*range(1, 301), 2**9 + 1, 2**10 + 1]:
        s, ref = _triu_outer_spectrum(np.ones(n), np.ones(n)), mask_spectrum(n)
        assert np.all(np.abs(s - ref) <= 4 * np.spacing(ref) + n * np.finfo(float).eps * ref)


@pytest.mark.parametrize("n", [9, 33, 65])
def test_bidiagonal_kernel_has_relative_accuracy(n):
    # every value to 1e-13 relative against a 40-digit SVD of the exact triu(x y^T), at factor spreads
    # that put the smallest values far below the dense SVD's floor max(shape) eps sigma_1, where the
    # dense route misses 1e-13 (at spread 1e8, and already at 1e6 for n >= 33)
    gen = SplitMix64(derive_seed("triu-outer-spectrum", n))
    for spread in (1.0, 1e6, 1e8):
        x, y = (np.abs(gen.complex_normal(n)) * spread ** gen.uniform(n) for _ in range(2))
        with mpmath.workdps(40):
            exact = mpmath.matrix([[mpmath.mpf(x[i]) * y[j] if j >= i else 0 for j in range(n)] for i in range(n)])
            ref = np.array(sorted((float(s) for s in mpmath.svd_r(exact, compute_uv=False)), reverse=True))
        assert np.max(np.abs(_triu_outer_spectrum(x, y) - ref) / ref) <= 1e-13
        if spread == 1e8:
            assert np.max(np.abs(singular_values(np.triu(np.outer(x, y))) - ref) / ref) > 1e-13


def test_bidiagonal_kernel_refuses_factors_that_put_b_outside_its_range():
    # a zero entry, or entries whose B entry 1/(x_i y_i) or 1/(x_{i+1} y_i) leaves the normal range or
    # 100 decades above the rest (where LAPACK's values lose their relative accuracy), leave the bidiagonal
    # inverse for the SVD of triu(x y^T) with its zero rows and columns dropped, then exact zeros, bit for
    # bit; a non-finite factor entry reaches that SVD and is rejected there
    def ones_but(i, value):
        f = np.ones(5)
        f[i] = value
        return f

    pairs = [(ones_but(2, 0.0), np.ones(5)),  # a zero row: one exact zero value
             (ones_but(0, 1e-170), ones_but(0, 1e-170)),  # the diagonal overflows
             (ones_but(1, 1e-170), ones_but(0, 1e-170)),  # the superdiagonal overflows
             (ones_but(0, 1e154), ones_but(0, 1e154)),  # the diagonal underflows
             (ones_but(2, 1e-160), np.ones(5)),  # one entry 1e160 above the others
             (np.zeros(5), np.ones(5)),  # no nonzero entry: five exact zeros
             # B's entries are 1 and 10, but its least singular value, 1 / ||triu(x y^T)|| ~ 1e-308, underflows
             # to 0, so its reciprocal is no value: the kernel divides by no zero and takes the dense route
             (10.0 ** -np.arange(309.0), 10.0 ** np.arange(309.0))]
    for x, y in pairs:
        assert np.array_equal(_triu_outer_spectrum(x, y), trimmed_triu_spectrum(x, y))
    assert np.count_nonzero(_triu_outer_spectrum(*pairs[0])) == 4
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite entries"):
            _triu_outer_spectrum(ones_but(2, bad), np.ones(5))
    x = ones_but(2, 1e-90)
    b = np.diag(1.0 / x) - np.diag(1.0 / x[1:], 1)
    assert np.array_equal(_triu_outer_spectrum(x, np.ones(5)), 1.0 / singular_values(b)[::-1])


def test_bidiagonal_kernel_ignores_the_signs_of_b():
    # the kernel's B is the entrywise absolute value of the inverse D_{1/y} (I - N) D_{1/x}; that inverse,
    # and S |B| S' for any diagonal signs S, S', give the same reversed reciprocal spectrum bit for bit
    gen = SplitMix64(derive_seed("triu-outer-spectrum", "signs"))
    for n in [*range(1, 70), 129, 257]:
        for x, y in [(np.ones(n), np.ones(n)), (np.abs(gen.complex_normal(n)), np.abs(gen.complex_normal(n)))]:
            rx, ry = 1.0 / x, 1.0 / y
            diagonal, superdiagonal = np.diag(rx * ry), np.diag(rx[1:] * ry[:-1], 1)
            s, t = (np.where(gen.uniform(n) < 0.5, -1.0, 1.0) for _ in range(2))
            for b in (diagonal - superdiagonal, s[:, None] * (diagonal + superdiagonal) * t):
                want = 1.0 / np.linalg.svd(b, compute_uv=False)[::-1]
                assert np.array_equal(_triu_outer_spectrum(x, y), want), n


def _stacked_factors(n, rows):
    """Gaussian factor rows (rows, n) from derive_seed("triu-outer-spectrum", "stack", n).  Row 1 has a zero entry, and
    at n >= 2 row 2 has one entry 1e160 below the rest (its B entry 1e160 above): both unfit for the bidiagonal inverse."""
    gen = SplitMix64(derive_seed("triu-outer-spectrum", "stack", n))
    x, y = np.abs(gen.complex_normal_rows(2 * rows, n)).reshape(2, rows, n)
    x[1, n // 2] = 0.0
    x[2, 0] *= 1e-160
    return x, y


@pytest.mark.parametrize("n", [1, 2, 7, 9, 65, 129])
def test_stacked_kernel_is_the_row_by_row_kernel(n):
    # the kernel takes one pair; over the rows of a bulk draw, passed as the search passes them (a row of the
    # block, a reversed view), each pair gets the bits of a fresh contiguous copy of that pair, the rows that
    # leave the bidiagonal inverse for the dense fallback included
    x, y = _stacked_factors(n, 40)
    for i in range(40):
        got = _triu_outer_spectrum(x[i], y[i, ::-1])
        assert np.array_equal(got, _triu_outer_spectrum(x[i].copy(), y[i, ::-1].copy()))
        if i in ((1, 2) if n > 1 else (1,)):
            assert np.array_equal(got, trimmed_triu_spectrum(x[i], y[i, ::-1]))


def _counted_dlasq1(monkeypatch):
    """Count the kernel's dlasq1 calls: the list of each call's n."""
    dlasq1, integer = matrices._DLASQ1
    calls = []

    def counted(n, *args):
        calls.append(n.value)
        return dlasq1(n, *args)

    monkeypatch.setattr(matrices, "_DLASQ1", (counted, integer))
    return calls


_NO_DLASQ1 = pytest.mark.skipif(matrices._DLASQ1 is None, reason="no dlasq1 symbol: the kernel takes numpy's SVD of B")


def _scipy_openblas64():
    """numpy's LAPACK is scipy-openblas with 64-bit integers, the build numpy's wheels ship."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):  # numpy < 1.25, or no LAPACK entry
        return False
    return lapack.get("name") == "scipy-openblas" and "USE64BITINT" in lapack.get("openblas configuration", "")


@pytest.mark.skipif(not _scipy_openblas64(), reason="numpy's LAPACK is not the 64-bit scipy-openblas")
def test_dlasq1_resolves_on_scipy_openblas():
    # so the kernel's fit pairs take dqds, and the tests of that route run it rather than the dense-SVD fallback
    assert matrices._DLASQ1 is not None, "no dlasq1 symbol resolves"
    dlasq1, integer = matrices._DLASQ1
    assert dlasq1.__name__ == "scipy_dlasq1_64_" and integer is ctypes.c_int64


@_NO_DLASQ1
@pytest.mark.parametrize("n", [2, 9, 65, 129])
def test_stacked_kernel_bounds_each_lapack_input(monkeypatch, n):
    # each fit pair is one dlasq1 call on its 2n - 1 band entries and reaches no np.linalg.svd: the search's
    # 40 draws and its all-ones pair make 41 such calls, and the matrix unit's dense 1 x 1 block is the one SVD
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    calls = _counted_dlasq1(monkeypatch)
    random_witness_search(delta_matrix(n), 0.5, 40, 1701)
    assert calls == [n] * 41
    assert shapes == [(1, 1)]


@_NO_DLASQ1
def test_both_bidiagonal_routes_give_the_same_bits(monkeypatch):
    # where no dlasq1 symbol resolves, the kernel takes numpy's SVD of the dense B: bit for bit the dqds
    # route on Gaussian pairs; at x = y = 1 both routes give mask_spectrum(n) within the tolerance of
    # test_bidiagonal_kernel_at_unit_factors_is_the_mask_spectrum
    gen = SplitMix64(derive_seed("triu-outer-spectrum", "routes"))
    pairs = [np.abs(gen.complex_normal_rows(2, n)) for n in (1, 2, 3, 9, 65, 129, 257) for _ in range(3)]
    units = [np.ones(n) for n in (1, 2, 3, 9, 65, 129, 257, 513, 1025)]
    dqds = [_triu_outer_spectrum(x, y) for x, y in pairs] + [_triu_outer_spectrum(x, x) for x in units]
    calls = _counted_dlasq1(monkeypatch)
    monkeypatch.setattr(matrices, "_DLASQ1", None)
    dense = [_triu_outer_spectrum(x, y) for x, y in pairs] + [_triu_outer_spectrum(x, x) for x in units]
    assert calls == []
    for got, want in zip(dense, dqds):
        assert np.array_equal(got, want)
    for x, s in zip(units, dense[len(pairs):]):
        ref = mask_spectrum(x.size)
        assert np.all(np.abs(s - ref) <= 4 * np.spacing(ref) + x.size * np.finfo(float).eps * ref)


# factor entries from zero and the subnormals up to 1e150, so that every product x_i y_j is finite
_TRIU_FACTOR = st.one_of(st.floats(0.0, 1e150), st.sampled_from([0.0, 5e-324, 1e-170, 1e-90, 1.0, 1e150]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TRIU_FACTOR, _TRIU_FACTOR), min_size=1, max_size=12))
def test_triu_outer_spectrum_gives_n_nonincreasing_values(pairs):
    # every finite pair x, y >= 0 of length n, one the bidiagonal inverse refuses included, gets n finite
    # values >= 0, nonincreasing, so no caller needs a second route
    x, y = np.array(pairs).T
    s = _triu_outer_spectrum(x, y)
    assert s.shape == (x.size,)
    assert np.all(np.isfinite(s)) and np.all(s >= 0) and np.all(np.diff(s) <= 0)


def test_svd_of_symmetric_indefinite_input_matches_jacobi():
    gen = SplitMix64(derive_seed("matrices", "symmetric"))
    for _ in range(40):
        n = 1 + int(gen.integers(1, 12)[0])
        g = normal_reference(gen, n * n).reshape(n, n)
        a = g + g.T
        lapack = singular_values(a)
        jacobi = jacobi_singular_values(a)
        assert np.all(np.diff(lapack) <= 0)
        assert np.max(np.abs(lapack - jacobi)) < 1e-8 * max(jacobi[0], 1e-30)


@pytest.mark.parametrize("p", [0.5, 2.0 / 3.0])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 100, 512])
def test_svd_of_the_ones_matrix_within_rounding_floor(n, p):
    # the n - 1 zero singular values come out at rounding level, at most n * eps * n
    # each, and for p < 1 they add to S_p
    eps = np.finfo(float).eps
    slack = (1.0 + (n - 1) * (n * eps) ** p) ** (1.0 / p) - 1.0 + 1e-12
    got = schatten_quasinorm(np.ones((n, n)), p)
    assert abs(got - n) <= slack * n
    assert got >= n * (1.0 - 1e-12)


def test_every_input_goes_to_the_svd():
    gen = SplitMix64(derive_seed("matrices", "routing"))
    complex_hankel = hankel_matrix(TrigPoly(0, gen.complex_normal(9)))
    real_hankel = hankel_matrix(TrigPoly(0, normal_reference(gen, 9)))
    assert np.iscomplexobj(complex_hankel) and np.array_equal(complex_hankel, complex_hankel.T)
    assert not np.iscomplexobj(real_hankel) and np.array_equal(real_hankel, real_hankel.T)
    inputs = (np.triu(np.ones((37, 37))), delta_matrix(37), np.ones((6, 6)), real_hankel, complex_hankel,
              normal_reference(gen, 15).reshape(3, 5))
    for a in inputs:
        assert np.array_equal(singular_values(a), np.linalg.svd(a, compute_uv=False))


def test_singular_values_takes_one_matrix():
    # a stack of matrices, a vector or an empty shape is refused, as is a non-finite entry
    for bad in (np.ones(3), np.ones((2, 3, 3)), np.ones((0, 3)), np.ones((2, 0))):
        with pytest.raises(ValueError, match=r"matrix must be a 2-D array with positive shape"):
            singular_values(bad)
    with pytest.raises(ValueError, match="non-finite entries"):
        singular_values(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match=r"matrix must be a 2-D array with positive shape, got shape \(2, 3, 3\)"):
        schatten_quasinorm(np.ones((2, 3, 3)), 0.5)


def test_jacobi_cross_check_structured():
    for n in (2, 5, 16):
        ref = mask_spectrum(n)
        assert np.max(np.abs(jacobi_singular_values(np.triu(np.ones((n, n)))) - ref) / ref) < 1e-10


@pytest.mark.parametrize("k", [4, 5])
def test_jacobi_referee_at_p_below_one(k):
    # E2's witness (24x24 at k = 4, 48x48 at k = 5) has columns far below its
    # Frobenius norm; a stopping test relative to ||A||_F^2 leaves them
    # unrotated, and its S_{1/2} was 1.7e-7 and 5.0e-6 off the 40-digit value
    bump = bump_poly(2 ** (k - 1))
    b = hankel_matrix(TrigPoly(bump.lo + 2**k, bump.coeffs))
    with mpmath.workdps(40):
        eigs = mpmath.eigsy(mpmath.matrix(b.tolist()), eigvals_only=True)
        ref = float(mpmath.fsum(mpmath.sqrt(abs(e)) for e in eigs) ** 2)
    got = float(np.sum(np.sqrt(jacobi_singular_values(b))) ** 2)
    assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("k", [4, 5])
def test_delta_lower_bound_ratio_matches_a_40_digit_eigensolve(k):
    # numerator and denominator matrices are real symmetric, so their singular values
    # are their absolute eigenvalues; a symmetric-eigensolver route was 2.2e-9 and
    # 6.5e-10 off here
    n = 2**k + 1
    bump = bump_poly(2 ** (k - 1))
    b = hankel_matrix(TrigPoly(bump.lo + 2**k, bump.coeffs))
    numerator = delta_matrix(n) * b[:n, :n]
    with mpmath.workdps(40):
        s_half = [
            mpmath.fsum(mpmath.sqrt(abs(e)) for e in mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True)) ** 2
            for m in (numerator, b)
        ]
        ref = float(s_half[0] / s_half[1])
    assert delta_lower_bound(k, 0.5).ratio == pytest.approx(ref, rel=1e-10, abs=0)


def test_p_triangle_corpus():
    violations, count, worst = p_triangle_corpus()
    assert count >= 200
    assert not violations, violations[:5]
    assert worst <= 1.0 + 1e-9


def test_schatten_monotone_in_p():
    gen = SplitMix64(derive_seed("matrices", "monotone"))
    for _ in range(60):
        n = 2 + int(gen.integers(1, 9)[0])
        a = gen.complex_normal((n, n))
        p = 0.05 + 0.95 * float(gen.uniform(1)[0])
        q = p + (4.0 - p) * float(gen.uniform(1)[0])
        assert schatten_quasinorm(a, q) <= schatten_quasinorm(a, p) * (1.0 + 1e-12)


def test_singular_values_permutation_invariant():
    gen = SplitMix64(derive_seed("matrices", "perm"))
    for _ in range(25):
        n = 2 + int(gen.integers(1, 10)[0])
        a = gen.complex_normal((n, n))
        pr = np.eye(n)[np.argsort(gen.uniform(n))]
        pc = np.eye(n)[np.argsort(gen.uniform(n))]
        s0 = singular_values(a)
        s1 = singular_values(pr @ a @ pc)
        assert np.max(np.abs(s0 - s1)) <= 1e-9 * max(s0[0], 1.0)


def test_singular_values_unitary_invariant():
    gen = SplitMix64(derive_seed("matrices", "unitary"))
    for _ in range(25):
        n = 2 + int(gen.integers(1, 10)[0])
        a = gen.complex_normal((n, n))
        u, _ = np.linalg.qr(gen.complex_normal((n, n)))
        v, _ = np.linalg.qr(gen.complex_normal((n, n)))
        s0 = singular_values(a)
        s1 = singular_values(u @ a @ v)
        assert np.max(np.abs(s0 - s1)) <= 1e-9 * max(s0[0], 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 8))
def test_frobenius_is_schatten_two(seed, n):
    a = SplitMix64(seed).complex_normal((n, n))
    assert schatten_quasinorm(a, 2.0) == pytest.approx(np.linalg.norm(a), rel=1e-12)
