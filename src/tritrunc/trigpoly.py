"""Laurent (trigonometric) polynomials on the unit circle.

A TrigPoly stores the exact coefficient window [lo, hi] with no automatic
trimming; == and hash are by identity (compare lo and coeffs for values).
It is stored float64 when no coefficient has a nonzero imaginary part, else
complex128, and padding, Hankel matrices and the quadrature keep that kind.
The L^p quasinorm for 0 < p < infinity is a midpoint-shifted Riemann sum on
the N-point grid fixed by the quadrature floor; it holds one 2^18-sample
real block and one chunk of at most 2^16 complex table rows with its
transform, not the grid (4.6 MB traced peak, lp_quasinorm states where).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import _check_p, _check_size, _power_sum_root

__all__ = [
    "TrigPoly",
    "lp_quasinorm",
    "quadrature_floor",
    "riesz_plus",
]

MIN_SAMPLES = 4096
OVERSAMPLE = 512
_MIN_FFT = 2**13  # shortest folded row transform (real input halves an unfolded grid below it)
_BLOCK_SAMPLES = 2**18  # samples per summed block (fixes every rounding), held as 2 MiB of float64
_CHUNK_SAMPLES = 2**16  # complex samples per chunk of table rows (1 MiB), built and dropped per transform


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Finitely supported coefficient sequence: coeffs[i] multiplies z^(lo+i)."""

    lo: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        if not np.isfinite(c).all():  # complex-aware: both parts finite
            raise ValueError("coefficients must be finite")
        c = (c if c.imag.any() else c.real).copy()
        c.setflags(write=False)
        object.__setattr__(self, "lo", _check_size(self.lo, "lo", least=None))
        object.__setattr__(self, "coeffs", c)

    @property
    def hi(self):
        return self.lo + len(self.coeffs) - 1

    def coefficients_on(self, lo, hi):
        """Coefficients on the index window lo..hi inclusive, zero-padded, in the storage dtype."""
        lo, hi = _check_size(lo, "lo", least=None), _check_size(hi, "hi", least=None)
        if hi < lo:
            raise ValueError(f"empty window {lo}..{hi}")
        out = np.zeros(hi - lo + 1, dtype=self.coeffs.dtype)
        a = max(lo, self.lo)
        b = min(hi, self.hi)
        if a <= b:
            out[a - lo : b - lo + 1] = self.coeffs[a - self.lo : b - self.lo + 1]
        return out

    def __repr__(self):
        return f"TrigPoly(lo={self.lo}, hi={self.hi}, nnz={int(np.count_nonzero(self.coeffs))})"


def quadrature_floor(f):
    """Smallest admissible quadrature size for f: max(4096, 512 * span).

    span is the stored window hi - lo + 1, zero padding included, so the
    caller's storage sizes the grid: apply_window stores each Besov level's
    piece on its nonzero coefficients alone, which sizes its grid by its band.
    """
    return max(MIN_SAMPLES, OVERSAMPLE * (f.hi - f.lo + 1))


def _midpoint_power_sum(c, n, p):
    """Sum of |sum_t c_t e^{i t theta_k}|^p over theta_k = 2*pi*(k+1/2)/n.

    Four-step split n = rows * m (Bailey 1990): node k = l + rows*j has
    theta_k = pi*(2l+1)/n + 2*pi*j/m, so row l is the length-m inverse DFT of
    the twiddled coefficients c_t e^{i pi t (2l+1)/n}, which fit in m because
    m >= len(c).  Rows are summed a block of _BLOCK_SAMPLES samples at a time,
    which fixes every rounding; a block's rows are transformed _CHUNK_SAMPLES
    at a time into one reused array, then raised to p and summed whole.  Each
    chunk's table rows e^{2 pi i j t/n} are built where they are transformed
    and dropped after, so a grid of several blocks (n/2 > 2^18 samples, only
    the large Besov levels) builds them again for each block.

    m halves while it is even and m/2 >= max(len(c), 2^13).  For real c and
    even n, f(e^{-i theta}) = conj f(e^{i theta}) and theta_{n-1-k} =
    2*pi - theta_k, so row rows-1-l is row l reversed: only the first rows/2
    rows are summed, and the sum doubled.  That needs an even row count, so
    this fold starts at m = n/2, which still holds c since n >= 2 len(c);
    every other fold starts at m = n.
    """
    s = c.size
    mirrored = n % 2 == 0 and not np.iscomplexobj(c)
    m = n // 2 if mirrored else n
    while m % 2 == 0 and m // 2 >= max(s, _MIN_FFT):
        m //= 2
    rows = n // m
    summed = rows // 2 if mirrored else rows
    block = min(summed, max(1, _BLOCK_SAMPLES // m))
    chunk = max(1, _CHUNK_SAMPLES // m)
    t = np.arange(s)
    vals = None
    total = 0.0
    for l0 in range(0, summed, block):
        r = min(block, summed - l0)
        twiddled = c * np.exp(1j * np.pi * ((t * (2 * l0 + 1)) % (2 * n)) / n)
        for r0 in range(0, r, chunk):
            r1 = min(r0 + chunk, r)
            # row l0 + j of the block: e^{2 pi i j t / n} * c_t e^{i pi t (2 l0 + 1)/n}
            table = np.exp(2j * np.pi * (np.outer(np.arange(r0, r1), t) % n) / n)
            table *= twiddled
            spectrum = np.fft.ifft(table, n=m, axis=1, norm="forward")
            del table
            if vals is None:  # after the first transform has freed its scratch, to take its place
                vals = np.empty((block, m))
            np.abs(spectrum, out=vals[r0:r1])
            del spectrum  # before the next transform allocates
        vals[:r] **= p
        total += float(np.sum(vals[:r]))
    return 2.0 * total if mirrored else total


def lp_quasinorm(f, p, n_samples=None):
    """L^p quasinorm over normalized Lebesgue measure, 0 < p < infinity.

    Midpoint-shifted Riemann sum ((1/N) sum |f(e^{i theta_k})|^p)^(1/p) with
    theta_k = 2*pi*(k+1/2)/N; the half-sample shift keeps nodes off the
    z = 1 zeros of real-coefficient kernels.  N is n_samples, which may not
    fall below quadrature_floor(f), or else that floor.  Monomials are exact
    at any admissible grid size, up to the root's rounding below; other
    polynomials converge as N grows.
    For p < 1 the integrand has square-root cusps at the zeros of f and the
    midpoint rule converges like N^(-3/2), so oscillatory kernels need heavy
    oversampling: the default floor (512 samples per coefficient) keeps the
    doubling error of every kernel family used by the experiments below
    1e-4 relative, measured worst case ~3e-5 on long Dirichlet kernels at
    p = 1/2.

    The float64 sum also carries a rounding floor that no grid removes: for
    p < 1, rounding-level noise where |f| is near 0 adds up through |.|^p.
    Against the same N-point sum in long double it measured 1.5e-10 relative
    on the level-9 window piece of D(2^10+1) and 1.4e-6 on the level-11 piece
    of D(2^12+1), both at p = 1/2 on their default grids; it depends on the
    factors of N (the latter reads 4.4e-7 at N = 2^21).  The 1/p-th root then
    multiplies the sum's relative rounding error by 1/p, about eps/p relative at
    small p: the constant 5 reads 5 to 5.9e-5 at p = 1e-12, and 1.0 at p = 1e-300.

    The grid is the full N-point grid whatever the evaluation route (folded
    into short inverse FFTs, as _midpoint_power_sum states).  It holds one
    2^18-sample float64 block and one chunk of table rows, at most 2^16
    complex samples (one folded row where longer), with its transform, not
    O(N): 4.6 MB traced peak for the level-14 piece of D(2^14+1) at
    N = 2^23.  The price is that a grid of several blocks builds its table
    rows once per block: about 0.13 s of the 0.6 s that besov of D(2^14+1)
    takes (2-core Xeon, one BLAS thread).  Every default floor has the
    factor 2^9 that allows the fold.

    The zero polynomial returns 0; for any other, a mean power sum that
    overflows to inf or underflows to 0 (|f| ~ 1e-3 at p = 400), or a 1/p-th
    power of it that does (bump_poly(1024) at p = 1e-10 underflows), raises
    OverflowError naming p, so a nonzero f never reads 0.
    """
    p = _check_p(p)
    floor = quadrature_floor(f)
    n = floor if n_samples is None else _check_size(n_samples, "n_samples")
    if n < floor:
        raise ValueError(f"n_samples={n} is below the quadrature floor; need at least {floor}")
    nz = np.flatnonzero(f.coeffs)
    if nz.size == 0:
        return 0.0
    # dropping the unimodular factor z^(lo + nz[0]) leaves |f| unchanged
    c = f.coeffs[nz[0] : nz[-1] + 1]
    with np.errstate(over="ignore"):
        total = _midpoint_power_sum(c, n, p)
    return _power_sum_root(total / n, p)


def riesz_plus(f):
    """Keep the coefficients with index >= 0 (analytic part)."""
    return f if f.lo >= 0 else TrigPoly(0, f.coefficients_on(0, max(f.hi, 0)))
