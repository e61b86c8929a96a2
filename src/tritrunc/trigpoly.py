"""Laurent (trigonometric) polynomials on the unit circle.

A TrigPoly stores the exact coefficient window [lo, hi] with no automatic
trimming; equality is padding-insensitive.  The L^p quasinorm for
0 < p < infinity is a midpoint-shifted Riemann sum over normalized Lebesgue
measure on the circle.  Its N-point grid is fixed by the quadrature floor;
the sum over it is evaluated folded, as short inverse FFTs of the nonzero
coefficient window reduced block by block, so its memory is O(block) rather
than O(N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import _check_p, _check_size

__all__ = [
    "TrigPoly",
    "lp_quasinorm",
    "quadrature_floor",
    "riesz_plus",
]

MIN_SAMPLES = 4096
OVERSAMPLE = 512
_MIN_FFT = 2**13  # shortest folded row transform
_BLOCK_SAMPLES = 2**18  # complex samples held at once by lp_quasinorm (4 MiB)


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Finitely supported coefficient sequence: coeffs[i] multiplies z^(lo+i)."""

    lo: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
            raise ValueError("coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "lo", _check_size(self.lo, "lo", least=None))
        object.__setattr__(self, "coeffs", c)

    @property
    def hi(self):
        return self.lo + len(self.coeffs) - 1

    def coefficient(self, j):
        """The coefficient of z^j (0 outside the stored window)."""
        j = _check_size(j, "j", least=None)
        if self.lo <= j <= self.hi:
            return complex(self.coeffs[j - self.lo])
        return 0j

    def coefficients_on(self, lo, hi):
        """Coefficients on the index window lo..hi inclusive, zero-padded."""
        lo, hi = _check_size(lo, "lo", least=None), _check_size(hi, "hi", least=None)
        if hi < lo:
            raise ValueError(f"empty window {lo}..{hi}")
        out = np.zeros(hi - lo + 1, dtype=complex)
        a = max(lo, self.lo)
        b = min(hi, self.hi)
        if a <= b:
            out[a - lo : b - lo + 1] = self.coeffs[a - self.lo : b - self.lo + 1]
        return out

    @property
    def is_analytic(self):
        """True iff every coefficient with negative index vanishes."""
        if self.lo >= 0:
            return True
        cut = min(self.hi, -1)
        return not np.any(self.coeffs[: cut - self.lo + 1])

    @property
    def is_zero(self):
        return not np.any(self.coeffs)

    def shift(self, m):
        """Multiply by z^m (shift the support window)."""
        return TrigPoly(self.lo + _check_size(m, "m", least=None), self.coeffs)

    def restrict(self, lo=None, hi=None):
        """Zero all coefficients outside lo..hi (window kept as stored)."""
        lo = self.lo if lo is None else _check_size(lo, "lo", least=None)
        hi = self.hi if hi is None else _check_size(hi, "hi", least=None)
        js = np.arange(self.lo, self.hi + 1)
        c = np.where((js >= lo) & (js <= hi), self.coeffs, 0)
        return TrigPoly(self.lo, c)

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return bool(np.array_equal(self.coefficients_on(lo, hi), other.coefficients_on(lo, hi)))

    def __hash__(self):
        raise TypeError("TrigPoly is not hashable (padding-insensitive equality)")

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return TrigPoly(lo, self.coefficients_on(lo, hi) + other.coefficients_on(lo, hi))

    def __sub__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TrigPoly(self.lo, -self.coeffs)

    def __mul__(self, scalar):
        if isinstance(scalar, TrigPoly):
            return NotImplemented
        return TrigPoly(self.lo, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"TrigPoly(lo={self.lo}, hi={self.hi}, nnz={int(np.count_nonzero(self.coeffs))})"


def quadrature_floor(f):
    """Smallest admissible quadrature size for f: max(4096, 512 * span)."""
    return max(MIN_SAMPLES, OVERSAMPLE * (f.hi - f.lo + 1))


def _midpoint_power_sum(c, n, p):
    """Sum of |sum_t c_t e^{i t theta_k}|^p over theta_k = 2*pi*(k+1/2)/n.

    Four-step split n = rows * m (Bailey 1990): node k = l + rows*j has
    theta_k = pi*(2l+1)/n + 2*pi*j/m, so row l is the length-m inverse DFT of
    the twiddled coefficients c_t e^{i pi t (2l+1)/n}, which fit in m because
    m >= len(c).  Rows are transformed and reduced a block at a time.
    """
    s = c.size
    m = n
    while m % 2 == 0 and m // 2 >= max(s, _MIN_FFT):
        m //= 2
    rows = n // m
    block = min(rows, max(1, _BLOCK_SAMPLES // m))
    t = np.arange(s)
    # row l0 + r of a block: table[r, t] * c_t e^{i pi t (2 l0 + 1)/n}
    table = np.exp(2j * np.pi * (np.outer(np.arange(block), t) % n) / n)
    total = 0.0
    for l0 in range(0, rows, block):
        r = min(block, rows - l0)
        twiddled = c * np.exp(1j * np.pi * ((t * (2 * l0 + 1)) % (2 * n)) / n)
        vals = np.abs(np.fft.ifft(table[:r] * twiddled, n=m, axis=1, norm="forward"))
        total += float(np.sum(vals**p))
    return total


def lp_quasinorm(f, p, n_samples=None):
    """L^p quasinorm over normalized Lebesgue measure, 0 < p < infinity.

    Midpoint-shifted Riemann sum ((1/N) sum |f(e^{i theta_k})|^p)^(1/p) with
    theta_k = 2*pi*(k+1/2)/N; the half-sample shift keeps nodes off the
    z = 1 zeros of real-coefficient kernels.  N is n_samples, which may not
    fall below quadrature_floor(f), or else that floor.  Monomials are exact
    at any admissible grid size; other polynomials converge as N grows.
    For p < 1 the integrand has square-root cusps at the zeros of f and the
    midpoint rule converges like N^(-3/2), so oscillatory kernels need heavy
    oversampling: the default floor (512 samples per coefficient) keeps the
    doubling error of every kernel family used by the experiments below
    1e-4 relative, measured worst case ~3e-5 on long Dirichlet kernels at
    p = 1/2.

    The grid is the full N-point grid whatever the evaluation route: the
    sum is folded into inverse FFTs of length M = N/2^a >= max(2^13, nonzero
    coefficient span), or M = N when N is small or odd, and reduced block by
    block.  Memory is O(block), about 2^18 complex samples or one row of M,
    not O(N); every default floor has the factor 2^9 that allows the fold.
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
    return float((_midpoint_power_sum(c, n, p) / n) ** (1.0 / p))


def riesz_plus(f):
    """Keep the coefficients with index >= 0 (analytic part)."""
    if f.lo >= 0:
        return f
    if f.hi < 0:
        return TrigPoly(0, [0])
    return TrigPoly(0, f.coeffs[-f.lo :])

