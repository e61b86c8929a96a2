"""Schur-multiplier bounds via witnesses.

The multiplier quasinorm of a matrix A — the supremum of ||A * B|| / ||B||
over nonzero B, with * the entrywise product — is never computed exactly
(for p < 1 the supremum is a nonconvex optimization).  Everything here
produces intervals: any witness B gives a lower bound, and Hankel multipliers
the paper's analytic upper bound (hankel_multiplier_upper, E2's), up to its L^p
quadrature error (measured at most 3e-5 at p = 1/2); ``tritrunc
multiplier-bound`` prints the sharper closed-form ceiling
matrices.mask_multiplier_ceiling instead.  The witness layer is the mask
Delta_n's alone: witness_ratio takes a rank-one witness u v^* on it in
factored form, and random_witness_search accepts no other multiplier.  Their
spectra come from one kernel,
matrices._triu_outer_spectrum: one call of LAPACK's dqds routine on a
bidiagonal inverse, each singular value to relative error O(n eps) (numpy's
SVD of that inverse where the routine's symbol does not resolve), or, for a
pair that inverse cannot serve, the dense SVD of the pair's nonzero block, up
to its rounding floor.  The search draws its factor rows in blocks of at most
2^16 doubles and reports each draw through witness_ratio, one kernel call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hankel import _require_analytic, hankel_matrix
from .kernels import bump_poly
from .matrices import (_as_matrix, _check_p, _check_size, _schatten_from_spectrum, _triu_outer_spectrum,
                       delta_matrix, schatten_quasinorm)
from .rng import SplitMix64, derive_seed
from .trigpoly import TrigPoly, lp_quasinorm

__all__ = [
    "WitnessReport",
    "witness_ratio",
    "delta_lower_bound",
    "hankel_multiplier_upper",
    "random_witness_search",
]

_BLOCK_DOUBLES = 2**16  # most doubles (512 KiB) of factor rows per block of draws in random_witness_search


@dataclass(frozen=True)
class WitnessReport:
    """One lower-bound evaluation ||a * b|| / ||b|| <= ||a||_mult, up to the SVD rounding floor
    (to relative error O(n eps) on the mask Delta_n)."""

    numerator: float
    denominator: float

    @property
    def ratio(self):
        return self.numerator / self.denominator


def witness_ratio(u, v, p):
    """Evaluate the rank-one witness u v^* against the mask Delta_n, n = len(u) = len(v), at exponent p.

    The witness is evaluated in factored form.  Its denominator is ||u|| ||v||
    for every p, with no spectrum.  Its numerator is the S_p quasinorm of
    Delta_n * u v^* = D_u Delta_n D_v^*; the unitary phases of the diagonals drop
    out, so it is that of the real |u| Delta_n |v|^T, which is triu(|u| (J|v|)^T),
    J the reversal, with its columns reversed.  Its spectrum comes from one
    matrices._triu_outer_spectrum call with no dense |u| Delta_n |v|^T: one dqds
    call on the bidiagonal inverse (numpy's SVD of it where no dqds symbol
    resolves), to relative error O(n eps), or up to the SVD rounding floor for a
    pair that inverse cannot serve (a zero entry, say).  A
    pair whose ||u|| ||v|| overflows or underflows the double range raises
    ValueError, as does a non-finite entry of either factor.
    """
    p = _check_p(p)
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or v.ndim != 1 or u.size != v.size:
        raise ValueError(f"dimension mismatch: witness factors {u.shape} and {v.shape}, not two vectors of one length")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        denominator = float(np.linalg.norm(u) * np.linalg.norm(v))
    if not (math.isfinite(denominator) and denominator > 0):
        if not (np.any(u) and np.any(v)):  # a zero factor gives 0, or nan against an infinite one
            raise ValueError("zero witness")
        raise ValueError(f"witness norm ||u|| ||v|| is {denominator}, not finite and positive")
    spectrum = _triu_outer_spectrum(np.abs(u), np.abs(v)[::-1])
    return WitnessReport(_schatten_from_spectrum(spectrum, p), denominator)


def delta_lower_bound(k, p):
    """Constructive lower-bound report for the size-(2^k + 1) anti-triangular mask.

    The witness Gamma is the Hankel matrix, of size 3 * 2^{k-1}, of the bump
    sample p_k of width 2^{k-1} recentred at 2^k: its support sits strictly
    inside the dyadic band (2^{k-1}, 2^{k+1}), with the bump's peak 1 at 2^k.
    The 0/1 Hankel mask Delta_n, n = 2^k + 1, keeps exactly the coefficients
    with index <= 2^k: Delta_n * Gamma is, on its n x n block, the Hankel matrix
    of p_k truncated at index n - 1, whose S_p quasinorm over Gamma's is the
    report.  Its ratio grows like 2^{k(1/p - 1)} with an absolute prefactor that
    E2, its one caller, fits empirically.  ``tritrunc multiplier-bound`` skips it:
    its all-ones witness scores at least 1.2 times as much (measured at k = 1..10, p in [0.05, 1]).
    """
    k = _check_size(k, "k")
    bump = bump_poly(2 ** (k - 1))
    p_k = TrigPoly(bump.lo + 2**k, bump.coeffs)
    kept = TrigPoly(p_k.lo, p_k.coefficients_on(p_k.lo, 2**k))
    return WitnessReport(schatten_quasinorm(hankel_matrix(kept), p), schatten_quasinorm(hankel_matrix(p_k), p))


def hankel_multiplier_upper(f, p):
    """Analytic multiplier upper bound (2m)^{1/p-1} ||phi||_{L^p}, m = f.hi + 1: the paper's Hankel-route
    bound, which E2 reports (``tritrunc multiplier-bound`` prints matrices.mask_multiplier_ceiling).

    m is one past the stored top index, so stored trailing zeros count:
    TrigPoly(0, [1.0, 0.0, 0.0]) has m = 3, not deg + 1 = 1.  At p <= 1 the
    factor grows with m, so a larger m only loosens the bound.

    Valid for p <= 1 and any analytic polynomial phi; every witness ratio
    against the Hankel matrix of phi stays below it, up to the L^p factor's
    quadrature error.  A bound beyond the double range raises OverflowError naming p.
    """
    p = _check_p(p, 1.0)
    _require_analytic(f, "hankel_multiplier_upper")
    with np.errstate(over="ignore"):
        upper = float(np.float64(2.0 * (f.hi + 1)) ** (1.0 / p - 1.0) * lp_quasinorm(f, p))
    if not math.isfinite(upper):
        raise OverflowError(f"the bound (2m)^(1/p-1) ||phi||_p at p={p} leaves the double range")
    return upper


def random_witness_search(a, p, draws, seed):
    """Best witness ratio on the mask a = Delta_n over a fixed pool and seeded rank-one draws.

    The pool is the all-ones pair (ones, ones) and the matrix unit at Delta_n's
    largest entry (0, 0), the pair (e_0, e_0), whose ratio is 1; on top of it
    come ``draws`` rank-one complex-Gaussian witnesses u v^*, each evaluated as
    the pair (u, v) at the cost of one real S_p evaluation, one dqds call (see
    witness_ratio).  The factor rows come a block of max(1, _BLOCK_DOUBLES // 4n)
    draws at a time, one stream evaluation whose rows hold at most _BLOCK_DOUBLES
    doubles, so memory stays flat in ``draws``.  ``draws = 0`` searches the pool alone.
    Equal seeds give identical reports: draw i is the i-th pair of consecutive
    complex_normal(size) calls on the "witness-search" stream.  Any multiplier other than delta_matrix(n) raises
    ValueError.  ``tritrunc multiplier-bound --budget B`` runs the search with
    B // 2 draws on the level-k mask and prints its ratio as the lower end.
    """
    a = _as_matrix(a, "multiplier")
    size = a.shape[0]
    if not np.array_equal(a, delta_matrix(size)):
        raise ValueError(f"multiplier must be the mask delta_matrix(n), got another {a.shape} matrix")
    draws = _check_size(draws, "draws", least=0)
    gen = SplitMix64(derive_seed("witness-search", _check_size(seed, "seed", least=None)))

    ones = np.ones(size)
    best = witness_ratio(ones, ones, p)
    best_ratio = best.ratio  # read again only when a witness beats it
    e_0 = np.zeros(size)
    e_0[0] = 1.0
    rep = witness_ratio(e_0, e_0, p)
    if rep.ratio > best_ratio:
        best, best_ratio = rep, rep.ratio
    block = max(1, _BLOCK_DOUBLES // (4 * size))  # a draw is two rows of n complex numbers, 4n doubles
    for start in range(0, draws, block):
        factors = gen.complex_normal_rows(2 * min(block, draws - start), size)
        for u, v in zip(factors[0::2], factors[1::2]):
            rep = witness_ratio(u, v, p)
            if rep.ratio > best_ratio:
                best, best_ratio = rep, rep.ratio
    return best
