"""Schur-multiplier bounds via witnesses.

The multiplier quasinorm of a matrix A — the supremum of ||A * B|| / ||B||
over nonzero B, with * the entrywise product — is never computed exactly
(for p < 1 the supremum is a nonconvex optimization).  Everything here
produces certified *intervals*: any witness B gives a valid lower bound,
and Hankel multipliers carry an analytic upper bound, so reports can be
sandwiched without claiming the exact value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hankel import hankel_matrix
from .kernels import bump_poly, dirichlet_plus, fejer
from .matrices import _check_p, block2x2, block_diag2, delta_matrix, schatten_quasinorm, schur_product
from .rng import SplitMix64, derive_seed
from .trigpoly import lp_quasinorm, riesz_plus

__all__ = [
    "WitnessReport",
    "witness_ratio",
    "band_witness_pair",
    "witness_embed_size",
    "delta_lower_bound",
    "hankel_multiplier_upper",
    "double_witness",
    "random_witness_search",
    "fejer_riesz_ratio",
    "dirichlet_witness_upper",
    "embed",
]


@dataclass(frozen=True)
class WitnessReport:
    """One certified lower-bound evaluation ||a * b|| / ||b|| <= ||a||_mult."""

    p: float
    multiplier: np.ndarray
    witness: np.ndarray
    numerator: float
    denominator: float

    @property
    def ratio(self):
        return self.numerator / self.denominator


def embed(a, size):
    """Zero-pad a matrix to size x size (bottom/right); spectra are unchanged."""
    a = np.asarray(a)
    size = int(size)
    if a.shape[0] > size or a.shape[1] > size:
        raise ValueError(f"cannot embed shape {a.shape} into {size}x{size}")
    out = np.zeros((size, size), dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def witness_ratio(a, b, p):
    """Evaluate the witness b against the multiplier a at exponent p."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: multiplier {a.shape} vs witness {b.shape}")
    if not np.any(b):
        raise ValueError("zero witness")
    numerator = schatten_quasinorm(schur_product(a, b), p)
    denominator = schatten_quasinorm(b, p)
    return WitnessReport(
        p=float(p), multiplier=a, witness=b, numerator=numerator, denominator=denominator
    )


def band_witness_pair(k):
    """Bump-localized analytic polynomial and its left (masked) companion.

    P_k is the bump sample of width 2^{k-1} recentred at 2^k, so its support
    sits inside [2^{k-1}, 2^{k-1} + 2^k]; R_k keeps only the coefficients with
    index <= 2^k (a Dirichlet mask).  On the Hankel side that mask *is* the
    entrywise product with the anti-triangular 0/1 matrix of size 2^k + 1,
    which is what makes the pair a constructive multiplier witness.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p_k = bump_poly(2 ** (k - 1)).shift(2**k)
    r_k = p_k.restrict(hi=2**k)
    return p_k, r_k


def witness_embed_size(k):
    """Common square size housing both the mask and the witness at level k."""
    return 2 ** (k - 1) + 2**k + 1


def delta_lower_bound(k, p):
    """Constructive lower-bound report for the size-(2^k + 1) anti-triangular mask.

    Evaluates the bump-localized Hankel witness against the 0/1 Hankel mask,
    both zero-padded to the common square size.  The resulting ratio grows
    like 2^{k(1/p - 1)} with an absolute prefactor that the scaling
    experiments fit empirically.
    """
    p_k, _ = band_witness_pair(k)
    size = witness_embed_size(k)
    mask = embed(delta_matrix(2 ** int(k) + 1), size)
    witness = embed(hankel_matrix(p_k), size)
    return witness_ratio(mask, witness, p)


def hankel_multiplier_upper(f, p):
    """Analytic multiplier upper bound (2m)^{1/p-1} ||phi||_{L^p}, m = deg + 1.

    Valid for p <= 1 and any analytic polynomial phi; every witness ratio
    against the Hankel matrix of phi must stay below it (up to quadrature
    slack in the L^p factor).
    """
    p = _check_p(p)
    if p > 1:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if not f.is_analytic:
        raise ValueError("hankel_multiplier_upper requires an analytic polynomial")
    m = f.degree + 1
    return (2.0 * m) ** (1.0 / p - 1.0) * lp_quasinorm(f, p)


def double_witness(a, b, p):
    """Witness doubling: diag(a, a) against the 2x2-of-b witness.

    The doubled report's ratio equals 2^{1/p-1} times the base ratio exactly:
    the entrywise product of diag(a, a) with [[b, b], [b, b]] is diag(a*b, a*b),
    whose quasinorm gains 2^{1/p}, while the rank-doubling witness itself only
    gains a factor 2.
    """
    base = witness_ratio(np.asarray(a), np.asarray(b), p)
    doubled = witness_ratio(block_diag2(a), block2x2(b, b, b, b), p)
    return base, doubled


def random_witness_search(a, p, draws, seed):
    """Best witness ratio over a fixed pool and seeded rank-one draws.

    The pool is the all-ones witness and the identity; on top of it come
    ``draws`` rank-one complex-Gaussian witnesses u v^*, each costing two
    S_p evaluations.  ``draws = 0`` searches the pool alone.  Equal seeds
    give identical reports.  The search knows nothing of the multiplier's
    structure: ``tritrunc multiplier-bound --budget B`` runs it with
    B // 2 draws on the padded level-k mask and prints the larger of its
    ratio and the constructive witness's (delta_lower_bound).
    """
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"multiplier must be square, got {a.shape}")
    draws = int(draws)
    if draws < 0:
        raise ValueError("draws must be >= 0")
    gen = SplitMix64(derive_seed("witness-search", int(seed)))
    size = a.shape[0]

    best = witness_ratio(a, np.ones_like(a, dtype=float), p)
    rep = witness_ratio(a, np.eye(size), p)
    if rep.ratio > best.ratio:
        best = rep
    for _ in range(draws):
        u = gen.complex_normal(size)
        v = gen.complex_normal(size)
        rep = witness_ratio(a, np.outer(u, v.conj()), p)
        if rep.ratio > best.ratio:
            best = rep
    return best


def fejer_riesz_ratio(m):
    """L^1 growth of the analytic half of the Fejér kernel.

    Returns ||analytic part of K_m||_{L^1} / ||K_m||_{L^1} by quadrature; the
    denominator is 1 up to quadrature error (the kernel is nonnegative with
    mean one), and the ratio grows logarithmically in m — the p = 1 shadow of
    the unboundedness of triangular truncation.
    """
    k_m = fejer(m)
    return lp_quasinorm(riesz_plus(k_m), 1.0) / lp_quasinorm(k_m, 1.0)


def dirichlet_witness_upper(k, p):
    """Convenience: the analytic upper bound matching delta_lower_bound(k, p)."""
    return hankel_multiplier_upper(dirichlet_plus(2 ** int(k) + 1), p)
