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

from .hankel import _require_analytic, hankel_matrix
from .kernels import bump_poly, dirichlet_plus, fejer
from .matrices import _check_p, _check_size, block2x2, block_diag2, delta_matrix, schatten_quasinorm, schur_product
from .rng import SplitMix64, derive_seed
from .trigpoly import lp_quasinorm, riesz_plus

__all__ = [
    "WitnessReport",
    "witness_ratio",
    "band_witness_pair",
    "delta_lower_bound",
    "hankel_multiplier_upper",
    "double_witness",
    "random_witness_search",
    "fejer_riesz_ratio",
    "dirichlet_witness_upper",
]

_DRAW_BLOCK = 256  # rank-one draws per bulk stream evaluation in random_witness_search


@dataclass(frozen=True)
class WitnessReport:
    """One certified lower-bound evaluation ||a * b|| / ||b|| <= ||a||_mult.

    The multiplier may be smaller than the witness; it is then read as zero
    outside its top-left block, which leaves its multiplier quasinorm as it is.
    """

    p: float
    multiplier: np.ndarray
    witness: np.ndarray
    numerator: float
    denominator: float

    @property
    def ratio(self):
        return self.numerator / self.denominator


def witness_ratio(a, b, p):
    """Evaluate the witness b against the multiplier a at exponent p.

    A matrix b may be larger than a: a is read as zero outside its top-left
    block, so the numerator is the S_p quasinorm of a * b[:m, :n] for an
    m x n multiplier, and the denominator is that of the whole of b.

    A tuple ``b = (u, v)`` stands for the rank-one witness u v^* and is
    evaluated in factored form.  Its denominator is ||u|| ||v|| for every p,
    with no spectrum.  Its numerator is the S_p quasinorm of a * u v^* =
    D_u a D_v^*; the unitary phases of the diagonals drop out, so it is that
    of the matrix |u| a |v|^T (real for a real a), with its zero rows and
    columns removed.  The report's witness is still the matrix u v^*.
    """
    a = np.asarray(a)
    if isinstance(b, tuple):
        return _rank_one_ratio(a, *b, p)
    b = np.asarray(b)
    if b.ndim != a.ndim or any(m > n for m, n in zip(a.shape, b.shape)):
        raise ValueError(f"dimension mismatch: multiplier {a.shape} vs witness {b.shape}")
    if not np.any(b):
        raise ValueError("zero witness")
    numerator = schatten_quasinorm(schur_product(a, b[tuple(map(slice, a.shape))]), p)
    denominator = schatten_quasinorm(b, p)
    return WitnessReport(
        p=float(p), multiplier=a, witness=b, numerator=numerator, denominator=denominator
    )


def _rank_one_ratio(a, u, v, p):
    p = _check_p(p)
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or v.ndim != 1 or a.shape != (u.size, v.size):
        raise ValueError(f"dimension mismatch: multiplier {a.shape} vs witness factors {u.shape}, {v.shape}")
    if not (np.any(u) and np.any(v)):
        raise ValueError("zero witness")
    scaled = np.abs(u)[:, None] * a * np.abs(v)
    scaled = scaled[np.ix_(scaled.any(axis=1), scaled.any(axis=0))]
    numerator = schatten_quasinorm(scaled, p) if scaled.size else 0.0
    return WitnessReport(
        p=float(p), multiplier=a, witness=np.outer(u, v.conj()), numerator=numerator,
        denominator=float(np.linalg.norm(u) * np.linalg.norm(v)),
    )


def band_witness_pair(k):
    """Bump-localized analytic polynomial and its left (masked) companion.

    P_k is the bump sample of width 2^{k-1} recentred at 2^k, so its support
    sits inside [2^{k-1}, 2^{k-1} + 2^k]; R_k keeps only the coefficients with
    index <= 2^k (a Dirichlet mask).  On the Hankel side that mask *is* the
    entrywise product with the anti-triangular 0/1 matrix of size 2^k + 1,
    which is what makes the pair a constructive multiplier witness.
    """
    k = _check_size(k, "k")
    p_k = bump_poly(2 ** (k - 1)).shift(2**k)
    r_k = p_k.restrict(hi=2**k)
    return p_k, r_k


def delta_lower_bound(k, p):
    """Constructive lower-bound report for the size-(2^k + 1) anti-triangular mask.

    Evaluates the bump-localized Hankel witness, of size 3 * 2^{k-1}, against
    the 0/1 Hankel mask Delta_n, n = 2^k + 1, at the mask's own size (see
    witness_ratio).  The resulting ratio grows like 2^{k(1/p - 1)} with an
    absolute prefactor that E2, its one caller, fits empirically.  ``tritrunc
    multiplier-bound`` skips it: its search's all-ones witness scores at least
    1.2 times as much (measured at k = 1..10, p from 0.05 to 1).
    """
    p_k, _ = band_witness_pair(k)
    return witness_ratio(delta_matrix(2**k + 1), hankel_matrix(p_k), p)


def hankel_multiplier_upper(f, p):
    """Analytic multiplier upper bound (2m)^{1/p-1} ||phi||_{L^p}, m = deg + 1.

    Valid for p <= 1 and any analytic polynomial phi; every witness ratio
    against the Hankel matrix of phi must stay below it (up to quadrature
    slack in the L^p factor).
    """
    p = _check_p(p, 1.0)
    _require_analytic(f, "hankel_multiplier_upper")
    m = f.hi + 1
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

    The pool is the all-ones witness, evaluated as the pair (ones, ones), and
    the identity; on top of it come ``draws`` rank-one complex-Gaussian
    witnesses u v^*, each evaluated as the pair (u, v) at the cost of one real
    S_p evaluation (see witness_ratio).  ``draws = 0`` searches the pool
    alone.  Equal seeds give identical reports: draw i is the i-th pair of
    consecutive complex_normal(size) calls on the "witness-search" stream.
    The search knows nothing of the multiplier's structure: ``tritrunc
    multiplier-bound --budget B`` runs it with B // 2 draws on the level-k
    mask Delta_n and prints its ratio as the lower end.
    """
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"multiplier must be square, got {a.shape}")
    draws = _check_size(draws, "draws", least=0)
    gen = SplitMix64(derive_seed("witness-search", _check_size(seed, "seed", least=None)))
    size = a.shape[0]

    ones = np.ones(size)
    best = witness_ratio(a, (ones, ones), p)
    rep = witness_ratio(a, np.eye(size), p)
    if rep.ratio > best.ratio:
        best = rep
    for start in range(0, draws, _DRAW_BLOCK):
        # one bulk evaluation per block of draws keeps memory flat in the budget
        factors = gen.complex_normal_rows(2 * min(_DRAW_BLOCK, draws - start), size)
        for u, v in zip(factors[0::2], factors[1::2]):
            rep = witness_ratio(a, (u, v), p)
            if rep.ratio > best.ratio:
                best = rep
    return best


def fejer_riesz_ratio(m):
    """L^1 growth of the analytic half of the Fejér kernel.

    Returns ||analytic part of K_m||_{L^1} / ||K_m||_{L^1} by quadrature.  The
    denominator is exactly 1 and is not computed: K_m is nonnegative with mean
    one, and the midpoint rule on N > m nodes integrates its mean exactly.  The
    ratio grows logarithmically in m — the p = 1 shadow of the unboundedness
    of triangular truncation.
    """
    return lp_quasinorm(riesz_plus(fejer(m)), 1.0)


def dirichlet_witness_upper(k, p):
    """Convenience: the analytic upper bound matching delta_lower_bound(k, p)."""
    k = _check_size(k, "k")
    return hankel_multiplier_upper(dirichlet_plus(2**k + 1), p)
