"""Seeded randomized corpora shared by the property suites and the acceptance
gate.  Each runner returns (violations, instances, worst) where worst is the
largest lhs/rhs margin seen — 1.0 is the boundary.  The exact block identity
of the doubled triangular mask, and the ratio of a dense matrix witness, shared
the same way, sit here too."""

import numpy as np

from tritrunc.hankel import hankel_matrix
from tritrunc.matrices import schatten_quasinorm
from tritrunc.multipliers import hankel_multiplier_upper
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, lp_quasinorm


def matrix_witness_ratio(a, b, p):
    """||a * b||_p / ||b||_p for a witness b of the multiplier's shape, * the entrywise product."""
    return schatten_quasinorm(a * b, p) / schatten_quasinorm(b, p)


def _record(violations, label, lhs, rhs, slack):
    if lhs > rhs * (1.0 + slack):
        violations.append(f"{label}: {lhs:.12g} > {rhs:.12g}")
    return lhs / rhs


def p_triangle_corpus(instances=220):
    gen = SplitMix64(derive_seed("corpus", "p-triangle"))
    violations, worst = [], 0.0
    for i in range(instances):
        rows = 1 + int(gen.integers(1, 16)[0])
        cols = 1 + int(gen.integers(1, 16)[0])
        t = gen.complex_normal((rows, cols))
        r = gen.complex_normal((rows, cols))
        # p below ~0.01 overflows the 1/p root in float64; the sampled range
        # still sweeps the whole quasinorm regime.
        p = 0.01 + 0.99 * float(gen.uniform(1)[0])
        lhs = schatten_quasinorm(t + r, p) ** p
        rhs = schatten_quasinorm(t, p) ** p + schatten_quasinorm(r, p) ** p
        worst = max(worst, _record(violations, f"#{i} p={p:.4f} {rows}x{cols}", lhs, rhs, 1e-9))
    return violations, instances, worst


def endpoint_coefficient_corpus(instances=200):
    gen = SplitMix64(derive_seed("corpus", "endpoint-coefficient"))
    violations, worst = [], 0.0
    count = 0
    for i in range(instances):
        lo = int(gen.integers(1, 7)[0])
        span = 1 + int(gen.integers(1, 24)[0])
        f = TrigPoly(lo, gen.complex_normal(span))
        norm = {p: lp_quasinorm(f, p) for p in (0.4, 0.7, 1.0)}
        for p, val in norm.items():
            for which, j in (("first", f.lo), ("last", f.hi)):
                count += 1
                worst = max(
                    worst,
                    _record(
                        violations,
                        f"#{i} {which} p={p}",
                        abs(f.coefficients_on(j, j)[0]),
                        val,
                        1e-6,
                    ),
                )
    return violations, count, worst


def hankel_degree_bound_corpus(instances=200):
    # degree counting: ||Gamma_phi||_{S_p} <= 2^{1/p-1} m^{1/p} ||phi||_{L^p} for p <= 1, deg phi < m
    gen = SplitMix64(derive_seed("corpus", "hankel-degree-bound"))
    violations, worst = [], 0.0
    for i in range(instances):
        span = 1 + int(gen.integers(1, 21)[0])
        f = TrigPoly(0, gen.complex_normal(span))
        p = 0.1 + 0.9 * float(gen.uniform(1)[0])
        lhs = schatten_quasinorm(hankel_matrix(f), p)
        rhs = 2.0 ** (1.0 / p - 1.0) * span ** (1.0 / p) * lp_quasinorm(f, p)
        worst = max(worst, _record(violations, f"#{i} p={p:.4f} deg={span - 1}", lhs, rhs, 1e-4))
    return violations, instances, worst


def multiplier_upper_corpus(instances=200):
    gen = SplitMix64(derive_seed("corpus", "multiplier-upper"))
    violations, worst = [], 0.0
    for i in range(instances):
        span = 1 + int(gen.integers(1, 13)[0])
        f = TrigPoly(0, gen.complex_normal(span))
        witness = gen.complex_normal((span, span))
        p = 0.1 + 0.9 * float(gen.uniform(1)[0])
        ratio = matrix_witness_ratio(hankel_matrix(f), witness, p)
        upper = hankel_multiplier_upper(f, p)
        worst = max(worst, _record(violations, f"#{i} p={p:.4f} deg={span - 1}", ratio, upper, 1e-4))
    return violations, instances, worst


def chi_doubling_decomposition(n):
    """Check the block anatomy of the doubled triangular mask, entrywise.

    Verifies chi_{2n} = [[chi_n, ones_n], [0, chi_n]] and the exact split
    chi_{2n} = diag(chi_n, chi_n) + the all-ones top-right corner.
    """
    n = int(n)
    chi_n = np.triu(np.ones((n, n)))
    chi_2n = np.triu(np.ones((2 * n, 2 * n)))
    zero = np.zeros((n, n))
    ones = np.ones((n, n))
    assembled = np.block([[chi_n, ones], [zero, chi_n]])
    split = np.block([[chi_n, zero], [zero, chi_n]]) + np.block([[zero, ones], [zero, zero]])
    return bool(np.array_equal(chi_2n, assembled) and np.array_equal(chi_2n, split))
