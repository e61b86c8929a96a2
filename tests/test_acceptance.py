"""Acceptance gate: every primary quantitative claim, one printed verdict each.

Each criterion prints exactly one ``[ACCEPT]`` line (PASS or FAIL, with the
measured numbers) before asserting, so a full run leaves a scannable scorecard
even under output capture.  The experiment criteria run the registered default
configurations — the same grids, seeds, and tolerances the CLI uses.  E7's
gate reads that same run, grid, target and tolerance, but judges the law on
the exact level split of the dyadic quasinorm rather than on the plain fit,
whose registered verdict it still prints; its negative controls print no
verdict line.
"""

import sys
import time
from typing import NamedTuple

import numpy as np
import pytest

from tritrunc.experiments import ExperimentConfig, run_experiment
from tritrunc.fitting import ScalingFit, fit_powerlaw
from tritrunc.hankel import hankel_matrix
from tritrunc.kernels import dirichlet_plus, standard_window
from tritrunc.matrices import delta_matrix, schatten_quasinorm
from tritrunc.rng import SplitMix64, derive_seed

from corpora import (
    chi_doubling_decomposition,
    endpoint_coefficient_corpus,
    hankel_degree_bound_corpus,
    matrix_witness_ratio,
    multiplier_upper_corpus,
    p_triangle_corpus,
)

# wall-clock budgets (seconds) attached to the experiment criteria
BUDGETS = {"E1": 300.0, "E2": 300.0, "E4": 180.0}


@pytest.fixture
def announce(capfd):
    """One always-visible verdict line per criterion (escapes fd capture)."""

    def _announce(name, ok, detail):
        with capfd.disabled():
            print(f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
        return ok

    return _announce


class LazyBatch(dict):
    """Experiment id -> (result, wall seconds), run on first lookup and kept."""

    def __missing__(self, exp):
        t0 = time.perf_counter()
        result = run_experiment(ExperimentConfig(exp))
        self[exp] = (result, time.perf_counter() - t0)
        return self[exp]


@pytest.fixture(scope="module")
def batch():
    """Each experiment at its registered defaults, run when a criterion first asks."""
    return LazyBatch()


def fit_summary(result):
    return ", ".join(
        f"p={p:g}: slope {fit.slope:+.4f} want "
        + (f"<= {fit.target + fit.tolerance:g}" if fit.one_sided else f"{fit.target:g}+-{fit.tolerance:g}")
        for p, fit in result.fits
    )


def experiment_criterion(batch, exp, name, announce, judge=None):
    """Gate a registered run on its fitted law, its hard checks and its budget.

    judge, when given, replaces the registered fit verdict: judge(result)
    returns (ok, detail) for the law the run measures.
    """
    result, wall = batch[exp]
    budget = BUDGETS.get(exp)
    if judge is None:
        law_ok, detail = all(fit.passed for _, fit in result.fits), fit_summary(result)
    else:
        law_ok, detail = judge(result)
    ok = law_ok and all(c.ok for c in result.checks) and (budget is None or wall <= budget)
    for check in result.checks:
        detail += f"; check {check.name}: {'ok' if check.ok else check.detail}"
    detail += f"; {wall:.1f}s" + (f" of {budget:.0f}s" if budget else "")
    assert announce(name, ok, detail)


def test_e1_mask_schatten_growth(batch, announce):
    experiment_criterion(batch, "E1", "E1 mask Schatten growth ~ n^(1/p), p < 1", announce)


def test_e2_multiplier_lower_bounds(batch, announce):
    experiment_criterion(batch, "E2", "E2 multiplier lower bounds grow ~ 2^k, inside ceilings", announce)


def test_e3_band_hankel_two_sided(batch, announce):
    experiment_criterion(batch, "E3", "E3 band Hankel ratio <= 1 with level-free floor", announce)


def test_e4_weak_type_decay(batch, announce):
    experiment_criterion(batch, "E4", "E4 weak-type decay of truncated trace-class inputs", announce)


def test_e5_fejer_log_growth(batch, announce):
    experiment_criterion(batch, "E5", "E5 analytic Fejér half grows like log m at p = 1", announce)


def test_e6_riesz_jump(batch, announce):
    experiment_criterion(batch, "E6", "E6 Riesz projection jump ~ m^(1/p-1) on bumps", announce)


class DirichletSplit(NamedTuple):
    top_fit: ScalingFit
    shares: list
    share_slope: float
    share_falls: bool
    ok: bool


def dirichlet_split(series, p, target, tol):
    """Judge total ~ n^(1/p) on the level split total^p = top * (1 + share).

    series holds (n, total, top) triples, total the dyadic quasinorm and top
    its top-level term.  The law holds when top^(1/p) fits slope target +- tol
    and the remainder share (total^p - top) / top falls at every step with a
    fitted slope of at most -tol, so that total^p ~ top.
    """
    ns = [n for n, _, _ in series]
    top_fit = fit_powerlaw([(n, top ** (1.0 / p)) for n, _, top in series], target, tol)
    shares = [(total**p - top) / top for _, total, top in series]
    # only the slope is read: the share has to fall, not sit near a target
    share_slope = fit_powerlaw(list(zip(ns, shares)), 0.0, tol).slope
    share_falls = all(b < a for a, b in zip(shares, shares[1:])) and share_slope <= -tol
    return DirichletSplit(top_fit, shares, share_slope, share_falls, top_fit.passed and share_falls)


def dirichlet_split_judge(result):
    """The registered E7 run judged on its level split, next to its plain fit."""
    ((p, fit),) = result.fits
    by_n = {}
    for r in result.records:
        by_n.setdefault(r.n, {})[r.quantity] = r.value
    series = [(n, q["besov_total"], q["top_level_term"]) for n, q in sorted(by_n.items())]
    split = dirichlet_split(series, p, fit.target, fit.tolerance)
    detail = (
        f"registered plain slope {fit.slope:+.4f} {'PASS' if fit.passed else 'FAIL'}; "
        f"top slope {split.top_fit.slope:+.3f} want {fit.target:g}+-{fit.tolerance:g}; "
        f"remainder share {split.shares[0]:.2f} -> {split.shares[-1]:.2f}, "
        f"slope {split.share_slope:+.3f} want <= {-fit.tolerance:g}"
    )
    return split.ok, detail


def test_e7_dirichlet_besov_growth(batch, announce):
    # Below the top level k every dyadic term of D(2^k + 1) is the same full
    # window for every member of the family, so those terms sum to O(n^(1/2))
    # against a top term of order n.  A plain fit of the total over k = 3..10
    # mixes in that finite-size remainder (slope 1.86); the n^2 law is read on
    # the split instead: the top term carries the rate and the remainder share
    # falls away.
    experiment_criterion(
        batch, "E7", "E7 Dirichlet dyadic quasinorm growth ~ n^2", announce, judge=dirichlet_split_judge
    )


@pytest.mark.parametrize(
    "top, remainder, failing",
    [
        # top^(1/p) grows like n^1.8; the share n^-0.5 falls as it should
        (lambda n: n**0.9, lambda n: n**0.4, "top"),
        # the remainder keeps pace with the top term: the share stays at 1
        (lambda n: float(n), lambda n: float(n), "share"),
    ],
    ids=["top_grows_like_n^0.9", "remainder_equals_top"],
)
def test_e7_split_criterion_negative_controls(top, remainder, failing):
    p = 0.5
    series = [(n, (top(n) + remainder(n)) ** (1.0 / p), top(n)) for n in (2**k + 1 for k in range(3, 11))]
    split = dirichlet_split(series, p, 1.0 / p, 0.10)
    assert not split.ok
    assert split.top_fit.passed == (failing != "top")
    assert split.share_falls == (failing != "share")


def test_e8_projection_ratio_bounded(batch, announce):
    experiment_criterion(batch, "E8", "E8 normalized truncation ratios stay bounded", announce)


def test_e9_mask_schatten_linear_p_above_one(batch, announce):
    experiment_criterion(batch, "E9", "E9 mask Schatten growth ~ n for p > 1", announce)


# --- exact identities ---------------------------------------------------------------


def test_identity_chi2_trace_norm(announce):
    got = schatten_quasinorm(np.triu(np.ones((2, 2))), 1.0)
    err = abs(got - np.sqrt(5.0))
    assert announce("identity: ||chi_2||_S1 = sqrt(5)", err <= 1e-10, f"error {err:.3g}")


def test_identity_witness_doubling_factor(announce):
    # p is drawn from [2/3, 1]: below that, the eps-level numerical zeros of
    # the rank-deficient doubled witness enter the denominator as eps^p and
    # the identity is only certifiable to ~n * eps^p (1e-8 at p = 1/2)
    gen = SplitMix64(derive_seed("accept-doubling"))
    worst = 0.0
    for _ in range(100):
        n = 2 + int(gen.integers(1, 7)[0])
        a, b = gen.complex_normal((n, n)), gen.complex_normal((n, n))
        p = 2.0 / 3.0 + (1.0 - 2.0 / 3.0) * gen.uniform(1)[0]
        base = matrix_witness_ratio(a, b, p)
        doubled = matrix_witness_ratio(np.kron(np.eye(2), a), np.kron(np.ones((2, 2)), b), p)
        rel = abs(doubled - 2.0 ** (1.0 / p - 1.0) * base) / doubled
        worst = max(worst, rel)
    assert announce(
        "identity: doubling multiplies witness ratios by 2^(1/p-1)",
        worst <= 1e-9,
        f"worst relative error {worst:.3g} over 100 triples, p in [2/3, 1]",
    )


def test_identity_window_partition_of_unity(announce):
    v = standard_window
    xs = np.geomspace(1.0, 2.0**20, 10_000)
    total = np.zeros_like(xs)
    for n in range(24):
        total += v(xs / 2.0**n)
    resid = float(np.max(np.abs(total - 1.0)))
    assert announce(
        "identity: dyadic windows sum to 1 on [1, 2^20]",
        resid <= 1e-12,
        f"max residual {resid:.3g} over 10000 points",
    )


def test_identity_mask_doubling_decomposition(announce):
    bad = [n for n in range(1, 17) if not chi_doubling_decomposition(n)]
    assert announce(
        "identity: chi_2n splits into two diagonal copies plus a ones corner",
        not bad,
        "entrywise exact for n = 1..16" if not bad else f"fails at n = {bad}",
    )


def test_identity_dirichlet_hankel_is_the_mask(announce):
    bad = [
        n
        for n in range(1, 41)
        if not np.array_equal(hankel_matrix(dirichlet_plus(n)), delta_matrix(n))
    ]
    assert announce(
        "identity: Hankel matrix of the analytic Dirichlet kernel is the 0/1 mask",
        not bad,
        "entrywise exact for n = 1..40" if not bad else f"fails at n = {bad}",
    )


# --- randomized property suites ------------------------------------------------------


def corpus_criterion(name, corpus, announce):
    violations, checked, worst = corpus()
    ok = not violations and checked >= 200
    detail = f"{checked} instances, worst margin {worst:.3g}"
    if violations:
        detail += f"; first violation: {violations[0]}"
    assert announce(name, ok, detail)


def test_property_p_triangle(announce):
    corpus_criterion(
        "property: p-triangle inequality for Schatten quasinorms",
 p_triangle_corpus,
        announce,
    )


def test_property_endpoint_coefficients(announce):
    corpus_criterion(
        "property: endpoint coefficients bounded by the L^p quasinorm",
        endpoint_coefficient_corpus,
        announce,
    )


def test_property_hankel_degree_bound(announce):
    corpus_criterion(
        "property: Hankel Schatten quasinorm <= 2^(1/p-1) m^(1/p) ||phi||_p",
        hankel_degree_bound_corpus,
        announce,
    )


def test_property_multiplier_upper(announce):
    corpus_criterion(
        "property: witness ratios stay below the analytic multiplier ceiling",
        multiplier_upper_corpus,
        announce,
    )
