"""Experiment registry and batch pipeline.

Each experiment probes one quantitative scaling law at desk scale: it sweeps
a dyadic size grid, measures its quantities per point (seeded per point, so
runs are schedule-independent), fits a power law, and judges the slope
against the registered target; its hard check, if it has one, is a proved
bound on one quantity, compared at every point.  A registry entry declares
only what differs between experiments; one sweep loop, ``run_experiment``,
does the rest.  It writes no file: the command line writes its records as
CSV and its fits as JSON (``write_records_csv``, ``fits_json``).  Every point
computes at one BLAS thread, so every output is byte-identical at any thread
count: a budget of one thread keeps runs in this process, and a larger one
deals every run's points to a pool of single-thread worker processes
(``_worker_count``), started once per process and reaped at exit.  A measure
calls the library's entry points on what it builds: E3's band ratio is
``schatten_quasinorm(hankel_matrix(band), p)`` over the band's ``lp_quasinorm``,
and E2's witness ratio that of its truncated bump symbol over the whole bump's.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import pickle
import sys
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fitting import fit_powerlaw
from .hankel import besov_quasinorm, hankel_matrix, hankel_multiplier_upper
from .kernels import bump_poly, dirichlet_plus, fejer
from .matrices import (_check_p, _check_size, _schatten_from_spectrum, _triu_outer_spectrum, mask_multiplier_ceiling,
                       mask_spectrum, schatten_quasinorm)
from .rng import SplitMix64, derive_seed
from .trigpoly import TrigPoly, lp_quasinorm, riesz_plus

__all__ = [
    "DEFAULT_SEED",
    "EXPERIMENT_IDS",
    "ExperimentConfig",
    "SeriesRecord",
    "CheckResult",
    "ExperimentResult",
    "run_experiment",
    "write_records_csv",
    "fits_json",
    "experiment_description",
]

DEFAULT_SEED = 20260815

CSV_HEADER = "experiment,p,k,n,sample,quantity,value,wall_ms"


@dataclass(frozen=True)
class ExperimentConfig:
    """The plan of one batch run, and its one owner: construction fills in
    the registered kmin, kmax and samples (``exponents`` and ``grid`` read the
    rest) and rejects every plan a run would trip over later.  That includes
    a field the experiment does not use: p on the fixed-exponent experiments,
    samples on the single-sample ones.  The output paths are the command line's."""

    experiment: str
    p: float | None = None
    kmin: int | None = None
    kmax: int | None = None
    samples: int | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment id {self.experiment!r}; registered: {', '.join(EXPERIMENT_IDS)}")
        spec = _REGISTRY[self.experiment]
        if self.p is not None:
            if spec.max_p is None:
                raise ValueError(f"{self.experiment} runs at fixed p; the field p does not apply")
            object.__setattr__(self, "p", _check_p(self.p, spec.max_p))
        if self.samples is not None and spec.samples is None:
            raise ValueError(f"{self.experiment} takes one sample per point; the field samples does not apply")
        for name, default in (("kmin", spec.ks[0]), ("kmax", spec.ks[1]), ("samples", spec.samples)):
            value = default if getattr(self, name) is None else getattr(self, name)
            if value is not None:  # samples stays None on a single-sample experiment
                object.__setattr__(self, name, _check_size(value, name))
        object.__setattr__(self, "seed", _check_size(self.seed, "seed", least=None))
        derive_seed(self.seed)
        if self.kmin > self.kmax:
            raise ValueError(f"kmin={self.kmin} exceeds kmax={self.kmax}")
        if self.kmax - self.kmin < 2:
            raise ValueError(f"a fit needs at least 3 levels, got kmin={self.kmin} kmax={self.kmax}")

    @property
    def exponents(self):
        """The exponents to sweep: p alone, or the registered ones."""
        return _REGISTRY[self.experiment].exponents if self.p is None else (self.p,)

    @property
    def grid(self):
        """The (k, n) points: n = 2^k + the registered offset for k = kmin..kmax."""
        return [(k, 2**k + _REGISTRY[self.experiment].offset) for k in range(self.kmin, self.kmax + 1)]


@dataclass(frozen=True)
class SeriesRecord:
    experiment: str
    p: float
    k: int
    n: int
    sample: int
    quantity: str
    value: float
    wall_ms: float


@dataclass(frozen=True)
class CheckResult:
    """A run's hard (non-fit) check: ok unless some point broke its bound,
    and detail lists each such point, or else counts the points checked."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ExperimentResult:
    """One run: its plan, its records in CSV order, its fits as (p, ScalingFit)
    pairs in sweep order, and its hard checks."""

    config: ExperimentConfig
    records: tuple
    fits: tuple
    checks: tuple

    @property
    def verdict(self):
        return all(fit.passed for _, fit in self.fits) and all(c.ok for c in self.checks)


# --- the registry: what each experiment declares -----------------------------


# A hard check: a proved bound on one quantity.  At every point values[quantity]
# must stay at or below bound(p, k, n, values), or at or above it when floor is
# set; run_experiment makes the one comparison, so a nan value or bound fails.
_Check = namedtuple("_Check", "name quantity bound floor", defaults=(False,))


@dataclass(frozen=True)
class _Spec:
    """One registered experiment; run_experiment owns everything it does not declare.

    measure(cfg, p, k, n, s) returns {quantity: value} for one point.  The
    grid is n = 2^k + offset for k in ks.  The config rejects a p above max_p,
    and any p at max_p None (E4, E5); samples None is one sample per point
    and makes it reject samples.  The fit reads the first quantity, reduce()d
    over the point's samples, at x = n.  check, if any, is one declared bound
    on one quantity, which run_experiment compares at every point."""

    name: str
    blurb: str
    ks: tuple
    measure: Callable
    target: Callable
    tolerance: float
    exponents: tuple = (0.5,)
    max_p: float | None = np.inf
    samples: int | None = None
    reduce: Callable = max
    one_sided: bool = False
    offset: int = 0
    check: _Check | None = None


def _mask_growth(p):
    """Exponent of S_p(chi_n) ~ n^max(1/p, 1), and of its Besov side ||D_n||_B (Peller)."""
    return max(1.0 / p, 1.0)


def _projection_growth(p):
    """Exponent of ||P_n||_{S_p -> S_p} ~ n^max(1/p - 1, 0), as of the Riesz projection's on L^p."""
    return max(1.0 / p - 1.0, 0.0)


def _mask_schatten(cfg, p, k, n, s):
    return {"schatten_quasinorm": _schatten_from_spectrum(mask_spectrum(n), p)}


def _multiplier_interval(cfg, p, k, n, s):
    bump = bump_poly(2 ** (k - 1))
    p_k = TrigPoly(bump.lo + 2**k, bump.coeffs)
    kept = TrigPoly(p_k.lo, p_k.coefficients_on(p_k.lo, n - 1))
    ratio = schatten_quasinorm(hankel_matrix(kept), p) / schatten_quasinorm(hankel_matrix(p_k), p)
    return {"witness_ratio": ratio, "multiplier_upper": hankel_multiplier_upper(dirichlet_plus(n), p)}


def _band_ratio(cfg, p, k, n, s):
    lo = 2 ** (k - 1) + 1
    gen = SplitMix64(derive_seed(cfg.experiment, cfg.seed, k, s))
    band = TrigPoly(lo, gen.complex_normal(2 ** (k + 1) - lo))
    return {"band_ratio": schatten_quasinorm(hankel_matrix(band), p) / (2.0 ** ((k + 1) / p) * lp_quasinorm(band, p))}


def _projected_pair(gen, n):
    """For the rank-one T = u v^* of one draw of gen: the singular values of P_n T = triu(u v^*), which are
    those of the real triu(|u| |v|^T), and ||u|| ||v||, which is every S_p quasinorm of T.  The values come
    from matrices._triu_outer_spectrum, each to relative error O(n eps) unless its bidiagonal inverse
    cannot serve the draw (a zero entry, say)."""
    u, v = gen.complex_normal_rows(2, n)
    return _triu_outer_spectrum(np.abs(u), np.abs(v)), float(np.linalg.norm(u) * np.linalg.norm(v))


def _weak_decay(cfg, p, k, n, s):
    spectrum, norm = _projected_pair(SplitMix64(derive_seed(cfg.experiment, cfg.seed, n, s)), n)
    return {"weak_decay_max": float(np.max((1.0 + np.arange(n)) * spectrum) / norm)}


def _fejer_log(cfg, p, k, n, s):
    # ||analytic half of K_n||_1 / ||K_n||_1, whose denominator is exactly 1: K_n >= 0 has mean one,
    # and the midpoint rule on N > n nodes integrates the mean exactly
    ratio = lp_quasinorm(riesz_plus(fejer(n)), 1.0)
    return {"normalized_ratio": ratio / np.log1p(n), "riesz_ratio": ratio}


def _riesz_jump(cfg, p, k, n, s):
    bump = bump_poly(n)
    return {"riesz_projection_ratio": lp_quasinorm(riesz_plus(bump), p) / lp_quasinorm(bump, p)}


def _dirichlet_besov(cfg, p, k, n, s):
    report = besov_quasinorm(dirichlet_plus(n), p)
    return {"besov_total": report.total, "top_level_term": dict(report.levels)[k]}


def _projection_ratios(cfg, p, k, n, s):
    # ||P_n(T)||_p / ||T||_p for a rank-one T = u v^*; at p <= 1 the Schmidt split bounds every T by its rank-one pieces
    spectrum, norm = _projected_pair(SplitMix64(derive_seed(cfg.experiment, cfg.seed, "rank_one", n, s)), n)
    return {"projection_ratio_rank_one": _schatten_from_spectrum(spectrum, p) / norm / n ** _projection_growth(p)}


_REGISTRY = {
    "E1": _Spec("delta_schatten", "Schatten growth of the anti-triangular mask, p < 1", (4, 11),
                _mask_schatten, _mask_growth, 0.10, exponents=(0.5, 2.0 / 3.0)),
    # E2's witness Gamma is the Hankel matrix of the bump p_k of width 2^{k-1} recentred at 2^k, whose support sits
    # strictly inside the band (2^{k-1}, 2^{k+1}).  Delta_n, n = 2^k + 1, keeps the coefficients of index <= 2^k, so
    # Delta_n * Gamma is, on its n x n block, the Hankel matrix of p_k truncated at index n - 1; its S_p quasinorm
    # over Gamma's is the witness ratio, at most ||Delta_n||_mult <= U_n(p), the closed-form ceiling (its CSV reports
    # the paper's Hankel-route bound instead).  The 1e-9 slack covers U_n(p)'s (6 + ln(n+1)/2) eps/p; the ratio carries
    # its dense SVDs' rounding, far inside the gap: it reaches 0.046-0.053 of U_n(1/2) on the registered grid.
    "E2": _Spec("delta_multiplier_lower", "constructive multiplier lower bounds vs analytic uppers", (4, 9),
                _multiplier_interval, _projection_growth, 0.20, max_p=1.0, offset=1,
                check=_Check("witness_ratio_below_analytic_upper", "witness_ratio",
                             lambda p, k, n, v: mask_multiplier_ceiling(n, p) * (1.0 + 1e-9))),
    # E3's band_ratio is ||Gamma_phi||_{S_p} / (2^{(k+1)/p} ||phi||_{L^p}) for phi drawn on the level-k band
    # 2^{k-1}+1 .. 2^{k+1}-1.  The band estimate says ratio <= 1, so the 1e-9 slack is rounding (measured 0.54-0.77
    # at k = 2..6, 5 samples per level; 0.46-0.97 on the default plan, k = 2..9 with 20 samples per level); its
    # lower bound is a positive k-independent constant, probed by the slope of the level minimum, not pointwise.
    "E3": _Spec("band_hankel", "two-sided dyadic band estimate for Hankel matrices", (2, 9),
                _band_ratio, lambda p: 0.0, 0.15, samples=20, reduce=min,
                check=_Check("band_upper_inequality", "band_ratio", lambda p, k, n, v: 1.0 + 1e-9)),
    "E4": _Spec("weak_type", "weak-type decay of triangular truncation on trace-class inputs", (5, 9),
                _weak_decay, lambda p: 0.0, 0.10, exponents=(1.0,), max_p=None, samples=20, one_sided=True),
    "E5": _Spec("fejer_log", "logarithmic growth of the analytic Fejér half at p = 1", (4, 11),
                _fejer_log, lambda p: 0.0, 0.10, exponents=(1.0,), max_p=None),
    "E6": _Spec("riesz_jump", "Riesz projection jump on bump polynomials, p < 1", (3, 10),
                _riesz_jump, _projection_growth, 0.15),
    "E7": _Spec("dirichlet_besov", "dyadic-decomposition quasinorm growth of Dirichlet kernels", (3, 10),
                _dirichlet_besov, _mask_growth, 0.10, offset=1,
                check=_Check("top_level_term_at_least_2k", "top_level_term",
                             lambda p, k, n, v: 2.0**k * (1.0 - 1e-6), floor=True)),
    "E8": _Spec("projection_sp_bound", "normalized triangular-projection ratios stay bounded", (4, 9),
                _projection_ratios, lambda p: 0.0, 0.05, samples=10, one_sided=True),
    "E9": _Spec("delta_schatten_p_gt_1", "linear Schatten growth of the mask for p > 1", (4, 11),
                _mask_schatten, _mask_growth, 0.05, exponents=(2.0, 4.0)),
}

EXPERIMENT_IDS = tuple(_REGISTRY)


def experiment_description(experiment):
    spec = _REGISTRY[experiment]
    return f"{spec.name}: {spec.blurb}"


# Every worker starts with these at 1; the caller's budget is read from the
# first two, in the order OpenBLAS reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A worker imports tritrunc from its argument, the directory this module was loaded from.
_WORKER_MAIN = "import sys; sys.path.insert(0, sys.argv[1]); from tritrunc.experiments import _serve; _serve()"
_POOL = []  # the live workers: started by the first dealt run, reaped at exit or when a run fails


def _worker_count():
    """Worker processes to deal runs to, or 0 to keep them in this process.

    The budget is the BLAS thread count the caller granted:
    OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else the CPUs this process
    may use.  A budget of one keeps every run here, at that one thread; a
    larger one spends its threads on single-thread workers, capped by the
    CPUs.  Either way every point computes at one BLAS thread."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    granted = (os.environ.get(var, "").strip() for var in _BLAS_THREAD_VARS[:2])
    budget = next((int(value) for value in granted if value.isdecimal() and int(value) > 0), cpus)
    return 0 if budget == 1 else min(budget, cpus)


def _measure(cfg, point):
    """Measure one (p, k, n, s) point; returns ({quantity: value}, wall_ms)."""
    t0 = time.perf_counter()
    values = _REGISTRY[cfg.experiment].measure(cfg, *point)
    return values, (time.perf_counter() - t0) * 1e3


def _serve():
    """A worker's life: answer each (cfg, points) request pickled on stdin
    with their measurements, or the exception that stopped them, on stdout,
    until stdin ends."""
    while sys.stdin.buffer.peek(1):
        cfg, points = pickle.load(sys.stdin.buffer)
        try:
            out = [_measure(cfg, point) for point in points]
        except Exception as exc:  # the worker's boundary: the parent raises it
            out = exc
        pickle.dump(out, sys.stdout.buffer)
        sys.stdout.buffer.flush()


def _reap():
    """Kill every worker and wait for it; the next dealt run starts new ones."""
    while _POOL:
        # leaving the Popen closes its pipes, which may fail to flush a request to a dead worker, and waits
        with contextlib.suppress(BrokenPipeError), _POOL.pop() as proc:
            proc.kill()


atexit.register(_reap)


def _measure_all(cfg, points):
    """Measure every point, returned in the order of ``points``.

    With no workers granted (``_worker_count``) they are measured in this
    process, where a tracer or profiler sees them; else the pool gets them."""
    workers = _worker_count()
    if not workers:
        return [_measure(cfg, point) for point in points]
    if len(_POOL) != workers:  # the first dealt run, or a changed budget
        _reap()
        import subprocess  # here, so that importing tritrunc does not load it

        env = dict(os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        _POOL.extend(subprocess.Popen([sys.executable, "-c", _WORKER_MAIN, here], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, env=env) for _ in range(workers))
    # dealt round-robin from the largest point down, so that the workers'
    # shares of every size differ by at most one point
    largest_first = range(len(points) - 1, -1, -1)
    deals = [largest_first[w::workers] for w in range(workers)]
    results = {}
    try:
        for proc, deal in zip(_POOL, deals):
            pickle.dump((cfg, [points[i] for i in deal]), proc.stdin)
            proc.stdin.flush()
        for proc, deal in zip(_POOL, deals):
            got = pickle.load(proc.stdout)
            if isinstance(got, Exception):
                raise got
            results.update(zip(deal, got))
    except (BrokenPipeError, EOFError) as exc:  # the worker died: its exit code is the error
        _reap()  # kills only the live ones, and waits for all
        raise RuntimeError(f"a worker process exited with code {proc.returncode}") from exc
    except BaseException:
        _reap()  # the other workers' answers are unread
        raise
    return [results[i] for i in range(len(points))]


def run_experiment(cfg):
    """Run the plan cfg to completion and return its result: the one sweep
    loop measures and times every point, then fits and judges.  It writes no
    file; the command line writes the records and fits of a run to its files."""
    spec = _REGISTRY[cfg.experiment]
    check = spec.check
    points = [(p, k, n, s) for p in cfg.exponents for k, n in cfg.grid for s in range(cfg.samples or 1)]
    records, failed, fit_vals = [], [], {}
    for (p, k, n, s), (values, wall) in zip(points, _measure_all(cfg, points)):
        for quantity, value in values.items():
            records.append(SeriesRecord(cfg.experiment, p, k, n, s, quantity, value, wall))
            wall = 0.0  # the point's whole time sits on its first quantity's row
        fit_vals.setdefault(p, {}).setdefault(n, []).append(next(iter(values.values())))
        if check is not None:
            got, bound = float(values[check.quantity]), float(check.bound(p, k, n, values))
            if not (got >= bound if check.floor else got <= bound):
                failed.append(f"p={p:g} k={k} sample {s}: {got!r} {'<' if check.floor else '>'} {bound!r}")
    fits = [(p, fit_powerlaw([(n, spec.reduce(vals)) for n, vals in at_p.items()], spec.target(p),
                             spec.tolerance, one_sided=spec.one_sided)) for p, at_p in fit_vals.items()]
    checks = ()
    if check is not None:
        relation = ">=" if check.floor else "<="
        detail = "; ".join(failed) or f"all {len(points)} {check.quantity} values {relation} the bound"
        checks = (CheckResult(check.name, not failed, detail),)
    records.sort(key=lambda r: (r.experiment, r.p, r.k, r.n, r.quantity, r.sample))
    return ExperimentResult(config=cfg, records=tuple(records), fits=tuple(fits), checks=checks)


def _g17(x):
    return f"{float(x):.17g}"


def write_records_csv(path, records):
    """CSV with 17-significant-digit values.  wall_ms is informational only: a
    point's whole measure time sits on its first quantity's row, and its other
    rows (E2's upper end, E5's raw ratio, E7's top level term) read 0.0."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.experiment},{_g17(r.p)},{r.k},{r.n},{r.sample},{r.quantity},{_g17(r.value)},{r.wall_ms:.3f}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def fits_json(result):
    """The JSON fit summary of a run: one object per fit, in sweep order."""
    return json.dumps([
        {"experiment": result.config.experiment, "p": p, "target": fit.target, "slope": fit.slope,
         "intercept": fit.intercept, "max_residual": fit.max_residual, "pass": fit.passed}
        for p, fit in result.fits
    ], indent=2) + "\n"
