"""Experiment registry and batch pipeline.

Each experiment probes one quantitative scaling law at desk scale: it sweeps
a dyadic size grid, measures its quantities per point (seeded per point, so
runs are schedule-independent), fits a power law, and judges the slope
against the registered target.  A registry entry declares only what differs
between experiments; one sweep loop, ``_run``, does the rest.  Results are
emitted as CSV records plus a JSON fit summary.  Every point computes at one
BLAS thread, so every output is byte-identical at any thread count: a budget
of one thread keeps runs in this process, and a larger one deals every run's
points to a pool of single-thread worker processes (``_worker_count``),
started once per process and reaped at exit.
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
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .fitting import ScalingFit, fit_powerlaw
from .hankel import HARD_TOL, band_hankel_check, besov_quasinorm
from .kernels import bump_poly, dirichlet_plus
from .matrices import (_check_p, _check_size, _schatten_from_spectrum, chi_matrix, mask_spectrum, schatten_quasinorm,
                       singular_values, triangular_projection)
from .multipliers import delta_lower_bound, dirichlet_witness_upper, fejer_riesz_ratio, witness_ratio
from .rng import SplitMix64, derive_seed
from .trigpoly import TrigPoly, lp_quasinorm, riesz_plus

__all__ = [
    "DEFAULT_SEED",
    "EXPERIMENT_IDS",
    "ExperimentConfig",
    "SeriesRecord",
    "CheckResult",
    "FitRecord",
    "ExperimentResult",
    "config_from_dict",
    "run_experiment",
    "write_records_csv",
    "fits_json",
    "experiment_description",
]

DEFAULT_SEED = 20260815

CSV_HEADER = "experiment,p,k,n,sample,quantity,value,wall_ms"


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch run, and the one owner of its plan: construction fills in
    the registered kmin, kmax and samples (``exponents`` and ``grid`` read the
    rest) and rejects every plan a run would trip over later.  That includes
    a field the experiment does not use: p on the fixed-exponent experiments,
    samples on the single-sample ones."""

    experiment: str
    p: float | None = None
    kmin: int | None = None
    kmax: int | None = None
    samples: int | None = None
    seed: int = DEFAULT_SEED
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment id {self.experiment!r}; registered: {', '.join(EXPERIMENT_IDS)}")
        spec = _REGISTRY[self.experiment]
        if self.p is not None:
            if spec.fixed_p:
                raise ValueError(f"{self.experiment} runs at fixed p; the field p does not apply")
            object.__setattr__(self, "p", _check_p(self.p, spec.max_p))
        if self.samples is not None and spec.samples is None:
            raise ValueError(f"{self.experiment} takes one sample per point; the field samples does not apply")
        for name, default in (("kmin", spec.ks[0]), ("kmax", spec.ks[1]), ("samples", spec.samples)):
            value = default if getattr(self, name) is None else getattr(self, name)
            if value is not None:  # samples stays None on a single-sample experiment
                object.__setattr__(self, name, _check_size(value, name))
        object.__setattr__(self, "seed", _check_size(self.seed, "seed", least=None))
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ValueError(f"out must be a nonempty path, got {self.out!r}")
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


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def config_from_dict(doc, experiment=None):
    """Build a config from a JSON-style dict, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    doc = dict(doc)
    if experiment is not None:
        if "experiment" in doc and doc["experiment"] != experiment:
            raise ValueError(
                f"config names experiment {doc['experiment']!r} but {experiment!r} was requested"
            )
        doc["experiment"] = experiment
    if "experiment" not in doc:
        raise ValueError("config must name an experiment (or pass one on the command line)")
    return ExperimentConfig(**doc)


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
    """A hard (non-fit) assertion attached to an experiment run."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class FitRecord:
    experiment: str
    p: float
    fit: ScalingFit

    def to_json_dict(self):
        return {
            "experiment": self.experiment,
            "p": self.p,
            "target": self.fit.target,
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "max_residual": self.fit.max_residual,
            "pass": self.fit.passed,
        }


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple
    fits: tuple
    checks: tuple

    @property
    def verdict(self):
        return all(f.fit.passed for f in self.fits) and all(c.ok for c in self.checks)


# --- the registry: what each experiment declares -----------------------------


# A hard per-point assertion: fails(k, n, s, values) returns a failure detail or
# None; summary, with {count} the points checked, is the detail when all pass.
_Check = namedtuple("_Check", "name fails summary")


@dataclass(frozen=True)
class _Spec:
    """One registered experiment; _run owns everything it does not declare.

    measure(cfg, p, k, n, s) returns {quantity: value} for one point.  The
    grid is n = 2^k + offset for k in ks.  fixed_p makes the config reject p,
    and max_p any p above it; samples None is one sample per point and makes
    it reject samples.  The fit reads the fit_on quantities (default: the
    first), reduce()d over the point's samples, at x = fit_x(k, n)."""

    name: str
    blurb: str
    ks: tuple
    measure: Callable
    target: Callable
    tolerance: float
    exponents: tuple = (0.5,)
    fixed_p: bool = False
    max_p: float = np.inf
    samples: int | None = None
    fit_on: tuple = ()
    reduce: Callable = max
    one_sided: bool = False
    offset: int = 0
    fit_x: Callable = lambda k, n: n
    check: _Check | None = None


def _mask_schatten(cfg, p, k, n, s):
    return {"schatten_quasinorm": _schatten_from_spectrum(mask_spectrum(n), p)}


def _multiplier_interval(cfg, p, k, n, s):
    ratio = delta_lower_bound(k, p).ratio
    return {"witness_ratio": ratio, "multiplier_upper": dirichlet_witness_upper(k, p)}


def _ratio_above_upper(k, n, s, v):
    ratio, upper = v["witness_ratio"], v["multiplier_upper"]
    if ratio > upper * (1.0 + 1e-4):
        return f"k={k}: ratio {ratio:.6g} > upper {upper:.6g}"


def _band_ratio(cfg, p, k, n, s):
    lo = 2 ** (k - 1) + 1
    gen = SplitMix64(derive_seed(cfg.experiment, cfg.seed, k, s))
    band = TrigPoly(lo, gen.complex_normal(2 ** (k + 1) - lo))
    return {"band_ratio": band_hankel_check(band, p, k)}


def _band_ratio_above_one(k, n, s, v):
    if not v["band_ratio"] <= 1.0 + HARD_TOL:
        return f"level {k} sample {s}: ratio {v['band_ratio']:.12g} > 1"


def _weak_decay(cfg, p, k, n, s):
    gen = SplitMix64(derive_seed(cfg.experiment, cfg.seed, n, s))
    t_mat = gen.complex_matrix(n, n)
    decay = singular_values(triangular_projection(t_mat))
    trace_norm = schatten_quasinorm(t_mat, 1.0)
    return {"weak_decay_max": float(np.max((1.0 + np.arange(n)) * decay) / trace_norm)}


def _fejer_log(cfg, p, k, n, s):
    ratio = fejer_riesz_ratio(n)
    return {"riesz_ratio": ratio, "normalized_ratio": ratio / np.log1p(n)}


def _riesz_jump(cfg, p, k, n, s):
    bump = bump_poly(n)
    return {"riesz_projection_ratio": lp_quasinorm(riesz_plus(bump), p) / lp_quasinorm(bump, p)}


def _dirichlet_besov(cfg, p, k, n, s):
    report = besov_quasinorm(dirichlet_plus(n), p)
    return {"besov_total": report.total, "top_level_term": dict(report.levels)[k]}


def _top_term_below_2k(k, n, s, v):
    if v["top_level_term"] < 2.0**k * (1.0 - 1e-6):
        return f"k={k}: top level term {v['top_level_term']:.6g} < {2.0**k * (1 - 1e-6):.6g}"


def _projection_ratios(cfg, p, k, n, s):
    scale = n ** (1.0 / p - 1.0)
    # a rank-one T = u v^* goes through the factored witness: P_n(T) = chi_n * T, and S_p(T) = ||u|| ||v||
    gen = SplitMix64(derive_seed(cfg.experiment, cfg.seed, "rank_one", n, s))
    u, v = gen.complex_normal_rows(2, n)
    rank_one = witness_ratio(chi_matrix(n), (u, v), p).ratio / scale
    gen = SplitMix64(derive_seed(cfg.experiment, cfg.seed, "gaussian", n, s))
    t_mat = gen.complex_matrix(n, n)
    gaussian = schatten_quasinorm(triangular_projection(t_mat), p) / (scale * schatten_quasinorm(t_mat, p))
    return {"projection_ratio_rank_one": rank_one, "projection_ratio_gaussian": gaussian}


_REGISTRY = {
    "E1": _Spec("delta_schatten", "Schatten growth of the anti-triangular mask, p < 1", (4, 11),
                _mask_schatten, lambda p: 1.0 / p, 0.10, exponents=(0.5, 2.0 / 3.0)),
    "E2": _Spec("delta_multiplier_lower", "constructive multiplier lower bounds vs analytic uppers", (4, 9),
                _multiplier_interval, lambda p: 1.0 / p - 1.0, 0.20, max_p=1.0, offset=1, fit_x=lambda k, n: 2**k,
                check=_Check("witness_ratio_below_analytic_upper", _ratio_above_upper,
                             "all {count} ratios below the analytic upper bound")),
    "E3": _Spec("band_hankel", "two-sided dyadic band estimate for Hankel matrices", (2, 9),
                _band_ratio, lambda p: 0.0, 0.15, samples=20, reduce=min,
                check=_Check("band_upper_inequality", _band_ratio_above_one, "all {count} ratios <= 1 + 1e-9")),
    "E4": _Spec("weak_type", "weak-type decay of triangular truncation on trace-class inputs", (5, 9),
                _weak_decay, lambda p: 0.0, 0.10, exponents=(1.0,), fixed_p=True, samples=20, one_sided=True),
    "E5": _Spec("fejer_log", "logarithmic growth of the analytic Fejér half at p = 1", (4, 11),
                _fejer_log, lambda p: 0.0, 0.10, exponents=(1.0,), fixed_p=True, fit_on=("normalized_ratio",),
                check=_Check("normalized_ratio_positive",
                             lambda k, n, s, v: None if v["normalized_ratio"] > 0 else f"m={n}",
                             "all normalized ratios strictly positive")),
    "E6": _Spec("riesz_jump", "Riesz projection jump on bump polynomials, p < 1", (3, 10),
                _riesz_jump, lambda p: 1.0 / p - 1.0, 0.15),
    "E7": _Spec("dirichlet_besov", "dyadic-decomposition quasinorm growth of Dirichlet kernels", (3, 10),
                _dirichlet_besov, lambda p: 1.0 / p, 0.10, offset=1,
                check=_Check("top_level_term_at_least_2k", _top_term_below_2k,
                             "all {count} top level terms >= 2^k(1-1e-6)")),
    "E8": _Spec("projection_sp_bound", "normalized triangular-projection ratios stay bounded", (4, 9),
                _projection_ratios, lambda p: 0.0, 0.05, samples=10, one_sided=True,
                fit_on=("projection_ratio_rank_one", "projection_ratio_gaussian")),
    "E9": _Spec("delta_schatten_p_gt_1", "linear Schatten growth of the mask for p > 1", (4, 11),
                _mask_schatten, lambda p: 1.0, 0.05, exponents=(2.0, 4.0)),
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


def _run(cfg, spec):
    """The one sweep loop over cfg's resolved plan: measure and time every
    point, then fit and judge.  Returns (records, fits, checks)."""
    points = [(p, k, n, s) for p in cfg.exponents for k, n in cfg.grid for s in range(cfg.samples or 1)]
    records, details, fit_vals = [], [], {}
    for (p, k, n, s), (values, wall) in zip(points, _measure_all(cfg, points)):
        for quantity, value in values.items():
            records.append(SeriesRecord(cfg.experiment, p, k, n, s, quantity, value, wall))
            wall = 0.0  # the point's whole time sits on its first quantity's row
        fit_vals.setdefault(p, {}).setdefault((k, n), []).extend(values[q] for q in spec.fit_on or list(values)[:1])
        if spec.check is not None:
            details.append(spec.check.fails(k, n, s, values))
    fits = []
    for p, at_p in fit_vals.items():
        pts = [(spec.fit_x(k, n), spec.reduce(vals)) for (k, n), vals in at_p.items()]
        fit = fit_powerlaw(pts, spec.target(p), spec.tolerance, one_sided=spec.one_sided)
        fits.append(FitRecord(cfg.experiment, p, fit))
    if spec.check is None:
        return records, fits, []
    bad = [d for d in details if d is not None]
    detail = "; ".join(bad) if bad else spec.check.summary.format(count=len(details))
    return records, fits, [CheckResult(spec.check.name, not bad, detail)]


def _record_sort_key(r):
    return (r.experiment, r.p, r.k, r.n, r.quantity, r.sample)


def run_experiment(cfg):
    """Run one experiment to completion and return its result bundle.

    If cfg.out is set, the CSV records and the JSON fit summary
    (<out>.fits.json next to it) are written; the output location is
    validated before any computation starts.
    """
    if cfg.out is not None:
        if os.path.isdir(cfg.out):
            raise ValueError(f"output path is a directory: {cfg.out}")
        parent = os.path.dirname(os.path.abspath(cfg.out))
        if not os.path.isdir(parent):
            raise ValueError(f"output directory does not exist: {parent}")
        if not os.access(parent, os.W_OK):
            raise ValueError(f"output directory is not writable: {parent}")

    records, fits, checks = _run(cfg, _REGISTRY[cfg.experiment])
    result = ExperimentResult(
        config=cfg,
        records=tuple(sorted(records, key=_record_sort_key)),
        fits=tuple(fits),
        checks=tuple(checks),
    )
    if cfg.out is not None:
        write_records_csv(cfg.out, result.records)
        stem, _ = os.path.splitext(cfg.out)
        with open(stem + ".fits.json", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(fits_json(result.fits))
    return result


def _g17(x):
    return f"{float(x):.17g}"


def write_records_csv(path, records):
    """CSV with 17-significant-digit values.  wall_ms is informational only: a
    point's whole measure time sits on its first quantity's row, and its other
    rows (derived values, E2's upper end, E8's second family) read 0.0."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.experiment},{_g17(r.p)},{r.k},{r.n},{r.sample},{r.quantity},{_g17(r.value)},{r.wall_ms:.3f}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def fits_json(fits):
    return json.dumps([f.to_json_dict() for f in fits], indent=2) + "\n"
