"""Experiment registry and batch pipeline.

Each experiment probes one quantitative scaling law at desk scale: it sweeps
a dyadic size grid, measures one quantity per point (seeded deterministically
per point, so runs are schedule-independent and byte-reproducible), fits a
power law, and judges the slope against the registered target.  Results are
emitted as CSV records plus a JSON fit summary.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .fitting import ScalingFit, fit_powerlaw
from .hankel import band_hankel_check, besov_quasinorm
from .kernels import bump_poly, dirichlet_plus
from .matrices import delta_matrix, schatten_quasinorm, singular_values, triangular_projection
from .multipliers import delta_lower_bound, dirichlet_witness_upper, fejer_riesz_ratio
from .rng import SplitMix64, derive_seed
from .trigpoly import OVERSAMPLE, TrigPoly, lp_quasinorm, riesz_plus

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
    """One batch run: which experiment, at which exponent, over which grid.

    Omitted fields fall back to the experiment's registered defaults.  sizes
    replaces the dyadic kmin..kmax grid for the size-sweep experiments;
    tolerance overrides the registered slope tolerance (the default values
    are judgment calls, so they are configurable).
    """

    experiment: str
    p: float | None = None
    kmin: int | None = None
    kmax: int | None = None
    sizes: tuple | None = None
    samples: int | None = None
    seed: int = DEFAULT_SEED
    oversample: int | None = None
    out: str | None = None
    tolerance: float | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment id {self.experiment!r}; registered: {', '.join(EXPERIMENT_IDS)}")
        if self.p is not None and not (float(self.p) > 0):
            raise ValueError(f"p must be positive, got {self.p}")
        if self.kmin is not None and self.kmax is not None and self.kmin > self.kmax:
            raise ValueError(f"kmin={self.kmin} exceeds kmax={self.kmax}")
        if self.samples is not None and int(self.samples) < 1:
            raise ValueError("samples must be >= 1")
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
            if any(n < 1 for n in self.sizes):
                raise ValueError("sizes must be positive")
        if self.oversample is not None and int(self.oversample) < OVERSAMPLE:
            raise ValueError(
                f"oversample must be >= {OVERSAMPLE}, the quadrature floor of lp_quasinorm; got {self.oversample}"
            )
        if self.tolerance is not None and not (float(self.tolerance) > 0):
            raise ValueError("tolerance must be positive")


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


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


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1e3


def _krange(cfg, lo, hi):
    kmin = lo if cfg.kmin is None else int(cfg.kmin)
    kmax = hi if cfg.kmax is None else int(cfg.kmax)
    if kmin > kmax:
        raise ValueError(f"kmin={kmin} exceeds kmax={kmax}")
    return list(range(kmin, kmax + 1))


def _dyadic_sizes(cfg, lo, hi):
    if cfg.sizes is not None:
        return [(max(int(n).bit_length() - 1, 0), int(n)) for n in cfg.sizes]
    return [(k, 2**k) for k in _krange(cfg, lo, hi)]


def _no_sizes(cfg):
    if cfg.sizes is not None:
        raise ValueError(f"{cfg.experiment} is built on an exact dyadic grid; use kmin/kmax, not sizes")


# --- experiment runners ----------------------------------------------------


def _run_delta_schatten(cfg, ps_default, target_fn, tol_default, lo, hi):
    """Shared sweep for the Schatten-growth experiments (E1, E9)."""
    ps = [float(cfg.p)] if cfg.p is not None else list(ps_default)
    grid = _dyadic_sizes(cfg, lo, hi)
    spectra = {}
    records, fits = [], []
    for p in ps:
        pts = []
        for k, n in grid:
            t0 = time.perf_counter()
            if n not in spectra:
                spectra[n] = singular_values(delta_matrix(n))
            val = float(np.sum(spectra[n] ** p) ** (1.0 / p))
            wall = (time.perf_counter() - t0) * 1e3
            records.append(SeriesRecord(cfg.experiment, p, k, n, 0, "schatten_quasinorm", val, wall))
            pts.append((n, val))
        tol = tol_default if cfg.tolerance is None else float(cfg.tolerance)
        fits.append(FitRecord(cfg.experiment, p, fit_powerlaw(pts, target_fn(p), tol)))
    return records, fits, []


def _run_e1(cfg):
    return _run_delta_schatten(cfg, (0.5, 2.0 / 3.0), lambda p: 1.0 / p, 0.10, 4, 11)


def _run_e9(cfg):
    return _run_delta_schatten(cfg, (2.0, 4.0), lambda p: 1.0, 0.05, 4, 11)


def _run_e2(cfg):
    _no_sizes(cfg)
    p = 0.5 if cfg.p is None else float(cfg.p)
    ks = _krange(cfg, 4, 9)
    records, pts, bad = [], [], []
    for k in ks:
        n = 2**k + 1
        rep, wall = _timed(delta_lower_bound, k, p)
        records.append(SeriesRecord(cfg.experiment, p, k, n, 0, "witness_ratio", rep.ratio, wall))
        upper, wall_u = _timed(dirichlet_witness_upper, k, p, cfg.oversample)
        records.append(SeriesRecord(cfg.experiment, p, k, n, 0, "multiplier_upper", upper, wall_u))
        if rep.ratio > upper * (1.0 + 1e-4):
            bad.append(f"k={k}: ratio {rep.ratio:.6g} > upper {upper:.6g}")
        pts.append((2**k, rep.ratio))
    tol = 0.20 if cfg.tolerance is None else float(cfg.tolerance)
    fits = [FitRecord(cfg.experiment, p, fit_powerlaw(pts, 1.0 / p - 1.0, tol))]
    checks = [
        CheckResult(
            "witness_ratio_below_analytic_upper",
            not bad,
            "; ".join(bad) if bad else f"all {len(ks)} ratios below the analytic upper bound",
        )
    ]
    return records, fits, checks


def _run_e3(cfg):
    _no_sizes(cfg)
    p = 0.5 if cfg.p is None else float(cfg.p)
    levels = _krange(cfg, 2, 9)
    samples = 20 if cfg.samples is None else int(cfg.samples)
    records, pts, bad = [], [], []
    for lev in levels:
        lo = 2 ** (lev - 1) + 1
        width = 2 ** (lev + 1) - 1 - lo + 1
        level_min = None
        for s in range(samples):
            gen = SplitMix64(derive_seed(cfg.experiment, cfg.seed, lev, s))
            band = TrigPoly(lo, gen.complex_normal(width))
            (ratio, ok), wall = _timed(
                band_hankel_check, band, p, lev, 1e-9, cfg.oversample
            )
            records.append(SeriesRecord(cfg.experiment, p, lev, 2**lev, s, "band_ratio", ratio, wall))
            if not ok:
                bad.append(f"level {lev} sample {s}: ratio {ratio:.12g} > 1")
            level_min = ratio if level_min is None else min(level_min, ratio)
        pts.append((2**lev, level_min))
    tol = 0.15 if cfg.tolerance is None else float(cfg.tolerance)
    fits = [FitRecord(cfg.experiment, p, fit_powerlaw(pts, 0.0, tol))]
    checks = [
        CheckResult(
            "band_upper_inequality",
            not bad,
            "; ".join(bad) if bad else f"all {len(levels) * samples} ratios <= 1 + 1e-9",
        )
    ]
    return records, fits, checks


def _run_e4(cfg):
    grid = _dyadic_sizes(cfg, 5, 9)
    samples = 20 if cfg.samples is None else int(cfg.samples)
    records, pts = [], []
    for k, n in grid:
        worst = 0.0
        for s in range(samples):
            t0 = time.perf_counter()
            gen = SplitMix64(derive_seed(cfg.experiment, cfg.seed, n, s))
            t_mat = gen.complex_matrix(n, n)
            decay = singular_values(triangular_projection(t_mat))
            trace_norm = float(np.sum(singular_values(t_mat)))
            val = float(np.max((1.0 + np.arange(n)) * decay) / trace_norm)
            wall = (time.perf_counter() - t0) * 1e3
            records.append(SeriesRecord(cfg.experiment, 1.0, k, n, s, "weak_decay_max", val, wall))
            worst = max(worst, val)
        pts.append((n, worst))
    tol = 0.10 if cfg.tolerance is None else float(cfg.tolerance)
    fits = [FitRecord(cfg.experiment, 1.0, fit_powerlaw(pts, 0.0, tol, one_sided=True))]
    return records, fits, []


def _run_e5(cfg):
    grid = _dyadic_sizes(cfg, 4, 11)
    records, pts, nonpos = [], [], []
    for k, m in grid:
        ratio, wall = _timed(fejer_riesz_ratio, m, cfg.oversample)
        normalized = ratio / np.log1p(m)
        records.append(SeriesRecord(cfg.experiment, 1.0, k, m, 0, "riesz_ratio", ratio, wall))
        records.append(SeriesRecord(cfg.experiment, 1.0, k, m, 0, "normalized_ratio", normalized, 0.0))
        if not normalized > 0:
            nonpos.append(f"m={m}")
        pts.append((m, normalized))
    tol = 0.10 if cfg.tolerance is None else float(cfg.tolerance)
    fits = [FitRecord(cfg.experiment, 1.0, fit_powerlaw(pts, 0.0, tol))]
    checks = [
        CheckResult(
            "normalized_ratio_positive",
            not nonpos,
            "; ".join(nonpos) if nonpos else "all normalized ratios strictly positive",
        )
    ]
    return records, fits, checks


def _run_e6(cfg):
    p = 0.5 if cfg.p is None else float(cfg.p)
    grid = _dyadic_sizes(cfg, 3, 10)
    records, pts = [], []
    for k, m in grid:
        t0 = time.perf_counter()
        bump = bump_poly(m)
        plus = lp_quasinorm(riesz_plus(bump), p, oversample=cfg.oversample)
        val = plus / lp_quasinorm(bump, p, oversample=cfg.oversample)
        wall = (time.perf_counter() - t0) * 1e3
        records.append(SeriesRecord(cfg.experiment, p, k, m, 0, "riesz_projection_ratio", val, wall))
        pts.append((m, val))
    tol = 0.15 if cfg.tolerance is None else float(cfg.tolerance)
    fits = [FitRecord(cfg.experiment, p, fit_powerlaw(pts, 1.0 / p - 1.0, tol))]
    return records, fits, []


def _run_e7(cfg):
    _no_sizes(cfg)
    p = 0.5 if cfg.p is None else float(cfg.p)
    ks = _krange(cfg, 3, 10)
    records, pts, bad = [], [], []
    for k in ks:
        n = 2**k + 1
        report, wall = _timed(besov_quasinorm, dirichlet_plus(n), p, None, cfg.oversample)
        records.append(SeriesRecord(cfg.experiment, p, k, n, 0, "besov_total", report.total, wall))
        top = dict(report.levels)[k]
        records.append(SeriesRecord(cfg.experiment, p, k, n, 0, "top_level_term", top, 0.0))
        if top < 2.0**k * (1.0 - 1e-6):
            bad.append(f"k={k}: top level term {top:.6g} < {2.0**k * (1 - 1e-6):.6g}")
        pts.append((n, report.total))
    tol = 0.10 if cfg.tolerance is None else float(cfg.tolerance)
    fits = [FitRecord(cfg.experiment, p, fit_powerlaw(pts, 1.0 / p, tol))]
    checks = [
        CheckResult(
            "top_level_term_at_least_2k",
            not bad,
            "; ".join(bad) if bad else f"all {len(ks)} top level terms >= 2^k(1-1e-6)",
        )
    ]
    return records, fits, checks


def _run_e8(cfg):
    p = 0.5 if cfg.p is None else float(cfg.p)
    grid = _dyadic_sizes(cfg, 4, 9)
    samples = 10 if cfg.samples is None else int(cfg.samples)
    scale = lambda n: n ** (1.0 / p - 1.0)
    records, pts = [], []
    for k, n in grid:
        worst = 0.0
        for fam in ("rank_one", "gaussian"):
            for s in range(samples):
                t0 = time.perf_counter()
                gen = SplitMix64(derive_seed(cfg.experiment, cfg.seed, fam, n, s))
                if fam == "rank_one":
                    t_mat = np.outer(gen.complex_normal(n), gen.complex_normal(n).conj())
                else:
                    t_mat = gen.complex_matrix(n, n)
                num = schatten_quasinorm(triangular_projection(t_mat), p)
                den = schatten_quasinorm(t_mat, p)
                val = num / (scale(n) * den)
                wall = (time.perf_counter() - t0) * 1e3
                records.append(
                    SeriesRecord(cfg.experiment, p, k, n, s, f"projection_ratio_{fam}", val, wall)
                )
                worst = max(worst, val)
        pts.append((n, worst))
    tol = 0.05 if cfg.tolerance is None else float(cfg.tolerance)
    fits = [FitRecord(cfg.experiment, p, fit_powerlaw(pts, 0.0, tol, one_sided=True))]
    return records, fits, []


_REGISTRY = {
    "E1": ("delta_schatten", _run_e1, "Schatten growth of the anti-triangular mask, p < 1"),
    "E2": ("delta_multiplier_lower", _run_e2, "constructive multiplier lower bounds vs analytic uppers"),
    "E3": ("band_hankel", _run_e3, "two-sided dyadic band estimate for Hankel matrices"),
    "E4": ("weak_type", _run_e4, "weak-type decay of triangular truncation on trace-class inputs"),
    "E5": ("fejer_log", _run_e5, "logarithmic growth of the analytic Fejér half at p = 1"),
    "E6": ("riesz_jump", _run_e6, "Riesz projection jump on bump polynomials, p < 1"),
    "E7": ("dirichlet_besov", _run_e7, "dyadic-decomposition quasinorm growth of Dirichlet kernels"),
    "E8": ("projection_sp_bound", _run_e8, "normalized triangular-projection ratios stay bounded"),
    "E9": ("delta_schatten_p_gt_1", _run_e9, "linear Schatten growth of the mask for p > 1"),
}

EXPERIMENT_IDS = tuple(_REGISTRY)


def experiment_description(experiment):
    name, _, blurb = _REGISTRY[experiment]
    return f"{name}: {blurb}"


def _record_sort_key(r):
    return (r.experiment, r.p, r.k, r.n, r.quantity, r.sample)


def run_experiment(cfg):
    """Run one experiment to completion and return its result bundle.

    If cfg.out is set, the CSV records and the JSON fit summary
    (<out>.fits.json next to it) are written; the output location is
    validated before any computation starts.
    """
    if cfg.experiment not in _REGISTRY:
        raise ValueError(f"unknown experiment id {cfg.experiment!r}")
    if cfg.out is not None:
        parent = os.path.dirname(os.path.abspath(cfg.out))
        if not os.path.isdir(parent):
            raise ValueError(f"output directory does not exist: {parent}")
        if not os.access(parent, os.W_OK):
            raise ValueError(f"output directory is not writable: {parent}")

    runner = _REGISTRY[cfg.experiment][1]
    records, fits, checks = runner(cfg)
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
    """CSV with 17-significant-digit values; wall_ms is informational only."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.experiment},{_g17(r.p)},{r.k},{r.n},{r.sample},{r.quantity},{_g17(r.value)},{r.wall_ms:.3f}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def fits_json(fits):
    return json.dumps([f.to_json_dict() for f in fits], indent=2) + "\n"
