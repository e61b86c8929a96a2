"""Batch command-line interface.

Subcommands:

* ``spnorm``            Schatten quasinorm of a built-in structured matrix.
* ``besov``             dyadic-decomposition quasinorm of a Dirichlet kernel.
* ``multiplier-bound``  [lower, upper] multiplier interval for the size-(2^k + 1)
                        mask at the one level k = ``--delta-k``: the lower end a witness
                        search (``tritrunc.multipliers``), the upper end the closed form
                        U_n(p) (``tritrunc.matrices.mask_multiplier_ceiling``).
* ``experiment run ID`` one registered experiment; ``experiment all`` runs
                        every registered experiment and aggregates verdicts.
                        ``--out`` sets where each run's CSV and fit summary go
                        (``_output_paths``), every path checked before any run.

Exit codes: 0 all verdicts pass, 1 an assertion failed, 2 usage/config error
(including an input too large to allocate and a result too large for a double).

``main`` may be called many times in one process: it builds its parser once,
on the first call, and reuses it, since parsing keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .experiments import (
    DEFAULT_SEED,
    EXPERIMENT_IDS,
    ExperimentConfig,
    experiment_description,
    fits_json,
    run_experiment,
    write_records_csv,
)
from .hankel import besov_quasinorm
from .kernels import dirichlet_plus
from .matrices import (_check_p, _check_size, _schatten_from_spectrum, delta_matrix, mask_multiplier_ceiling,
                       mask_spectrum)
from .multipliers import random_witness_search

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tritrunc",
        description="Numerical laboratory for triangular truncation and Schatten-scale experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spnorm", help="Schatten quasinorm of a structured matrix")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--chi", type=int, metavar="N", help="upper-triangular all-ones matrix of size N")
    which.add_argument("--delta", type=int, metavar="N", help="anti-triangular 0/1 Hankel matrix of size N")
    which.add_argument("--ones", type=int, metavar="N", help="all-ones matrix of size N")
    sp.add_argument("--p", type=float, required=True, help="Schatten exponent (> 0)")
    sp.set_defaults(handler=_cmd_spnorm)

    bs = sub.add_parser("besov", help="dyadic quasinorm of the length-N Dirichlet kernel")
    bs.add_argument("--dirichlet", type=int, required=True, metavar="N", help="kernel length N >= 1")
    bs.add_argument("--p", type=float, required=True, help="exponent (> 0)")
    bs.add_argument("--levels", action="store_true", help="also print the per-level terms")
    bs.set_defaults(handler=_cmd_besov)

    mb = sub.add_parser("multiplier-bound", help="[lower, upper] multiplier bounds for the size-(2^k+1) mask: "
                        "a witness search, and the closed-form ceiling U_n(p)")
    mb.add_argument("--delta-k", type=int, required=True, metavar="K", help="dyadic level k >= 1")
    mb.add_argument("--p", type=float, required=True, help="exponent in (0, 1]")
    mb.add_argument("--budget", type=int, default=0, metavar="B", help="witness-search budget: B // 2 seeded "
                    "rank-one draws beyond the all-ones and largest-entry witnesses, which run at every budget")
    mb.add_argument("--seed", type=int, default=DEFAULT_SEED)
    mb.set_defaults(handler=_cmd_multiplier_bound)

    ex = sub.add_parser("experiment", help="run registered scaling experiments")
    ex.set_defaults(handler=_cmd_experiment)
    exsub = ex.add_subparsers(dest="action", required=True)
    run = exsub.add_parser("run", help="run a single experiment")
    run.add_argument("id", choices=EXPERIMENT_IDS, metavar="ID", help=f"one of {', '.join(EXPERIMENT_IDS)}")
    _experiment_flags(run)
    run.add_argument("--p", type=float)  # not on all: E4 and E5 take no p
    run.add_argument("--samples", type=int)  # not on all either: six experiments take one sample per point
    allp = exsub.add_parser("all", help="run every experiment; verdict is the conjunction")
    _experiment_flags(allp, out_help="output directory for per-experiment CSV/JSON")
    return parser


@functools.cache
def _parser():
    return build_parser()


def _experiment_flags(cmd, out_help="CSV output path (fit summary lands next to it)"):
    cmd.add_argument("--seed", type=int)
    cmd.add_argument("--out", metavar="PATH", help=out_help)
    cmd.add_argument("--kmin", type=int)
    cmd.add_argument("--kmax", type=int)


def _output_paths(out):
    """The CSV path out and its fit summary's <stem>.fits.json beside it, where <stem> is out
    without its extension; ValueError unless both can be written."""
    if not out:
        raise ValueError(f"out must be a nonempty path, got {out!r}")
    fits_out = os.path.splitext(out)[0] + ".fits.json"
    for path in (out, fits_out):
        if os.path.isdir(path) or os.path.basename(path) in ("", ".", ".."):  # ends in a separator, . or ..
            raise ValueError(f"output path is a directory: {path}")
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        raise ValueError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise ValueError(f"output directory is not writable: {parent}")
    return out, fits_out


def _print_result(result):
    cfg = result.config
    print(f"[{cfg.experiment}] {experiment_description(cfg.experiment)}")
    for p, fit in result.fits:
        band = f"<= {fit.target + fit.tolerance:g}" if fit.one_sided else f"{fit.target:g} +- {fit.tolerance:g}"
        status = "pass" if fit.passed else "FAIL"
        print(
            f"  fit p={p:g}: slope {fit.slope:+.4f} (want {band}), "
            f"max residual {fit.max_residual:.3g} -> {status}"
        )
    for check in result.checks:
        status = "pass" if check.ok else "FAIL"
        print(f"  check {check.name}: {status} ({check.detail})")
    print(f"  verdict: {'pass' if result.verdict else 'FAIL'}")


def _cmd_spnorm(args):
    # both masks share the closed-form spectrum; the all-ones matrix has rank one, so S_p is its one singular value N
    p = _check_p(args.p)
    which = next(name for name in ("chi", "delta", "ones") if getattr(args, name) is not None)
    n = _check_size(getattr(args, which), f"--{which}")
    print(n if which == "ones" else f"{_schatten_from_spectrum(mask_spectrum(n), p):.17g}")
    return 0


def _cmd_besov(args):
    p = _check_p(args.p)  # before the kernel, which may be too large to allocate
    report = besov_quasinorm(dirichlet_plus(_check_size(args.dirichlet, "--dirichlet")), p)
    print(f"{report.total:.17g}")
    if args.levels:
        for n, term in report.levels:
            print(f"level {n} term {term:.17g}")
        print(f"zero term {report.zero_term:.17g}")
    return 0


def _cmd_multiplier_bound(args):
    p = _check_p(args.p, 1.0)
    budget = _check_size(args.budget, "--budget", least=0)
    n = 2 ** _check_size(args.delta_k, "--delta-k") + 1
    # --budget B buys B // 2 rank-one draws; the all-ones and largest-entry pool runs at every budget
    found = random_witness_search(delta_matrix(n), p, budget // 2, args.seed)
    print(f"lower {found.ratio:.17g}\nupper {mask_multiplier_ceiling(n, p):.17g}")
    return 0


def _cmd_experiment(args):
    # the plan is the flags given; ExperimentConfig fills in the rest and rejects a bad value
    plan = {key: getattr(args, key) for key in ("p", "kmin", "kmax", "samples", "seed")
            if getattr(args, key, None) is not None}
    if args.action == "run":
        outs = {args.id: args.out}
    else:
        outs = {exp: None if args.out is None else os.path.join(args.out, f"{exp}.csv") for exp in EXPERIMENT_IDS}
    runs = [(ExperimentConfig(exp, **plan), out) for exp, out in outs.items()]
    if args.action == "all" and args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use --out {args.out} as the output directory: {exc}") from exc
    runs = [(cfg, None if out is None else _output_paths(out)) for cfg, out in runs]
    # every config is resolved, the output directory made and every output path checked before any experiment runs
    ok = True
    for cfg, paths in runs:
        result = run_experiment(cfg)
        if paths is not None:
            write_records_csv(paths[0], result.records)
            with open(paths[1], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(fits_json(result))
        _print_result(result)
        ok = ok and result.verdict
    if args.action == "all":
        print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input too large to allocate is a usage error, not a failed check
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # and so is a result too large for a double
        print(f"error: result out of range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
