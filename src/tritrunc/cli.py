"""Batch command-line interface.

Subcommands:

* ``spnorm``            Schatten quasinorm of a built-in structured matrix.
* ``besov``             dyadic-decomposition quasinorm of a Dirichlet kernel.
* ``multiplier-bound``  certified [lower, upper] multiplier interval for the
                        anti-triangular mask of size 2^k + 1, at one level
                        k or one row per level of a range.
* ``experiment run ID`` one registered experiment; ``experiment all`` runs
                        every registered experiment and aggregates verdicts.

Exit codes: 0 all verdicts pass, 1 an assertion failed, 2 usage/config error
(including an input too large to allocate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (
    DEFAULT_SEED,
    EXPERIMENT_IDS,
    config_from_dict,
    experiment_description,
    run_experiment,
)
from .hankel import besov_quasinorm
from .kernels import dirichlet_plus
from .matrices import chi_matrix, delta_matrix, ones_matrix, schatten_quasinorm
from .multipliers import delta_lower_bound, dirichlet_witness_upper, random_witness_search
from .rng import derive_seed

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

    bs = sub.add_parser("besov", help="dyadic quasinorm of the length-N Dirichlet kernel")
    bs.add_argument("--dirichlet", type=int, required=True, metavar="N", help="kernel length N >= 1")
    bs.add_argument("--p", type=float, required=True, help="exponent (> 0)")
    bs.add_argument("--levels", action="store_true", help="also print the per-level terms")

    mb = sub.add_parser("multiplier-bound", help="[lower, upper] multiplier bounds for the size-(2^k+1) mask")
    level = mb.add_mutually_exclusive_group(required=True)
    level.add_argument("--delta-k", type=int, metavar="K", help="dyadic level k >= 1")
    level.add_argument("--kmin", type=int, metavar="A", help="first level of a range (with --kmax)")
    mb.add_argument("--kmax", type=int, metavar="B", help="last level of the range")
    mb.add_argument("--p", type=float, required=True, help="exponent in (0, 1]")
    mb.add_argument("--budget", type=int, default=0, metavar="B", help="witness-search S_p evaluations: "
                    "B // 2 rank-one draws beyond the all-ones, identity and constructive witnesses")
    mb.add_argument("--seed", type=int, default=DEFAULT_SEED)

    ex = sub.add_parser("experiment", help="run registered scaling experiments")
    exsub = ex.add_subparsers(dest="action", required=True)
    run = exsub.add_parser("run", help="run a single experiment")
    run.add_argument("id", choices=EXPERIMENT_IDS, metavar="ID", help=f"one of {', '.join(EXPERIMENT_IDS)}")
    _experiment_flags(run)
    allp = exsub.add_parser("all", help="run every experiment; verdict is the conjunction")
    _experiment_flags(allp, out_help="output directory for per-experiment CSV/JSON")
    return parser


def _experiment_flags(cmd, out_help="CSV output path (fit summary lands next to it)"):
    cmd.add_argument("--config", metavar="FILE", help="JSON config document (unknown keys rejected)")
    cmd.add_argument("--seed", type=int)
    cmd.add_argument("--out", metavar="PATH", help=out_help)
    cmd.add_argument("--p", type=float)
    cmd.add_argument("--kmin", type=int)
    cmd.add_argument("--kmax", type=int)


def _load_config_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _print_result(result):
    cfg = result.config
    print(f"[{cfg.experiment}] {experiment_description(cfg.experiment)}")
    for fr in result.fits:
        fit = fr.fit
        band = f"<= {fit.target + fit.tolerance:g}" if fit.one_sided else f"{fit.target:g} +- {fit.tolerance:g}"
        status = "pass" if fit.passed else "FAIL"
        print(
            f"  fit p={fr.p:g}: slope {fit.slope:+.4f} (want {band}), "
            f"max residual {fit.max_residual:.3g} -> {status}"
        )
    for check in result.checks:
        status = "pass" if check.ok else "FAIL"
        print(f"  check {check.name}: {status} ({check.detail})")
    print(f"  verdict: {'pass' if result.verdict else 'FAIL'}")


def _cmd_spnorm(args):
    if args.chi is not None:
        mat = chi_matrix(args.chi)
    elif args.delta is not None:
        mat = delta_matrix(args.delta)
    else:
        mat = ones_matrix(args.ones)
    print(f"{schatten_quasinorm(mat, args.p):.17g}")
    return 0


def _cmd_besov(args):
    report = besov_quasinorm(dirichlet_plus(args.dirichlet), args.p)
    print(f"{report.total:.17g}")
    if args.levels:
        for n, term in report.levels:
            print(f"level {n} term {term:.17g}")
        print(f"zero term {report.zero_term:.17g}")
    return 0


def _multiplier_interval(k, args):
    rep = delta_lower_bound(k, args.p)
    lower = rep.ratio
    if args.budget > 0:
        # a rank-one draw spends two S_p evaluations, so B evaluations buy B // 2 draws
        lower = max(lower, random_witness_search(rep.multiplier, args.p, args.budget // 2, args.seed).ratio)
    return lower, dirichlet_witness_upper(k, args.p)


def _cmd_multiplier_bound(args):
    if not 0 < args.p <= 1:
        raise ValueError(f"--p must lie in (0, 1], got {args.p!r}")
    if args.budget < 0:
        raise ValueError("--budget must be >= 0")
    derive_seed(args.seed)  # the seed is checked with any budget, not only where the search reads it
    if args.delta_k is not None:
        if args.kmax is not None:
            raise ValueError("--kmax goes with --kmin, not --delta-k")
        if args.delta_k < 1:
            raise ValueError("--delta-k must be >= 1")
        lower, upper = _multiplier_interval(args.delta_k, args)
        print(f"lower {lower:.17g}")
        print(f"upper {upper:.17g}")
        return 0
    if args.kmax is None or not 1 <= args.kmin <= args.kmax:
        raise ValueError("need --kmin A --kmax B with 1 <= A <= B")
    for k in range(args.kmin, args.kmax + 1):
        lower, upper = _multiplier_interval(k, args)
        print(f"level {k} lower {lower:.17g} upper {upper:.17g}")
    return 0


def _cmd_experiment(args):
    doc = _load_config_doc(args.config) if args.config else {}
    doc.update({key: getattr(args, key) for key in ("seed", "p", "kmin", "kmax") if getattr(args, key) is not None})
    if args.action == "run":
        outs = {args.id: args.out}
    elif "experiment" in doc or "out" in doc:
        raise ValueError("a config used with 'experiment all' must not pin one experiment id or output path")
    else:
        outs = {exp: None if args.out is None else os.path.join(args.out, f"{exp}.csv") for exp in EXPERIMENT_IDS}
    cfgs = [config_from_dict(doc if out is None else {**doc, "out": out}, experiment=exp) for exp, out in outs.items()]
    if args.action == "all" and args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use --out {args.out} as the output directory: {exc}") from exc
    # every config is resolved, and the output directory made, before any experiment runs
    ok = True
    for cfg in cfgs:
        result = run_experiment(cfg)
        _print_result(result)
        ok = ok and result.verdict
    if args.action == "all":
        print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "spnorm":
            return _cmd_spnorm(args)
        if args.command == "besov":
            return _cmd_besov(args)
        if args.command == "multiplier-bound":
            return _cmd_multiplier_bound(args)
        return _cmd_experiment(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input too large to allocate is a usage error, not a failed check
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
