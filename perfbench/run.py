"""The tritrunc benchmark.

    python3 perfbench/run.py --workload sweeps|queries|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every workload drives the public entry point
``tritrunc.cli.main`` in a fresh worker process (``worker.py``), one process
at a time, as a closed loop with one caller and ``BLAS_THREADS`` BLAS threads,
capped at nproc: two for ``sweeps``, one for ``queries``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s``: median over fresh interpreters of the time to import
  tritrunc and build the workload's inputs;
* ``wall_s``: median time of one pass over the workload's calls (for the
  sweeps, the time to a verdict); a run makes ``--seconds`` divided by the
  workload's nominal pass length passes, at least one (``worker.py``);
* ``peak_rss_mb``: the worker's ``ru_maxrss``;
* ``query_ms_p50`` and ``query_ms_p90``: Harrell-Davis percentiles over the
  pass's ``tritrunc.cli.main`` calls of each call's median latency across
  passes.  On ``queries`` a pass has 120 calls, so 12 lie beyond p90; a
  ``sweeps`` pass has 11 calls, and there p90 leans on its slowest ones.

On ``queries`` every time is scaled to a reference host speed measured by a
fixed kernel around each call (``worker.py``); the unscaled ``wall_s`` is
printed next to the metrics.

``--trace 1`` runs one untraced and one traced pass in two fresh workers and
reports the per-layer metrics of ``spans.py`` plus ``trace.overhead_share``.

Every output is checked; ``failed`` / ``attempted`` count the checks, and
their ratio is printed as ``fail_share``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweeps", "queries")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
)
# BLAS threads per workload, capped at nproc.  The sweeps' large SVDs gain
# from two threads; the queries' small ones lose (a 97x97 complex SVD takes
# twice as long), and on two threads their passes ran 10-20% slower.
BLAS_THREADS = {"sweeps": 2, "queries": 1}
SETUP_PROBES = 10
DEADLINE_S = 175  # one workload's run must end within 180 s


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a, b, x):
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of the order statistics.  A
    single order statistic jumps when the seed or per-call noise moves a call
    across it; on ``queries`` p50 sits where 8 ms spnorm calls meet 13 ms
    besov calls, so the nearest rank swung by a third between runs.
    """
    ordered = sorted(values)
    n, f = len(ordered), q / 100.0
    cdf = [betainc(f * (n + 1), (1.0 - f) * (n + 1), i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(ordered))


class Runner:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, seed):
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, workload, *flags):
        cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(self.seed), *flags]
        threads = str(min(BLAS_THREADS[workload], len(os.sched_getaffinity(0))))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        t0 = time.perf_counter()
        # subprocess.run kills the worker and waits for it when the timeout expires.
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(flags)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        return (json.loads(lines[-1]) if lines else None), elapsed

    def end_to_end(self, workload, seconds):
        # Half the set-up probes run before the measured worker and half after,
        # so that the median spans the run.
        setups = [self.worker(workload, "--setup-only")[1] for _ in range(SETUP_PROBES // 2)]
        res, _ = self.worker(workload, "--seconds", str(seconds))
        setups += [self.worker(workload, "--setup-only")[1] for _ in range(SETUP_PROBES - len(setups))]
        passes, lat = res["passes_s"], res["latencies_ms"]
        calls = len(lat) // len(passes)
        # Every pass issues the same calls; a call's latency is its median over the passes.
        per_call = [statistics.median(lat[i::calls]) for i in range(calls)]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(passes),
            "peak_rss_mb": res["peak_rss_mb"],
            "query_ms_p50": percentile(per_call, 50),
            "query_ms_p90": percentile(per_call, 90),
        }
        notes = [f"passes {len(passes)} of {calls} calls, setup probes {len(setups)}"]
        if res["calibration_ms"] is not None:
            notes.append(f"times scaled to a calibration of {res['calibration_ref_ms']} ms from a median of"
                         f" {res['calibration_ms']:.4g} ms;"
                         f" unscaled wall_s {statistics.median(res['raw_passes_s']):.6g}")
        return res, metrics, dict(END_TO_END), notes

    def per_layer(self, workload):
        plain, _ = self.worker(workload, "--seconds", "0")
        spans_file = os.path.join(ROOT, ".perfbench", f"spans-{workload}-{self.seed}.jsonl")
        res, _ = self.worker(workload, "--seconds", "0", "--trace", "1", "--spans", spans_file)
        res["attempted"] += plain["attempted"]
        res["failures"] += plain["failures"]
        metrics = dict(res["layers"])
        metrics["trace.overhead_share"] = res["passes_s"][0] / plain["passes_s"][0] - 1.0
        notes = [f"spans {res['spans']} written to {os.path.relpath(spans_file, ROOT)}"]
        if res["absent"]:
            notes.append("reads 0, layer not called on this workload: " + ", ".join(res["absent"]))
        return res, metrics, {name: unit for name, unit, _ in PER_LAYER}, notes


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description="tritrunc benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tritrunc", "__init__.py")):
        print(f"error: no tritrunc sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    runner = Runner(args.seed)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for w in workloads:
            runner.deadline = time.monotonic() + DEADLINE_S
            if args.trace:
                res, got, units, notes = runner.per_layer(w)
            else:
                res, got, units, notes = runner.end_to_end(w, args.seconds)
            n_fail = len(res["failures"])
            attempted += res["attempted"]
            failed += n_fail
            for name, unit in units.items():
                print(f"{w:9s} {name:34s} {_fmt(got[name]):>14s} {unit}")
                key = name if len(workloads) == 1 else f"{w}.{name}"
                metrics[key] = {"value": got[name], "unit": unit}
            print(f"{w:9s} {'fail_share':34s} {n_fail / res['attempted']:>14.6g} ({n_fail} of {res['attempted']} checks)")
            for failure in res["failures"][:20]:
                print(f"{w:9s} FAILED {failure}")
            for note in notes:
                print(f"{w:9s} {note}")
            print(f"{w:9s} env {json.dumps(res['env'], sort_keys=True)}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
