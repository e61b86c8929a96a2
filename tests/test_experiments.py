"""Batch pipeline: config plumbing, determinism, and on-disk formats."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tritrunc import cli, experiments, matrices
from tritrunc.experiments import (
    DEFAULT_SEED,
    EXPERIMENT_IDS,
    ExperimentConfig,
    experiment_description,
    run_experiment,
    write_records_csv,
)
from tritrunc.matrices import schatten_quasinorm
from tritrunc.rng import SplitMix64, derive_seed
from tritrunc.trigpoly import TrigPoly, quadrature_floor

from oracles import direct_lp, jump_mass, trimmed_triu_spectrum


def strip_wall(csv_text):
    """Drop the informational wall_ms column (the only nondeterministic one)."""
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


# --- configuration ----------------------------------------------------------------


def test_registry_lists_all_nine_experiments():
    assert EXPERIMENT_IDS == tuple(f"E{i}" for i in range(1, 10))
    assert DEFAULT_SEED == 20260815
    assert experiment_description("E1").startswith("delta_schatten:")


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment id"):
        ExperimentConfig("E10")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(p=0.0), "p must be positive"),
        (dict(kmin=5, kmax=4), "exceeds kmax"),
        (dict(experiment="E3", samples=0), "samples"),
        (dict(p=float("nan")), "p must be positive and finite"),  # --p reads nan and inf as floats
        (dict(p=float("inf")), "p must be positive and finite"),
        (dict(kmax=0), "kmax must be >= 1, got 0"),
        (dict(experiment="E2", kmin=9), "at least 3 levels, got kmin=9 kmax=9"),  # E2's kmax is 9
        (dict(kmin=12), "kmin=12 exceeds kmax=11"),
        (dict(experiment="E3", kmin=0, kmax=3), "kmin must be >= 1, got 0"),
        (dict(kmin=[3]), "kmin must be an integer"),
        (dict(kmin=True), "kmin must be an integer"),
        (dict(kmax=11.0), "kmax must be an integer"),
        (dict(experiment="E3", samples="2"), "samples must be an integer"),
        (dict(seed="abc"), "seed must be an integer"),
        (dict(seed=[1]), "seed must be an integer"),
        (dict(seed=None), "seed must be an integer"),
        (dict(seed=2**63), "outside the 64-bit range"),
        (dict(seed=-(2**63) - 1), "outside the 64-bit range"),
        (dict(p=[0.5]), "p must be a real number"),
        (dict(p="0.5"), "p must be a real number"),
        (dict(p=True), "p must be a real number"),
    ],
)
def test_config_field_validation(kwargs, message):
    doc = {"experiment": "E1", **kwargs}
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**doc)


@pytest.mark.parametrize("exp", ["E1", "E2", "E5", "E6", "E7", "E9"])
def test_single_sample_experiments_reject_samples(exp):
    with pytest.raises(ValueError, match=f"{exp} takes one sample per point; the field samples"):
        ExperimentConfig(exp, samples=2)


@pytest.mark.parametrize("exp", ["E4", "E5"])
def test_fixed_p_experiments_reject_p(exp):
    with pytest.raises(ValueError, match=f"{exp} runs at fixed p; the field p"):
        ExperimentConfig(exp, p=0.5)


def test_multiplier_experiment_rejects_p_above_one():
    # its analytic upper bound holds for p <= 1 only
    with pytest.raises(ValueError, match=r"p must lie in \(0, 1\], got 1.5"):
        ExperimentConfig("E2", p=1.5)
    assert ExperimentConfig("E2", p=1).p == 1.0


def test_config_resolves_the_registered_plan():
    cfg = ExperimentConfig("E2")
    assert (cfg.kmin, cfg.kmax, cfg.samples, cfg.exponents) == (4, 9, None, (0.5,))
    assert cfg.grid == [(k, 2**k + 1) for k in range(4, 10)]
    assert ExperimentConfig("E8", kmax=6).samples == 10
    cfg = ExperimentConfig("E3", p=1, kmin=np.int64(2), kmax=4, samples=3, seed=2**63 - 1)
    assert cfg.exponents == (1.0,) and type(cfg.p) is float and type(cfg.kmin) is int
    assert cfg.grid == [(2, 4), (3, 8), (4, 16)] and cfg.samples == 3
    # the resolved config is itself a valid config for the same run
    assert ExperimentConfig(**dataclasses.asdict(cfg)) == cfg


@pytest.mark.parametrize("exp", ["E2", "E3", "E7"])
def test_exact_dyadic_experiments_reject_sizes(exp):
    # every experiment runs on its dyadic kmin..kmax grid; a size list is not a field of the plan
    with pytest.raises(TypeError, match="sizes"):
        ExperimentConfig(exp, sizes=[5])


# --- determinism ------------------------------------------------------------------


def test_runs_are_reproducible_modulo_wall_time(tmp_path):
    paths = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        write_records_csv(str(out), run_experiment(ExperimentConfig("E4", kmin=4, kmax=6, samples=3)).records)
        paths.append(out)
    a, b = (strip_wall(path.read_text(encoding="utf-8")) for path in paths)
    assert a == b
    assert len(a) == 1 + 3 * 3  # header + one record per (size, sample)


def test_the_seed_changes_the_data():
    vals = []
    for seed in (1, 2):
        cfg = ExperimentConfig("E3", kmin=2, kmax=4, samples=2, seed=seed)
        result = run_experiment(cfg)
        vals.append(tuple(r.value for r in result.records))
    assert vals[0] != vals[1]


def test_fits_need_at_least_three_grid_points():
    with pytest.raises(ValueError, match="at least 3 levels"):
        ExperimentConfig("E4", kmin=5, kmax=5, samples=2)


# --- worker processes -------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# small plans of the sampled experiments; E3's reaches k = 6, whose complex SVDs move
# with the BLAS thread count (E4's and E8's real rank-one spectra gave the same bits
# at 1 and 2 threads, at n = 128, 256 and 512)
SAMPLED_PLANS = {"E3": ["--kmin", "4", "--kmax", "6", "--samples", "4"],
                 "E4": ["--kmin", "5", "--kmax", "7", "--samples", "3"],
                 "E8": ["--kmin", "5", "--kmax", "7", "--samples", "2"]}


@pytest.fixture
def fresh_pool():
    """No worker lives before or after the test, so its first dealt run starts the pool."""
    experiments._reap()
    yield
    experiments._reap()


@pytest.fixture
def started(monkeypatch, fresh_pool):
    """Every process started through subprocess.Popen while the test runs."""
    procs = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return procs


def run_python(args, **env):
    """Run a fresh interpreter that imports tritrunc from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))), **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def run_cli_at(threads, *argv):
    """``tritrunc experiment run`` in a fresh interpreter at a BLAS thread budget; returns
    (exit code, stderr, stdout, CSV without wall_ms, fits.json) for the output path argv[-1]."""
    proc = run_python(["-m", "tritrunc", "experiment", "run", *argv], **dict.fromkeys(BLAS_VARS, str(threads)))
    out = Path(argv[-1])
    return (proc.returncode, proc.stderr, proc.stdout, strip_wall(out.read_text(encoding="utf-8")),
            out.with_suffix(".fits.json").read_text(encoding="utf-8"))


def test_worker_count_follows_the_blas_thread_budget(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    assert experiments._worker_count() == 4  # no budget granted: the CPUs
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert experiments._worker_count() == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")  # read first, capped by the CPUs
    assert experiments._worker_count() == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # one thread: runs stay in this process
    assert experiments._worker_count() == 0
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")  # unset in effect: the next variable decides
    assert experiments._worker_count() == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "\u00b2")  # a digit int() rejects: not a budget either
    assert experiments._worker_count() == 3
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert experiments._worker_count() == 4


@pytest.mark.parametrize("exp", sorted(SAMPLED_PLANS))
def test_sampled_runs_are_identical_for_any_worker_count(exp, tmp_path, monkeypatch, capsys, started):
    # one thread runs in the command-line process; three workers are more than this host's CPUs
    argv = [exp, *SAMPLED_PLANS[exp], "--out"]
    code, err, *serial = run_cli_at(1, *argv, str(tmp_path / "t1.csv"))
    assert code == 0 and err == ""
    monkeypatch.setattr(experiments, "_worker_count", lambda: 3)
    assert cli.main(["experiment", "run", *argv, str(tmp_path / "w3.csv")]) == 0
    pooled = [capsys.readouterr().out, strip_wall((tmp_path / "w3.csv").read_text(encoding="utf-8")),
              (tmp_path / "w3.fits.json").read_text(encoding="utf-8")]
    assert serial == pooled
    # the command-line process and the three workers of the pooled run, still serving
    assert len(started) == 1 + 3 and started[0].returncode == 0
    assert experiments._POOL == started[1:] and all(proc.poll() is None for proc in started[1:])


# every registered id, the sampled ones at a small plan
@pytest.mark.parametrize("exp", EXPERIMENT_IDS)
def test_every_run_is_identical_at_any_thread_count(exp, tmp_path):
    outputs = [run_cli_at(threads, exp, *SAMPLED_PLANS.get(exp, []), "--out", str(tmp_path / f"t{threads}.csv"))
               for threads in (1, 2)]
    assert outputs[0][:2] == (1 if exp == "E7" else 0, "")  # E7's registered fit is the known red
    assert outputs[0] == outputs[1]


def _openblas_with_avx2_fma():
    """numpy's BLAS is OpenBLAS, and this CPU runs its Haswell kernels (AVX2 and FMA)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        flags = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(encoding="utf-8"), re.M).group(1)
    except (TypeError, KeyError, OSError, AttributeError):  # numpy < 1.25, another BLAS, no /proc
        return False
    return "openblas" in str(blas).lower() and {"avx2", "fma"} <= set(flags.split())


# one interpreter per OpenBLAS core: each argv through tritrunc.cli.main, its exit code and stdout as JSON
CORE_RUN = """
import contextlib, io, json, sys
from tritrunc.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""
CORE_FREE_IDS = ("E1", "E4", "E5", "E6", "E7", "E8", "E9")


@pytest.mark.skipif(not _openblas_with_avx2_fma(), reason="needs numpy on OpenBLAS and a CPU with AVX2 and FMA")
def test_outputs_without_a_dense_svd_are_the_same_on_both_openblas_cores(tmp_path):
    # closed-form spectra (E1, E9), dqds (E4, E8, multiplier-bound) and quadrature (E5-E7) take no dense
    # SVD, and each fits.json is a closed-form fit of its CSV values, so no byte may depend on the core
    outputs = []
    for core in ("", "Haswell"):
        out = tmp_path / (core or "default")
        out.mkdir()
        argvs = [["experiment", "run", exp, "--out", str(out / f"{exp}.csv")] for exp in CORE_FREE_IDS]
        argvs += [["multiplier-bound", "--delta-k", str(k), "--p", "0.5", "--budget", "50", "--seed", "1701"]
                  for k in range(1, 8)]
        env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env.update(dict.fromkeys(BLAS_VARS, "1"), PYTHONPATH=os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH")))))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, "-c", CORE_RUN, json.dumps(argvs)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        files = {path.name: strip_wall(path.read_text(encoding="utf-8")) if path.suffix == ".csv"
                 else path.read_bytes() for path in out.iterdir()}
        assert len(files) == 2 * len(CORE_FREE_IDS)
        outputs.append((json.loads(proc.stdout), files))
    (runs, files), (core_runs, core_files) = outputs
    assert [code for code, _ in runs] == [0, 0, 0, 0, 1, 0, 0] + [0] * 7  # E7's registered fit is the known red
    assert runs == core_runs
    for name in sorted(files):
        assert files[name] == core_files[name], name


def test_mask_runs_compute_no_spectrum(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "_worker_count", lambda: 0)  # in this process, where the counters are
    monkeypatch.setattr(matrices, "singular_values", counted("singular_values", matrices.singular_values))
    for name in ("svd", "eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    for exp in ("E1", "E9"):
        assert run_experiment(ExperimentConfig(exp)).verdict
    assert calls == []
    schatten_quasinorm(np.eye(2), 0.5)  # the counters do see a call
    assert calls == ["singular_values", "svd"]


def test_pooled_points_merge_in_serial_order(monkeypatch, fresh_pool):
    # a check that fails on every point lists every point in its detail, in (k, s) order
    spec = experiments._REGISTRY["E3"]
    check = experiments._Check("every_point", "band_ratio", lambda p, k, n, v: -math.inf)
    monkeypatch.setitem(experiments._REGISTRY, "E3", dataclasses.replace(spec, check=check))
    cfg = ExperimentConfig("E3", kmin=2, kmax=4, samples=3)
    results = []
    for workers in (0, 3):
        monkeypatch.setattr(experiments, "_worker_count", lambda: workers)
        results.append(run_experiment(cfg))
    serial, pooled = ([dataclasses.replace(r, wall_ms=0.0) for r in result.records] for result in results)
    assert serial == pooled
    assert results[0].fits == results[1].fits and results[0].checks == results[1].checks
    assert [d.split(":")[0] for d in results[1].checks[0].detail.split("; ")] == [
        f"p=0.5 k={k} sample {s}" for k in (2, 3, 4) for s in range(3)
    ]


def test_a_second_dealt_run_starts_no_process(monkeypatch, started):
    monkeypatch.setattr(experiments, "_worker_count", lambda: 2)
    assert run_experiment(ExperimentConfig("E8", kmin=4, kmax=6, samples=2)).verdict
    assert len(started) == 2 and experiments._POOL == started
    # a single-sample experiment goes to the same workers
    assert run_experiment(ExperimentConfig("E1")).verdict
    assert len(started) == 2 and experiments._POOL == started
    assert all(proc.poll() is None for proc in started)


def test_a_worker_error_reaches_the_caller(monkeypatch, capsys, started):
    monkeypatch.setattr(experiments, "_worker_count", lambda: 2)
    cfg = ExperimentConfig("E3", kmin=2, kmax=4, samples=2)
    object.__setattr__(cfg, "seed", 2**64)  # past the plan check, so derive_seed raises in the workers
    with pytest.raises(ValueError, match="outside the 64-bit range"):
        run_experiment(cfg)
    # the other worker's answer is unread, so the whole pool is gone
    assert experiments._POOL == [] and len(started) == 2
    assert all(proc.returncode is not None for proc in started)
    # through the command line the same error is a usage error
    monkeypatch.setattr(cli, "ExperimentConfig", lambda experiment, **plan: cfg)
    assert cli.main(["experiment", "run", "E3"]) == 2
    assert "outside the 64-bit range" in capsys.readouterr().err
    assert experiments._POOL == [] and len(started) == 4
    assert all(proc.returncode is not None for proc in started)
    # and the next run starts a new pool and succeeds
    assert run_experiment(ExperimentConfig("E3", kmin=2, kmax=4, samples=2)).verdict
    assert experiments._POOL == started[4:] and len(started) == 6


def test_a_failed_worker_process_is_an_error(monkeypatch, started):
    monkeypatch.setattr(experiments, "_worker_count", lambda: 2)
    cfg = ExperimentConfig("E3", kmin=2, kmax=4, samples=2)
    # dies at the read: each worker exits once its request has arrived
    monkeypatch.setattr(experiments, "_WORKER_MAIN", "import sys; sys.stdin.buffer.read(1); sys.exit(3)")
    with pytest.raises(RuntimeError, match="exited with code 3") as info:
        run_experiment(cfg)
    assert isinstance(info.value.__cause__, EOFError)
    # the first worker's exit is the error; the other has exited too, or was killed
    assert started[0].returncode == 3 and started[1].returncode is not None and experiments._POOL == []
    # dies at the write: both workers have exited before the run
    dead = [subprocess.Popen([sys.executable, "-c", "import sys; sys.exit(3)"], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE) for _ in range(2)]
    assert [proc.wait() for proc in dead] == [3, 3]
    experiments._POOL.extend(dead)
    with pytest.raises(RuntimeError, match="exited with code 3") as info:
        run_experiment(cfg)
    assert isinstance(info.value.__cause__, BrokenPipeError) and experiments._POOL == []
    assert all(proc.stdin.closed and proc.stdout.closed for proc in dead)


def test_a_process_that_dealt_a_run_leaves_no_worker_behind():
    # this exit hook is registered before tritrunc's own, so it runs after it
    code = """if True:
        import atexit
        procs = []
        atexit.register(lambda: print([proc.poll() for proc in procs]))
        from tritrunc import experiments
        experiments._worker_count = lambda: 2
        assert experiments.run_experiment(experiments.ExperimentConfig("E8", kmin=4, kmax=6, samples=2)).verdict
        procs.extend(experiments._POOL)
        print([proc.pid for proc in procs])
    """
    proc = run_python(["-c", code])
    assert proc.returncode == 0 and proc.stderr == ""
    pids, codes = map(json.loads, proc.stdout.splitlines())
    assert len(pids) == 2 and codes == [-9, -9]  # killed and waited for at exit
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_importing_tritrunc_loads_no_process_machinery():
    code = "import sys, tritrunc.cli; print(sorted({'subprocess', 'multiprocessing'} & set(sys.modules)))"
    proc = run_python(["-c", code])
    assert proc.returncode == 0 and proc.stdout == "[]\n"


# --- on-disk formats ---------------------------------------------------------------


def test_csv_and_fit_formats(tmp_path, capsys):
    out = tmp_path / "e6.csv"
    assert cli.main(["experiment", "run", "E6", "--kmin", "3", "--kmax", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("[E6] ")
    result = run_experiment(ExperimentConfig("E6", kmin=3, kmax=5))

    raw = out.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "experiment,p,k,n,sample,quantity,value,wall_ms"
    assert len(lines) == 1 + len(result.records)
    for line, record in zip(lines[1:], result.records):
        fields = line.split(",")
        assert fields[0] == "E6"
        assert float(fields[6]) == record.value  # 17 significant digits round-trip
        assert fields[6] == f"{record.value:.17g}"

    fits = json.loads((tmp_path / "e6.fits.json").read_text(encoding="utf-8"))
    assert [list(f.keys()) for f in fits] == [
        ["experiment", "p", "target", "slope", "intercept", "max_residual", "pass"]
    ]
    assert fits[0]["experiment"] == "E6"
    assert fits[0]["pass"] == result.fits[0][1].passed


def test_output_location_is_validated_before_compute(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(experiments, "_measure_all", lambda *a: calls.append("_measure_all"))

    def rejects(out, message):
        assert cli.main(["experiment", "run", "E1", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and re.match(f"error: {message}", captured.err)

    (tmp_path / "taken.fits.json").mkdir()  # the fit summary's path, <stem>.fits.json, is a directory
    for out in (str(tmp_path / "taken.csv"), str(tmp_path / "taken")):
        rejects(out, "output path is a directory: .*taken.fits.json")
    (tmp_path / "taken.fits.json").rmdir()
    for out, message in (("", "out must be a nonempty path, got ''"),
                         (str(tmp_path / "missing" / "x.csv"), "output directory does not exist"),
                         (str(tmp_path), "output path is a directory"),
                         (str(tmp_path / "new") + os.sep, "output path is a directory"),
                         (os.path.join(tmp_path, "new", "."), "output path is a directory"),
                         (os.path.join(tmp_path, "new", ".."), "output path is a directory")):
        rejects(out, message)
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_records_are_sorted_by_the_published_key():
    result = run_experiment(ExperimentConfig("E8", kmin=4, kmax=6, samples=2))
    keys = [(r.experiment, r.p, r.k, r.n, r.quantity, r.sample) for r in result.records]
    assert keys == sorted(keys)


def _trace_norm(a):
    return np.linalg.svd(a, compute_uv=False).sum()


def test_e8_rank_one_ratio_is_the_projection_of_its_seeded_draw():
    # ||triu(T)||_1 / ||T||_1 from each seeded draw T = u v^*; at p = 1 the dense route has no
    # rounding floor, so the factored value must match it
    result = run_experiment(ExperimentConfig("E8", p=1.0, kmin=4, kmax=6, samples=2))
    assert len(result.records) == 6
    for r in result.records:
        assert r.quantity == "projection_ratio_rank_one"
        gen = SplitMix64(derive_seed("E8", DEFAULT_SEED, "rank_one", r.n, r.sample))
        t_mat = np.outer(gen.complex_normal(r.n), gen.complex_normal(r.n).conj())
        assert r.value == pytest.approx(_trace_norm(np.triu(t_mat)) / _trace_norm(t_mat), rel=1e-12)


def test_e4_weak_decay_is_the_projection_spectrum_of_its_seeded_draw():
    # max_j (j + 1) s_j(triu(T)) / ||T||_1 from each seeded draw T = u v^*, at n = 16, 32 and 64
    result = run_experiment(ExperimentConfig("E4", kmin=4, kmax=6, samples=2))
    assert len(result.records) == 6
    for r in result.records:
        gen = SplitMix64(derive_seed("E4", DEFAULT_SEED, r.n, r.sample))
        t_mat = np.outer(gen.complex_normal(r.n), gen.complex_normal(r.n).conj())
        decay = np.linalg.svd(np.triu(t_mat), compute_uv=False)
        want = np.max((1.0 + np.arange(r.n)) * decay) / _trace_norm(t_mat)
        assert r.value == pytest.approx(want, rel=1e-12)


def test_e3_band_ratio_is_the_band_estimate_of_its_seeded_draw():
    # ||Gamma_phi||_{S_p} / (2^{(k+1)/p} ||phi||_{L^p}) from each seeded band phi on 2^{k-1}+1 .. 2^{k+1}-1,
    # with a gathered Hankel matrix and Horner-summed L^p (measured worst 2.2e-16 relative at k = 2..5)
    result = run_experiment(ExperimentConfig("E3", kmin=2, kmax=5, samples=2))
    assert len(result.records) == 8
    for r in result.records:
        assert (r.quantity, r.p) == ("band_ratio", 0.5)
        lo, d = 2 ** (r.k - 1) + 1, 2 ** (r.k + 1) - 1
        band = SplitMix64(derive_seed("E3", DEFAULT_SEED, r.k, r.sample)).complex_normal(d + 1 - lo)
        coeffs = np.zeros(2 * d + 1, dtype=complex)
        coeffs[lo : d + 1] = band
        gamma = coeffs[np.add.outer(np.arange(d + 1), np.arange(d + 1))]
        schatten = np.sum(np.linalg.svd(gamma, compute_uv=False) ** r.p) ** (1 / r.p)
        phi = TrigPoly(lo, band)
        want = schatten / (2.0 ** ((r.k + 1) / r.p) * direct_lp(phi, r.p, quadrature_floor(phi)))
        assert r.value == pytest.approx(want, rel=1e-12)


def test_a_projected_pair_the_kernel_refuses_takes_the_dense_svd():
    # a draw with a zero entry, or with entries near 1e-170 whose bidiagonal entry 1/(x_0 y_0) overflows,
    # has no usable bidiagonal inverse: its spectrum is the SVD of triu(|u| |v|^T) with its zero rows and
    # columns dropped, then exact zeros, bit for bit
    class Draw:
        def __init__(self, entries):
            self.entries = entries

        def complex_normal_rows(self, count, size):
            rows = SplitMix64(derive_seed("projected-pair-zero")).complex_normal_rows(count, size)
            for index, value in self.entries:
                rows[index] = value
            return rows

    for entries in ([((0, 2), 0.0)], [((0, 0), 1e-170), ((1, 0), 1e-170)]):
        spectrum, norm = experiments._projected_pair(Draw(entries), 6)
        u, v = Draw(entries).complex_normal_rows(2, 6)
        assert np.array_equal(spectrum, trimmed_triu_spectrum(np.abs(u), np.abs(v)))
        assert norm == float(np.linalg.norm(u) * np.linalg.norm(v))
        # the zero entry leaves a zero row, and |u_0| |v_0| underflows to 0 in column 0, which is then zero
        assert np.count_nonzero(spectrum) == 5 and spectrum[-1] == 0.0


# --- verdicts ----------------------------------------------------------------------


def test_e1_recovers_the_registered_growth_rate():
    result = run_experiment(ExperimentConfig("E1", p=0.5, kmin=4, kmax=8))
    ((_, fit),) = result.fits
    assert fit.target == 2.0
    assert 1.9 <= fit.slope <= 2.1
    assert result.verdict


# the laws hold on both sides of p = 1: S_p(chi_n) ~ n^max(1/p, 1) (E1, E9, and E7's Besov side)
# and ||P_n||_{S_p} ~ n^max(1/p - 1, 0) (E6, E8), bounded for p > 1
@pytest.mark.parametrize("exp, p, kmax, target", [("E1", 3.0, None, 1.0), ("E9", 0.5, None, 2.0),
                                                  ("E6", 2.0, 7, 0.0), ("E7", 2.0, 7, 1.0), ("E8", 2.0, 7, 0.0)])
def test_a_law_holds_on_the_other_side_of_p_one(exp, p, kmax, target):
    result = run_experiment(ExperimentConfig(exp, p=p, kmax=kmax, samples=2 if exp == "E8" else None))
    assert [fit.target for _, fit in result.fits] == [target]
    assert result.verdict


# id -> (quantities in measure order, p column, check names); sampled ids draw
# cfg.samples per point, the others one and reject the field
REGISTRY_SHAPE = {
    "E1": (["schatten_quasinorm"], [0.5, 2.0 / 3.0], []),
    "E2": (["witness_ratio", "multiplier_upper"], [0.5], ["witness_ratio_below_analytic_upper"]),
    "E3": (["band_ratio"], [0.5], ["band_upper_inequality"]),
    "E4": (["weak_decay_max"], [1.0], []),
    "E5": (["normalized_ratio", "riesz_ratio"], [1.0], []),
    "E6": (["riesz_projection_ratio"], [0.5], []),
    "E7": (["besov_total", "top_level_term"], [0.5], ["top_level_term_at_least_2k"]),
    "E8": (["projection_ratio_rank_one"], [0.5], []),
    "E9": (["schatten_quasinorm"], [2.0, 4.0], []),
}
SAMPLED = {"E3", "E4", "E8"}


@pytest.mark.parametrize("exp", EXPERIMENT_IDS)
def test_registry_smoke(exp):
    quantities, ps, check_names = REGISTRY_SHAPE[exp]
    samples = 2 if exp in SAMPLED else 1
    result = run_experiment(ExperimentConfig(exp, kmin=2, kmax=4, samples=samples if exp in SAMPLED else None))
    records = result.records
    assert len(records) == len(ps) * 3 * samples * len(quantities)
    assert {r.quantity for r in records} == set(quantities)
    assert sorted({r.p for r in records}) == ps == [p for p, _ in result.fits]
    assert {(r.k, r.sample) for r in records} == {(k, s) for k in (2, 3, 4) for s in range(samples)}
    assert [c.name for c in result.checks] == check_names
    keys = [(r.experiment, r.p, r.k, r.n, r.quantity, r.sample) for r in records]
    assert keys == sorted(keys)
    # a point's whole measure time sits on its first quantity's row
    assert all(r.wall_ms == 0.0 for r in records if r.quantity in quantities[1:])


def test_e7_small_run_mechanics():
    result = run_experiment(ExperimentConfig("E7", kmin=3, kmax=5))
    quantities = {r.quantity for r in result.records}
    assert quantities == {"besov_total", "top_level_term"}
    (check,) = result.checks
    assert check.name == "top_level_term_at_least_2k"
    assert check.ok


# --- hard checks: one declared bound on one quantity ---------------------------------


@pytest.mark.parametrize("scale, failing", [(1.0, []), (0.99, ["p=0.5 k=10", "p=0.5 k=11"])])
def test_a_check_bound_reads_p(monkeypatch, scale, failing):
    # S_p(chi_n)^p <= (n + 1/2) J_p at p < 1: mask_spectrum is a midpoint sum of the convex (2 sin t)^{-p},
    # so Hermite-Hadamard bounds it by the integral.  Measured S_p^p / ((n + 1/2) J_p) is 0.99067 and 0.99347
    # at p = 1/2, k = 10 and 11, and at most 0.9638 at p = 2/3, so 0.99 J_p fails at those two points alone
    check = experiments._Check("below_closed_form", "schatten_quasinorm",
                               lambda p, k, n, v: ((n + 0.5) * scale * jump_mass(p)) ** (1 / p))
    monkeypatch.setitem(experiments._REGISTRY, "E1", dataclasses.replace(experiments._REGISTRY["E1"], check=check))
    (result,) = run_experiment(ExperimentConfig("E1")).checks
    assert result.name == "below_closed_form" and result.ok == (not failing)
    if failing:
        assert [d.split(" sample ")[0] for d in result.detail.split("; ")] == failing
        assert all(" > " in d for d in result.detail.split("; "))
    else:
        assert result.detail == "all 16 schatten_quasinorm values <= the bound"


@pytest.mark.parametrize("exp, quantity, floor, relation", [("E2", "witness_ratio", False, ">"),
                                                            ("E7", "top_level_term", True, "<")])
def test_a_nan_bound_fails_every_point(monkeypatch, exp, quantity, floor, relation):
    check = experiments._Check("nan_bound", quantity, lambda p, k, n, v: math.nan, floor=floor)
    monkeypatch.setitem(experiments._REGISTRY, exp, dataclasses.replace(experiments._REGISTRY[exp], check=check))
    result = run_experiment(ExperimentConfig(exp, kmin=4, kmax=6))
    (checked,) = result.checks
    assert not checked.ok and not result.verdict
    details = checked.detail.split("; ")
    assert [d.split(":")[0] for d in details] == [f"p=0.5 k={k} sample 0" for k in (4, 5, 6)]
    assert all(d.endswith(f" {relation} nan") for d in details)
