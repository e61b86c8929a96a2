"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


@pytest.fixture
def tracer():
    """A tracer installed on tritrunc; every binding is restored afterwards."""
    import importlib
    import inspect
    import pkgutil

    import tritrunc

    mods = [tritrunc] + [importlib.import_module(f"tritrunc.{m.name}") for m in pkgutil.iter_modules(tritrunc.__path__)
                         if m.name != "__main__"]
    owners = mods + [c for m in mods for c in vars(m).values()
                     if inspect.isclass(c) and c.__module__.startswith("tritrunc")]
    saved = [(o, dict(vars(o))) for o in owners]
    t = spans.Tracer()
    t.install()
    t.active = True
    yield t
    t.active = False
    for owner, attrs in saved:
        for k, v in attrs.items():
            if inspect.isfunction(v) and getattr(owner, k) is not v:
                setattr(owner, k, v)


def test_betainc_closed_forms():
    for x in (0.0, 0.1, 0.5, 0.93, 1.0):
        assert run.betainc(3.5, 1.0, x) == pytest.approx(x**3.5, abs=1e-12)
        assert run.betainc(1.0, 2.5, x) == pytest.approx(1 - (1 - x) ** 2.5, abs=1e-12)
    assert run.betainc(60.5, 60.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert run.betainc(2.0, 3.0, 0.4) == pytest.approx(0.5248, abs=1e-12)


def test_percentile_leaves_ten_samples_beyond_p90():
    values = list(range(100, 0, -1))
    p90 = run.percentile(values, 90)
    assert 90 < p90 < 91
    assert sum(v > p90 for v in values) == 10
    # A symmetric sample has its Harrell-Davis median at its centre.
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert run.percentile([7.0], 90) == pytest.approx(7.0)
    assert run.percentile([3.0] * 120, 50) == pytest.approx(3.0)


def test_percentile_moves_smoothly_across_a_gap():
    # 59 fast calls and 61 slow ones: moving one call across the gap moves
    # the nearest-rank median by the whole gap, the estimate by a few percent.
    fast, slow = [8.0] * 59 + [13.0] * 61, [8.0] * 60 + [13.0] * 60
    assert abs(run.percentile(fast, 50) / run.percentile(slow, 50) - 1) < 0.05


def test_calibrated_pass_times_the_kernel_around_every_call():
    argvs = [["spnorm", "--delta", "8", "--p", "1"], ["spnorm", "--chi", "9", "--p", "2"]]
    ms, codes, _, cal = worker.run_pass(argvs, calibrated=True)
    assert codes == [0, 0] and len(ms) == 2
    assert len(cal) == 3 and all(c > 0 for c in cal)
    assert worker.run_pass(argvs)[3] == []


def test_self_time_subtracts_union_of_children():
    # name, parent, o0, t0, t1, o1: the children overlap and one runs past its parent.
    recorded = [
        ["p", -1, 0.0, 0.0, 10.0, 10.0, None],
        ["c", 0, 1.0, 1.5, 2.5, 3.0, None],
        ["c", 0, 2.0, 2.0, 4.0, 4.0, None],
        ["c", 0, 8.0, 8.0, 12.0, 12.0, None],
        ["g", 3, 9.0, 9.0, 11.0, 11.0, None],
    ]
    assert spans.self_times(recorded) == pytest.approx([10.0 - 3.0 - 2.0, 1.0, 2.0, 2.0, 2.0])


def test_nested_spans_with_fake_clock():
    ticks = iter(range(100))
    t = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("kernels.apply_window", lambda: None)
    outer = t.wrap("hankel.besov_quasinorm", lambda: inner())
    t.active = True
    outer()
    # outer: o0=0 t0=1 [inner: o0=2 t0=3 t1=4 o1=5] t1=6 o1=7
    assert [s[0] for s in t.spans] == ["hankel.besov", "kernels.window"]
    assert spans.self_times(t.spans) == [5.0 - 3.0, 1.0]


def test_install_leaves_no_binding_unwrapped(tracer):
    import tritrunc
    import tritrunc.cli
    import tritrunc.hankel
    import tritrunc.matrices

    original = tracer.originals["matrices.singular_values"]
    for owner in (tritrunc, tritrunc.matrices, tritrunc.hankel, tritrunc.cli):
        for val in vars(owner).values():
            assert val is not original
    assert tritrunc.matrices.schatten_quasinorm.__wrapped__ is tracer.originals["matrices.schatten_quasinorm"]
    assert "fitting.fit_powerlaw" not in tracer.originals


def test_rng_words_are_counted_at_the_leaves(tracer):
    from tritrunc.rng import SplitMix64

    gen = SplitMix64(1)
    gen.complex_normal(5)  # two normal(5) calls, each two uniform(3) calls
    gen.integers(4, 9)
    m, _ = spans.layer_metrics(tracer.spans)
    assert m["rng.words"] == 2 * 2 * 3 + 4
    assert m["rng.calls"] == 2
    assert m["rng.ns_per_word"] == pytest.approx(m["rng.self_s"] * 1e9 / 16)


def test_padding_and_repeat_share_of_lp_calls(tracer):
    from tritrunc.trigpoly import TrigPoly, lp_quasinorm

    padded = TrigPoly(0, [0.0] * 100 + [1.0, 2.0, 3.0] + [0.0] * 20)  # stored span 123, nonzero span 3
    lp_quasinorm(padded, 0.5)
    lp_quasinorm(TrigPoly(7, [1.0, 2.0, 3.0]), 0.5)  # same trimmed input: a repeat
    m, absent = spans.layer_metrics(tracer.spans)
    samples = 512 * 123 + 4096
    assert m["trigpoly.lp.calls"] == 2
    assert m["trigpoly.lp.samples"] == samples
    assert m["trigpoly.lp.padding_share"] == pytest.approx(1 - 2 * 4096 / samples)
    assert m["trigpoly.lp.repeat_share"] == 0.5
    assert "trigpoly.lp.calls" not in absent and "matrices.svd.calls" in absent


def test_svd_flops_and_witness_improvements(tracer):
    from tritrunc.matrices import delta_matrix
    from tritrunc.multipliers import random_witness_search

    random_witness_search(delta_matrix(4), 0.5, 6, seed=3)
    m, _ = spans.layer_metrics(tracer.spans)
    svd = [s[6] for s in tracer.spans if s[0] == "matrices.svd"]
    assert m["matrices.svd.gflop_computed"] == pytest.approx(
        sum((4 * a * b * b - 4 * b**3 / 3) * (4 if c else 1) for a, b, c, _ in svd) / 1e9)
    ratios = [s[6] for s in tracer.spans if s[0] == "multipliers.witness"]
    best, improved = ratios[0], 0
    for r in ratios[1:]:
        improved += r > best
        best = max(best, r)
    assert m["multipliers.witness.calls"] == len(ratios) == 2 + 6
    assert m["multipliers.search.improve_share"] == improved / len(ratios)


@pytest.mark.parametrize("n", [1, 2, 8, 100])
def test_mask_closed_form_matches_lapack(n):
    idx = np.arange(n)
    mask = (np.add.outer(idx, idx) < n).astype(float)
    for p in worker.QUERY_PS:
        s = np.linalg.svd(mask, compute_uv=False)
        assert worker.mask_schatten(n, p) == pytest.approx(np.sum(s**p) ** (1 / p), rel=1e-12)


def test_query_mix_is_seeded_and_stratified():
    a, b = worker.build_inputs("queries", 5, ""), worker.build_inputs("queries", 6, "")
    assert a == worker.build_inputs("queries", 5, "") and a != b
    assert len(a) >= 100
    for argvs in (a, b):
        kinds = [q[0] for q in argvs]
        assert {k: kinds.count(k) for k in worker.QUERY_COUNTS} == worker.QUERY_COUNTS
        sizes = sorted(int(q[2]) for q in argvs if q[0] == "spnorm")
        assert 8 <= sizes[0] and sizes[-1] <= 512


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(worker.WORKLOADS)
