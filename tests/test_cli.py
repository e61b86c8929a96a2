"""Command-line surface: parsing, output formats, exit codes."""

import argparse
import dataclasses
import json
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tritrunc import cli, experiments, matrices
from tritrunc.cli import build_parser, main
from tritrunc.experiments import EXPERIMENT_IDS, ExperimentConfig, _multiplier_interval
from tritrunc.hankel import besov_quasinorm, hankel_multiplier_upper
from tritrunc.kernels import dirichlet_plus
from tritrunc.matrices import delta_matrix, mask_multiplier_ceiling, mask_spectrum
from tritrunc.multipliers import random_witness_search

BIG_SEED = str(2**63)  # one past the largest seed derive_seed encodes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- spnorm ---------------------------------------------------------------------


def test_spnorm_chi(capsys):
    code, out, err = run_cli(capsys, "spnorm", "--chi", "2", "--p", "1")
    assert code == 0 and err == ""
    assert out.startswith("2.2360679")


def test_spnorm_delta_matches_chi(capsys):
    code_a, out_a, _ = run_cli(capsys, "spnorm", "--chi", "7", "--p", "0.5")
    code_b, out_b, _ = run_cli(capsys, "spnorm", "--delta", "7", "--p", "0.5")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_spnorm_ones(capsys):
    # rank one: S_p is the one singular value, N, at every p
    for p in ("0.5", "1", "3"):
        assert run_cli(capsys, "spnorm", "--ones", "3", "--p", p) == (0, "3\n", "")


@pytest.mark.parametrize("which", ["--chi", "--delta", "--ones"])
def test_spnorm_reads_closed_forms(capsys, monkeypatch, which):
    calls = []
    for name in set(np.linalg.__all__) - {"LinAlgError"}:
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, **k: calls.append(_name))
    code, out, err = run_cli(capsys, "spnorm", which, "512", "--p", "0.5")
    assert code == 0 and err == "" and float(out) > 0
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [["spnorm", flag, "0", "--p", "0.5"] for flag in ("--chi", "--delta", "--ones")]
    + [["besov", "--dirichlet", "0", "--p", "0.5"]],
)
def test_a_size_below_one_names_its_flag(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", f"error: {argv[1]} must be >= 1, got 0\n")


def test_spnorm_rejects_nonpositive_p(capsys):
    code, out, err = run_cli(capsys, "spnorm", "--chi", "2", "--p", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_spnorm_requires_exactly_one_matrix(capsys):
    assert run_cli(capsys, "spnorm", "--p", "1")[0] == 2
    assert run_cli(capsys, "spnorm", "--chi", "2", "--delta", "2", "--p", "1")[0] == 2


# --- parser-level failures --------------------------------------------------------


def test_bare_invocation_is_a_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_unknown_subcommand_and_flag(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "spnorm", "--chi", "2", "--p", "1", "--bogus")[0] == 2
    assert run_cli(capsys, "multiplier-bound", "--kmin", "1", "--kmax", "2", "--p", "0.5")[:2] == (2, "")


# --- one parser per process ---------------------------------------------------------

# successes, usage errors and help, interleaved; a budgeted search comes right before a call on the
# default budget and seed, whose lower end it beats, so a value left over from one call would change the next
INTERLEAVED = [
    (["spnorm", "--chi", "5", "--p", "0.5"], 0),
    (["besov", "--dirichlet", "9", "--p", "0.5", "--levels"], 0),
    (["spnorm", "--p", "1"], 2),
    (["multiplier-bound", "--delta-k", "3", "--p", "0.5", "--budget", "4", "--seed", "3"], 0),
    (["spnorm", "--chi", "2", "--delta", "2", "--p", "1"], 2),
    (["multiplier-bound", "--delta-k", "3", "--kmin", "2", "--p", "0.5"], 2),
    (["frobnicate"], 2),
    (["--help"], 0),
    (["spnorm", "--delta", "7", "--p", "0.75"], 0),
    (["spnorm", "--help"], 0),
    (["multiplier-bound", "--delta-k", "1", "--p", "1.0", "--budget", "4", "--seed", "5"], 0),
    (["multiplier-bound", "--delta-k", "1", "--p", "1.0"], 0),
    (["besov", "--dirichlet", "17", "--p", "1"], 0),
    (["spnorm", "--ones", "4", "--p", "0.5"], 0),
]


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_a_reused_parser_answers_like_a_fresh_one(capsys, fresh_parser):
    def run_all(rebuild):
        seen = []
        for argv, _ in INTERLEAVED:
            if rebuild:
                cli._parser.cache_clear()
            seen.append(run_cli(capsys, *argv))
        return seen

    reused, rebuilt = run_all(rebuild=False), run_all(rebuild=True)
    assert [code for code, _, _ in reused] == [code for _, code in INTERLEAVED]
    assert reused == rebuilt


def test_main_builds_its_parser_once(capsys, monkeypatch, fresh_parser):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for i in range(20):
        run_cli(capsys, *INTERLEAVED[i % len(INTERLEAVED)][0])
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c", "import tritrunc.cli; print(tritrunc.cli._parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout == "0\n"


# --- besov----------------------------------------------------------------------


def test_besov_prints_the_quasinorm(capsys):
    code, out, _ = run_cli(capsys, "besov", "--dirichlet", "5", "--p", "0.5")
    assert code == 0
    want = besov_quasinorm(dirichlet_plus(5), 0.5).total
    assert float(out) == want


def test_besov_of_the_largest_reference_dirichlet_matches_its_total(capsys):
    # the largest chunked quadrature (its level-13 piece sums a 6,138,368-point grid), against the
    # benchmark's recorded total at the benchmark's 1e-6
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(reference.read_text(encoding="utf-8"))["besov_total"]["16385"]
    code, out, _ = run_cli(capsys, "besov", "--dirichlet", "16385", "--p", "0.5")
    assert code == 0
    assert float(out) == pytest.approx(want, rel=1e-6, abs=0)


def test_besov_levels_breakdown(capsys):
    code, out, _ = run_cli(capsys, "besov", "--dirichlet", "5", "--p", "0.5", "--levels")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("level 0 term ")
    assert lines[-1] == "zero term 1"
    report = besov_quasinorm(dirichlet_plus(5), 0.5)
    assert len(lines) == 1 + len(report.levels) + 1


@pytest.mark.parametrize(
    "argv, want",
    # the top level's piece, ~1.5e-154 z^513 and ~9.2e-3 z^9, has a p-th power below the
    # smallest double: it adds 0 to an ordinary total, as it always did
    [(["besov", "--dirichlet", "514", "--p", "3"], "240.13853052879807\n"),
     (["besov", "--dirichlet", "10", "--p", "160"], "3.7673431724397828\n")],
    ids=["D514-p3", "D10-p160"],
)
def test_besov_level_whose_power_sum_underflows_adds_zero(capsys, argv, want):
    assert run_cli(capsys, *argv) == (0, want, "")


# --- multiplier-bound --------------------------------------------------------------


def test_multiplier_bound_interval_is_ordered(capsys):
    # both ends are proved bounds on one norm, and the upper end is a closed form with no quadrature
    code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", "3", "--p", "0.5")
    assert code == 0
    lower_line, upper_line = out.splitlines()
    lower = float(lower_line.removeprefix("lower "))
    upper = float(upper_line.removeprefix("upper "))
    assert 1.0 < lower <= upper
    assert upper == mask_multiplier_ceiling(9, 0.5)


@pytest.mark.parametrize("p", ["0.25", "0.5", "0.75", "1.0"])
def test_multiplier_bound_interval_is_ordered_at_every_level(capsys, p):
    # exactly, with no slack: lower <= U_n(p) <= the paper's Hankel-route bound, at budgets 0 and 20
    for k in range(1, 9):
        for budget in ("0", "20"):
            code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", str(k), "--p", p, "--budget", budget)
            assert code == 0
            lower, upper = (float(line.split()[1]) for line in out.splitlines())
            assert lower <= upper <= hankel_multiplier_upper(dirichlet_plus(2**k + 1), float(p)), (k, budget)


def test_multiplier_bound_search_is_deterministic(capsys):
    argv = ("multiplier-bound", "--delta-k", "2", "--p", "0.5", "--budget", "10")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second and first[0] == 0


def test_budgeted_lower_end_is_the_search_value(capsys):
    # --budget B buys B // 2 rank-one draws on the level-k mask, and the pool runs at every budget
    for k, p, budget, seed in ((1, 1.0, 6, 11), (2, 0.5, 0, 3), (2, 0.5, 6, 1), (3, 0.5, 7, 4), (4, 0.5, 40, 9)):
        code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", str(k), "--p", str(p),
                               "--budget", str(budget), "--seed", str(seed))
        assert code == 0
        lower = float(out.splitlines()[0].removeprefix("lower "))
        assert lower == random_witness_search(delta_matrix(2**k + 1), p, budget // 2, seed).ratio


def test_searched_lower_end_at_n_257_is_spnorms_closed_form_over_n(capsys):
    # --budget 8 makes four draws, one dqds call each on a 257 x 257 bidiagonal inverse, and none beats
    # the all-ones pair, so the lower end is S_p(Delta_257) / 257 from spnorm
    code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", "8", "--p", "0.5", "--budget", "8",
                           "--seed", "1701")
    assert code == 0
    lower = float(out.splitlines()[0].removeprefix("lower "))
    closed = float(run_cli(capsys, "spnorm", "--delta", "257", "--p", "0.5")[1]) / 257
    assert lower == pytest.approx(closed, rel=1e-12, abs=0)


# the level-1 row at p = 0.75 moves if the search is given B draws in place of B // 2;
# the upper end is the closed-form ceiling U_n(p) (mask_multiplier_ceiling)
GOLDEN = [
    (["--delta-k", "6", "--p", "0.5", "--budget", "200"],
     ["lower 84.694688069794083", "upper 94.880850594722162"]),
] + [
    (["--delta-k", str(k), "--seed", "11", "--p", p, "--budget", budget], [f"lower {lower}", f"upper {upper}"])
    for p, budget, rows in [
        ("1.0", "1", [("1.2012918238698922", "1.3333333333333335"),
                      ("1.3191867072850816", "1.4944271909999158"),
                      ("1.4695972859741222", "1.6809283938835362"),
                      ("1.6457164113404721", "1.8831766679451896"),
                      ("1.8396563735421374", "2.0942543672296221")]),
        ("0.75", "7", [("1.6546984919533787", "2.0813374638669657"),
                       ("2.094895301735261", "2.5999016681740765"),
                       ("2.7380568064169499", "3.3280713255020968"),
                       ("3.6323011631792754", "4.3070753264910708"),
                       ("4.8330173421794971", "5.5890158798614085")]),
    ]
    for k, (lower, upper) in enumerate(rows, start=1)
]
# upper ends of the GOLDEN rows while they were the paper's Hankel-route bound
# (2n)^{1/p-1} ||D+_n||_{L^p}, which the closed-form ceiling must not exceed
HANKEL_UPPER = [
    199.58396794534923,
    1.4359910881576892, 1.6421884224280721, 1.8800820748620919, 2.1377327434321209, 2.4065257257792352,
    2.4411467741972843, 3.1941441636738697, 4.2612859382191566, 5.7087880991537805, 7.6186807251019388,
]
# lower ends of the GOLDEN rows while the mask was searched zero-padded to the bump
# witness's size 3 * 2^(k-1) + 1, where the all-ones witness scored S_p(Delta_n) / N
PADDED_LOWER = [
    56.754172417903249,
    1.0, 0.94227621948934404, 1.0174135056743925, 1.1190871597115208, 1.2389522515691911,
    1.2410238689650339, 1.4963537869537578, 1.8955777890578887, 2.4699647909619076, 3.2548892304474162,
]


@pytest.mark.parametrize("argv, want", GOLDEN)
def test_multiplier_bound_keeps_its_recorded_outputs(capsys, argv, want):
    code, out, _ = run_cli(capsys, "multiplier-bound", *argv)
    assert code == 0
    got = [line.split() for line in out.splitlines()]
    expected = [line.split() for line in want]
    assert [row[:-1:2] for row in got] == [row[:-1:2] for row in expected]  # labels
    values = [[float(x) for x in row[1::2]] for row in got]
    assert values == [pytest.approx([float(x) for x in row[1::2]], rel=1e-12, abs=0) for row in expected]


@pytest.mark.parametrize("row", range(len(GOLDEN)))
def test_recorded_lower_ends_are_the_all_ones_closed_form(row):
    # on these rows the all-ones witness wins, so the lower end is S_p(Delta_n) / n;
    # searching the zero-padded mask gave less, and those values stay as floors
    argv, want = GOLDEN[row]
    p = float(argv[argv.index("--p") + 1])
    n = 2 ** int(argv[argv.index("--delta-k") + 1]) + 1
    lower = float(want[0].removeprefix("lower "))
    closed = float(np.sum(mask_spectrum(n) ** p) ** (1.0 / p)) / n
    assert lower == pytest.approx(closed, rel=1e-12, abs=0)
    assert lower >= PADDED_LOWER[row]


@pytest.mark.parametrize("row", range(len(GOLDEN)))
def test_recorded_upper_ends_sit_below_the_former_hankel_route_ends(row):
    argv, want = GOLDEN[row]
    p = float(argv[argv.index("--p") + 1])
    n = 2 ** int(argv[argv.index("--delta-k") + 1]) + 1
    upper = float(want[1].removeprefix("upper "))
    assert upper == mask_multiplier_ceiling(n, p)
    assert float(want[0].removeprefix("lower ")) <= upper <= HANKEL_UPPER[row]
    assert HANKEL_UPPER[row] == pytest.approx(hankel_multiplier_upper(dirichlet_plus(n), p), rel=1e-12, abs=0)


def test_budget_zero_runs_the_pool(capsys):
    # the all-ones witness lifts the lower end far above the constructive witness
    # (0.83 at k = 2 and p = 1/2, below the single-entry witness's 1)
    for k in range(2, 7):
        code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", str(k), "--p", "0.5", "--budget", "0")
        assert code == 0
        lower = float(out.splitlines()[0].removeprefix("lower "))
        assert lower == random_witness_search(delta_matrix(2**k + 1), 0.5, 0, 0).ratio
        assert lower > 4 * _multiplier_interval(ExperimentConfig("E2"), 0.5, k, 2**k + 1, 0)["witness_ratio"]


def test_multiplier_bound_holds_no_dense_mask(capsys):
    # at K = 10 (n = 1025) Delta_n is a view of 2n - 1 doubles, and the search's mask check holds one n x n
    # bool temporary at a time (1 MiB); a dense float Delta_n is 8 MiB, and a dense (e_0, e_0) block another 8
    run_cli(capsys, "multiplier-bound", "--delta-k", "2", "--p", "0.5")  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", "10", "--p", "0.5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("lower ")
    assert peak <= 4 * 2**20, peak


def test_multiplier_bound_rejects_k_zero(capsys):
    code, _, err = run_cli(capsys, "multiplier-bound", "--delta-k", "0", "--p", "0.5")
    assert code == 2 and "error:" in err


def test_multiplier_bound_rejects_a_negative_budget(capsys):
    code, out, err = run_cli(capsys, "multiplier-bound", "--delta-k", "3", "--p", "0.5", "--budget", "-5")
    assert code == 2 and out == "" and "--budget must be >= 0" in err


def test_lower_ends_meet_the_trivial_bound_at_p_one(capsys):
    # a single-entry witness scores 1 against any nonzero 0/1 mask, so every lower end is at least 1
    for k in range(1, 8):
        code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", str(k), "--p", "1.0", "--budget", "0")
        assert code == 0 and float(out.splitlines()[0].removeprefix("lower ")) >= 1.0


@pytest.mark.parametrize("p", ["2", "0", "-0.5", "nan"])
@pytest.mark.parametrize("level", [["--delta-k", "6"]])
def test_multiplier_bound_rejects_p_before_any_work(capsys, monkeypatch, level, p):
    calls = []
    monkeypatch.setattr(cli, "random_witness_search", lambda *a: calls.append("random_witness_search"))
    monkeypatch.setattr(cli, "mask_multiplier_ceiling", lambda *a: calls.append("mask_multiplier_ceiling"))
    code, out, err = run_cli(capsys, "multiplier-bound", *level, "--p", p, "--budget", "200")
    want = "p must lie in (0, 1], got 2.0" if p == "2" else "exponent p must be positive and finite"
    assert code == 2 and out == "" and want in err
    assert calls == []


@pytest.mark.parametrize("p", ["0", "-0.5", "nan"])
def test_besov_rejects_p_before_any_work(capsys, monkeypatch, p):
    # at 10^11 the kernel alone would be 745 GiB; p is checked before it is built
    def no_kernel(n):
        raise AssertionError(f"dirichlet_plus({n}) built before p was checked")

    monkeypatch.setattr(cli, "dirichlet_plus", no_kernel)
    code, out, err = run_cli(capsys, "besov", "--dirichlet", "100000000000", "--p", p)
    assert code == 2 and out == "" and "exponent p must be positive and finite" in err


@pytest.mark.parametrize("budget", ["0", "4"])
@pytest.mark.parametrize("level", [["--delta-k", "3"], ["--delta-k", "40"]])
def test_an_unencodable_seed_is_rejected_before_any_svd(capsys, monkeypatch, level, budget):
    # the seed is checked before Delta_n is built (16 TiB at K = 40) and before the first witness, whatever the budget
    calls = []
    monkeypatch.setattr(matrices, "singular_values", lambda a: calls.append(a.shape))
    code, out, err = run_cli(capsys, "multiplier-bound", *level, "--p", "0.5", "--budget", budget, "--seed", BIG_SEED)
    assert code == 2 and out == "" and "outside the 64-bit range" in err
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    # each input's first array is terabytes, so its allocation fails at once
    [["multiplier-bound", "--delta-k", "40", "--p", "0.5"], ["besov", "--dirichlet", "1000000000000", "--p", "0.5"]],
)
def test_an_input_too_large_to_allocate_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: out of memory")


@pytest.mark.parametrize(
    "argv",
    [
        ["spnorm", "--chi", "3", "--p", "0.001"],  # 1/p powers overflow a double
        ["besov", "--dirichlet", "9", "--p", "0.001"],
        ["multiplier-bound", "--delta-k", "3", "--p", "0.001"],
        ["experiment", "run", "E1", "--p", "0.001"],
        ["spnorm", "--chi", "3", "--p", "1e-320"],  # 1/p itself is inf
        ["spnorm", "--chi", "64", "--p", "400"],  # p-th powers overflow a double
        ["besov", "--dirichlet", "9", "--p", "800"],
        ["multiplier-bound", "--delta-k", "1", "--p", "0.0017"],  # U_3(p) overflows; the lower end, 1.5e280, does not
        ["multiplier-bound", "--delta-k", "6", "--p", "0.00587"],  # S_p(Delta_65) overflows; U_65(p), 1.5e308, does not
        ["experiment", "run", "E6", "--p", "1e-10"],  # the 1/p-th power of an L^p power sum underflows to 0
    ],
)
def test_a_result_out_of_range_is_a_usage_error(capsys, argv):
    # the message names the exponent
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert argv[argv.index("--p") + 1] in err


# --- experiment run ----------------------------------------------------------------


def test_experiment_run_reports_and_writes(capsys, tmp_path):
    out = tmp_path / "e6.csv"
    code, text, _ = run_cli(
        capsys, "experiment", "run", "E6", "--kmin", "3", "--kmax", "5", "--out", str(out)
    )
    assert code == 0
    assert text.startswith("[E6] riesz_jump:")
    assert "verdict: pass" in text
    assert out.exists() and (tmp_path / "e6.fits.json").exists()


def test_experiment_run_exit_one_on_failed_fit(capsys, tmp_path):
    # E7's registered plain fit is the known red (see the README); its hard check passes, and the failed
    # run still writes its fit summary
    code, text, _ = run_cli(capsys, "experiment", "run", "E7", "--out", str(tmp_path / "e7.csv"))
    assert code == 1
    assert "check top_level_term_at_least_2k: pass" in text and "verdict: FAIL" in text
    assert (tmp_path / "e7.fits.json").stat().st_size > 0


def test_experiment_output_directory_that_is_not_writable(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)  # mode bits do not bind root
    code, out, err = run_cli(capsys, "experiment", "run", "E1", "--out", str(tmp_path / "e1.csv"))
    assert code == 2 and out == "" and err == f"error: output directory is not writable: {tmp_path}\n"
    assert list(tmp_path.iterdir()) == []


def test_experiment_output_directory_that_is_a_file(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(experiments, "_measure_all", lambda *a: calls.append("_measure_all"))
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    code, out, err = run_cli(capsys, "experiment", "run", "E1", "--out", str(afile / "x.csv"))
    assert code == 2 and out == "" and err == f"error: output directory is not a directory: {afile}\n"
    assert calls == [] and afile.read_text() == "keep\n" and list(tmp_path.iterdir()) == [afile]


def test_experiment_config_below_the_quadrature_floor(capsys):
    # the quadrature grid is no field of the plan, so no flag sets it
    code, out, err = run_cli(capsys, "experiment", "run", "E6", "--oversample", "256")
    assert code == 2 and out == "" and "unrecognized arguments: --oversample 256" in err


def test_experiment_rejects_fields_it_would_ignore(capsys):
    code, out, err = run_cli(capsys, "experiment", "run", "E4", "--p", "0.5")
    assert code == 2 and out == "" and "field p does not apply" in err
    code, out, err = run_cli(capsys, "experiment", "run", "E1", "--samples", "3")
    assert code == 2 and out == "" and "field samples does not apply" in err


def _subcommands(parser):
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


def _flags(command):
    return {action.dest: action.option_strings for action in command._actions if action.option_strings}


def test_every_plan_field_has_exactly_one_flag(capsys, monkeypatch):
    # the flags are the plan's only way in: experiment run takes one --NAME per field, the positional ID
    # supplies experiment, and --out is the command line's own; multiplier-bound takes one level, --delta-k
    commands = _subcommands(build_parser())
    assert _flags(commands["multiplier-bound"]) == {
        "help": ["-h", "--help"], "delta_k": ["--delta-k"], "p": ["--p"], "budget": ["--budget"], "seed": ["--seed"]}
    run = _subcommands(commands["experiment"])["run"]
    flags = _flags(run)
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(flags) - {"help", "out"} == fields - {"experiment"}
    assert all(strings == [f"--{dest}"] for dest, strings in flags.items() if dest != "help")
    (positional,) = [action for action in run._actions if not action.option_strings]
    assert positional.metavar == "ID" and tuple(positional.choices) == EXPERIMENT_IDS
    built = []

    def record(experiment, **plan):
        built.append(dict(plan, experiment=experiment))
        raise ValueError("recorded")

    monkeypatch.setattr(cli, "ExperimentConfig", record)
    code, out, _ = run_cli(capsys, "experiment", "run", "E3", "--p", "0.75", "--kmin", "2", "--kmax", "5",
                           "--samples", "3", "--seed", "7")
    assert code == 2 and out == ""
    assert built == [dict(experiment="E3", p=0.75, kmin=2, kmax=5, samples=3, seed=7)]


def test_experiment_rejects_p_above_one_for_e2_before_any_work(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "_measure_all", lambda *a: calls.append("_measure_all"))
    code, out, err = run_cli(capsys, "experiment", "run", "E2", "--p", "1.5")
    assert code == 2 and out == "" and "p must lie in (0, 1], got 1.5" in err
    assert calls == []


def test_experiment_all_resolves_every_config_before_running(capsys, monkeypatch, tmp_path):
    # E1..E3 resolve at --kmax 6, E4's plan then has only levels 5..6, and the command stops with no output
    # directory made; --p is no flag of 'all', since E4 and E5 take no p
    resolved = []

    def resolve(experiment, **plan):
        resolved.append(experiment)
        return ExperimentConfig(experiment, **plan)

    monkeypatch.setattr(cli, "ExperimentConfig", resolve)
    results = tmp_path / "results"
    code, out, err = run_cli(capsys, "experiment", "all", "--kmax", "6", "--out", str(results))
    assert (code, out, err) == (2, "", "error: a fit needs at least 3 levels, got kmin=5 kmax=6\n")
    assert resolved == ["E1", "E2", "E3", "E4"] and not results.exists()
    code, out, err = run_cli(capsys, "experiment", "all", "--p", "0.5", "--out", str(results))
    assert code == 2 and out == "" and "unrecognized arguments: --p 0.5" in err
    assert not results.exists()


@pytest.mark.parametrize("taken", ["E5.fits.json", "E9.csv"])
def test_experiment_all_checks_every_output_path_before_running(capsys, monkeypatch, tmp_path, taken):
    calls = []
    monkeypatch.setattr(experiments, "_measure_all", lambda *a: calls.append("_measure_all"))
    (tmp_path / taken).mkdir()
    code, out, err = run_cli(capsys, "experiment", "all", "--out", str(tmp_path))
    assert code == 2 and out == "" and err == f"error: output path is a directory: {tmp_path / taken}\n"
    assert calls == [] and list(tmp_path.iterdir()) == [tmp_path / taken]


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "all", "--kmin", "9"],  # E1 has 3 levels at kmin 9, E2 only one
        ["experiment", "run", "E3", "--kmin", "0", "--kmax", "3"],
        ["experiment", "run", "E1", "--seed", BIG_SEED],
        ["experiment", "all", "--seed", BIG_SEED],
        ["multiplier-bound", "--delta-k", "3", "--p", "0.5", "--budget", "5", "--seed", BIG_SEED],
        # budget 0 draws nothing from the seed's stream, and still rejects a seed it could not encode
        ["multiplier-bound", "--delta-k", "3", "--p", "0.5", "--seed", BIG_SEED],
    ],
    # the ids keep their earlier numbering: argv5 and argv7 were the --kmin/--kmax cases of a form that is gone
    ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv6"],
)
def test_a_bad_plan_exits_two_before_any_work(capsys, tmp_path, argv):
    if argv[0] == "experiment":
        argv = argv + ["--out", str(tmp_path / "results")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("action", [["run", "E6"], ["all"]])
@pytest.mark.parametrize(
    "doc", [{"kmin": "three"}, {"seed": "1.5"}, {"kmax": "0"}, {"seed": str(-(2**63) - 1)}, {"kmin": "5", "kmax": "4"},
            {"samples": "2"}, {"p": "0"}]
)
def test_a_bad_config_field_exits_two_before_any_work(capsys, tmp_path, action, doc):
    # each plan field given as its flag: argparse rejects what is not a number, ExperimentConfig the rest,
    # and 'all' has no --samples or --p, since some of its experiments reject each
    flags = [token for field, value in doc.items() for token in (f"--{field}", value)]
    results = tmp_path / "results"
    code, out, err = run_cli(capsys, "experiment", *action, *flags, "--out", str(results))
    assert code == 2 and out == "" and "error:" in err
    assert not results.exists()


def test_experiment_all_rejects_an_out_that_is_a_file(capsys, tmp_path):
    target = tmp_path / "results"
    target.write_text("keep\n")
    code, out, err = run_cli(capsys, "experiment", "all", "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error:")
    assert target.read_text() == "keep\n" and list(tmp_path.iterdir()) == [target]


def test_experiment_all_writes_every_experiment(capsys, tmp_path):
    results = tmp_path / "nested" / "results"
    code, out, _ = run_cli(capsys, "experiment", "all", "--kmin", "2", "--kmax", "4", "--out", str(results))
    assert code in (0, 1) and out.splitlines()[-1] in ("overall: pass", "overall: FAIL")
    want = sorted(f"E{i}.{ext}" for i in range(1, 10) for ext in ("csv", "fits.json"))
    assert sorted(path.name for path in results.iterdir()) == want


# --- installed entry point ----------------------------------------------------------


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "tritrunc.cli", "spnorm", "--chi", "2", "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("2.2360679")


def test_package_invocation_round_trip():
    # python -m tritrunc runs the package's __main__
    proc = subprocess.run(
        [sys.executable, "-m", "tritrunc", "spnorm", "--chi", "2", "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2.2360679774997898\n"


def test_module_invocation_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "tritrunc.cli", "spnorm"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


# --- the README stays in step with the parser ---------------------------------------


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("tritrunc ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def test_readme_spnorm_example_prints_its_value(capsys):
    (line,) = [line for line in _readme_command_lines() if line.startswith("tritrunc spnorm --chi 2 --p 1 ")]
    command, comment = line.split("#", 1)
    code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0 and out == comment.split()[0] + "\n"


def test_readme_multiplier_bound_example_prints_its_lower_end(capsys):
    (line,) = [line for line in _readme_command_lines()
               if line.startswith("tritrunc multiplier-bound --delta-k 6 --p 0.5 --budget 200 ")]
    command, comment = line.split("#", 1)
    code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
    (label, value), want = out.splitlines()[0].split(), comment.split()
    assert code == 0 and label == want[0] == "lower"
    assert float(value) == pytest.approx(float(want[1]), rel=1e-12, abs=0)
