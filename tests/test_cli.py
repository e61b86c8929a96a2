"""Command-line surface: parsing, output formats, exit codes."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tritrunc.cli import build_parser, main
from tritrunc.hankel import besov_quasinorm
from tritrunc.kernels import dirichlet_plus
from tritrunc.matrices import delta_matrix
from tritrunc.multipliers import delta_lower_bound, embed, random_witness_search, witness_embed_size

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
    # same singular values in exact arithmetic; LAPACK roundoff depends on the
    # row order, so the printed 17-digit values agree only to ~1e-13
    assert float(out_a) == pytest.approx(float(out_b), rel=1e-12)


def test_spnorm_ones(capsys):
    code, out, _ = run_cli(capsys, "spnorm", "--ones", "3", "--p", "0.5")
    assert code == 0
    # rank one in exact arithmetic; LAPACK leaves ~1e-17 residual values whose
    # p-th powers are magnified to ~1e-8 by p = 1/2, so compare loosely
    assert float(out) == pytest.approx(3.0, rel=1e-6)


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


# --- besov ----------------------------------------------------------------------


def test_besov_prints_the_quasinorm(capsys):
    code, out, _ = run_cli(capsys, "besov", "--dirichlet", "5", "--p", "0.5")
    assert code == 0
    want = besov_quasinorm(dirichlet_plus(5), 0.5).total
    assert float(out) == want


def test_besov_levels_breakdown(capsys):
    code, out, _ = run_cli(capsys, "besov", "--dirichlet", "5", "--p", "0.5", "--levels")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("level 0 term ")
    assert lines[-1] == "zero term 1"
    report = besov_quasinorm(dirichlet_plus(5), 0.5)
    assert len(lines) == 1 + len(report.levels) + 1


# --- multiplier-bound --------------------------------------------------------------


def test_multiplier_bound_prints_a_certified_interval(capsys):
    code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", "3", "--p", "0.5")
    assert code == 0
    lower_line, upper_line = out.splitlines()
    lower = float(lower_line.removeprefix("lower "))
    upper = float(upper_line.removeprefix("upper "))
    assert 1.0 < lower <= upper * (1 + 1e-4)


def test_multiplier_bound_search_is_deterministic(capsys):
    argv = ("multiplier-bound", "--delta-k", "2", "--p", "0.5", "--budget", "10")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second and first[0] == 0


def test_multiplier_bound_over_a_range_of_levels(capsys):
    code, out, _ = run_cli(capsys, "multiplier-bound", "--kmin", "2", "--kmax", "4", "--p", "0.5")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert [row[:2] + row[2::2] for row in rows] == [["level", str(k), "lower", "upper"] for k in (2, 3, 4)]
    for row in rows:  # each row is the single-level interval, digit for digit
        single = run_cli(capsys, "multiplier-bound", "--delta-k", row[1], "--p", "0.5")[1]
        assert single == f"lower {row[3]}\nupper {row[5]}\n"
    for argv in (["--kmin", "3"], ["--kmin", "4", "--kmax", "3"], ["--kmin", "0", "--kmax", "2"],
                 ["--delta-k", "3", "--kmax", "4"], ["--delta-k", "3", "--kmin", "2", "--kmax", "3"]):
        code, out, err = run_cli(capsys, "multiplier-bound", *argv, "--p", "0.5")
        assert code == 2 and out == "" and "error" in err


def test_budgeted_lower_end_is_the_search_value(capsys):
    # the search's pool holds the constructive witness, so its best ratio alone is the lower end
    code, out, _ = run_cli(capsys, "multiplier-bound", "--delta-k", "3", "--p", "0.5", "--budget", "6", "--seed", "4")
    assert code == 0
    lower = float(out.splitlines()[0].removeprefix("lower "))
    mask = embed(delta_matrix(9), witness_embed_size(3))
    assert lower == random_witness_search(mask, 0.5, 6, 4).ratio >= delta_lower_bound(3, 0.5).ratio


def test_multiplier_bound_rejects_k_zero(capsys):
    code, _, err = run_cli(capsys, "multiplier-bound", "--delta-k", "0", "--p", "0.5")
    assert code == 2 and "error:" in err


def test_multiplier_bound_rejects_a_negative_budget(capsys):
    code, out, err = run_cli(capsys, "multiplier-bound", "--delta-k", "3", "--p", "0.5", "--budget", "-5")
    assert code == 2 and out == "" and "--budget must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    # each input's first array is terabytes, so its allocation fails at once
    [["multiplier-bound", "--delta-k", "40", "--p", "0.5"], ["spnorm", "--chi", "1000000", "--p", "0.5"]],
)
def test_an_input_too_large_to_allocate_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: out of memory")


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


def test_experiment_run_exit_one_on_failed_fit(capsys):
    # E7's registered plain fit is the known red (see the README)
    code, text, _ = run_cli(capsys, "experiment", "run", "E7")
    assert code == 1
    assert "verdict: FAIL" in text


def test_experiment_config_errors(capsys, tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"smaples": 2}))
    code, _, err = run_cli(capsys, "experiment", "run", "E6", "--config", str(bad_key))
    assert code == 2 and "unknown config keys" in err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    code, _, err = run_cli(capsys, "experiment", "run", "E6", "--config", str(not_json))
    assert code == 2 and "not valid JSON" in err

    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps({"experiment": "E1"}))
    code, _, err = run_cli(capsys, "experiment", "run", "E6", "--config", str(pinned))
    assert code == 2 and "was requested" in err

    code, _, err = run_cli(capsys, "experiment", "all", "--config", str(pinned))
    assert code == 2 and "must not pin" in err


def test_experiment_config_below_the_quadrature_floor(capsys, tmp_path):
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps({"oversample": 256}))
    code, out, err = run_cli(capsys, "experiment", "run", "E6", "--config", str(coarse))
    assert code == 2 and "unknown config keys: oversample" in err and out == ""


def test_experiment_rejects_fields_it_would_ignore(capsys, tmp_path):
    code, out, err = run_cli(capsys, "experiment", "run", "E4", "--p", "0.5")
    assert code == 2 and out == "" and "field p does not apply" in err
    sampled = tmp_path / "sampled.json"
    sampled.write_text(json.dumps({"samples": 3}))
    code, out, err = run_cli(capsys, "experiment", "run", "E1", "--config", str(sampled))
    assert code == 2 and out == "" and "field samples does not apply" in err


def test_experiment_all_resolves_every_config_before_running(capsys, tmp_path):
    results = tmp_path / "results"
    code, out, err = run_cli(capsys, "experiment", "all", "--p", "0.5", "--out", str(results))
    assert code == 2 and out == "" and "E4 runs at fixed p" in err
    assert not results.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "all", "--kmin", "9"],  # E1 has 3 levels at kmin 9, E2 only one
        ["experiment", "run", "E3", "--kmin", "0", "--kmax", "3"],
        ["experiment", "run", "E1", "--seed", BIG_SEED],
        ["experiment", "all", "--seed", BIG_SEED],
        ["multiplier-bound", "--delta-k", "3", "--p", "0.5", "--budget", "5", "--seed", BIG_SEED],
        ["multiplier-bound", "--kmin", "2", "--kmax", "3", "--p", "0.5", "--budget", "5", "--seed", BIG_SEED],
        # budget 0 never reads the seed, and still rejects one it could not encode
        ["multiplier-bound", "--delta-k", "3", "--p", "0.5", "--seed", BIG_SEED],
        ["multiplier-bound", "--kmin", "2", "--kmax", "3", "--p", "0.5", "--budget", "0", "--seed", BIG_SEED],
    ],
)
def test_a_bad_plan_exits_two_before_any_work(capsys, tmp_path, argv):
    if argv[0] == "experiment":
        argv = argv + ["--out", str(tmp_path / "results")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("action", [["run", "E6"], ["all"]])
@pytest.mark.parametrize(
    "doc", [{"kmin": [3]}, {"seed": [1]}, {"p": [0.5]}, {"seed": "abc"}, {"kmin": True}, {"seed": 2**63}]
)
def test_a_bad_config_field_exits_two_before_any_work(capsys, tmp_path, action, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    results = tmp_path / "results"
    code, out, err = run_cli(capsys, "experiment", *action, "--config", str(cfg), "--out", str(results))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not results.exists()


def test_experiment_all_rejects_an_out_that_is_a_file(capsys, tmp_path):
    target = tmp_path / "results"
    target.write_text("keep\n")
    code, out, err = run_cli(capsys, "experiment", "all", "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error:")
    assert target.read_text() == "keep\n" and list(tmp_path.iterdir()) == [target]


def test_experiment_all_rejects_a_config_that_pins_the_output(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "x.csv")}))
    code, out, err = run_cli(capsys, "experiment", "all", "--config", str(cfg))
    assert code == 2 and out == "" and "must not pin" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_experiment_all_reads_the_config_once(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmin": 2, "kmax": 4}))
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(cfg):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, out, _ = run_cli(capsys, "experiment", "all", "--config", str(cfg))
    assert code in (0, 1) and out.count("verdict:") == 9
    assert len(opened) == 1


def test_experiment_all_writes_every_experiment(capsys, tmp_path):
    results = tmp_path / "nested" / "results"
    code, out, _ = run_cli(capsys, "experiment", "all", "--kmin", "2", "--kmax", "4", "--out", str(results))
    assert code in (0, 1) and out.splitlines()[-1] in ("overall: pass", "overall: FAIL")
    want = sorted(f"E{i}.{ext}" for i in range(1, 10) for ext in ("csv", "fits.json"))
    assert sorted(path.name for path in results.iterdir()) == want


def test_flags_override_the_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, "kmin": 3, "kmax": 5}))
    out = tmp_path / "e6.csv"
    code, _, _ = run_cli(
        capsys,
        "experiment", "run", "E6",
        "--config", str(cfg), "--p", "1.0", "--out", str(out),
    )
    # the run completed (pass or fail verdict — p = 1 is not E6's regime);
    # what matters here is that the flag beat the config file
    assert code in (0, 1)
    rows = out.read_text().splitlines()[1:]
    assert rows and all(row.split(",")[1] == "1" for row in rows)


# --- installed entry point ----------------------------------------------------------


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "tritrunc.cli", "spnorm", "--chi", "2", "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("2.2360679")


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
