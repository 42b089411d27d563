"""Command-line behavior: exit codes, output files, config merging,
and the reproducibility switch.  Commands run in-process."""

import csv
import gc
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from vkplate import diagnostics
from vkplate.cli import build_parser, main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def test_no_subcommand_is_usage_error():
    assert run_cli([]) == 1


def test_missing_required_flag():
    assert run_cli(["solve-q"]) == 1
    assert run_cli(["solve-a"]) == 1
    assert run_cli(["compare-baseline"]) == 1


def test_malformed_number():
    assert run_cli(["solve-q", "--Q", "five"]) == 1


@pytest.mark.parametrize("argv, plain", [
    (["solve-q", "--Q", "-1e0", "--c0", "-0.5", "--order", "3"],
     ["solve-q", "--Q", "-1", "--c0", "-0.5", "--order", "3"]),
    (["solve-q", "--Q=-1e0", "--c0", "-5E-1", "--order", "3"],
     ["solve-q", "--Q", "-1", "--c0", "-0.5", "--order", "3"]),
    (["sweep-c0", "--Q", "5", "--c0-min", "-5e-1", "--c0-max", "-0.3", "--c0-step", "0.1"],
     ["sweep-c0", "--Q", "5", "--c0-min", "-0.5", "--c0-max", "-0.3", "--c0-step", "0.1"]),
], ids=["solve", "solve-equals", "sweep"])
def test_negative_value_in_exponent_notation(argv, plain, capsys):
    # a negative number in exponent notation is a value, as its plain spelling is
    runs = []
    for line in (argv, plain):
        code = run_cli(line + (["--deterministic"] if line[0] == "solve-q" else []))
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_unknown_flag():
    assert run_cli(["solve-q", "--Q", "5", "--frobnicate"]) == 1


def test_zero_control_value_rejected():
    assert run_cli(["solve-q", "--Q", "5", "--c0", "0"]) == 1


def test_fitted_control_that_underflows_is_a_usage_error(capsys):
    # 13 + Q**2 overflows, so -13 / (13 + Q**2) is -0.0; --c0 is the way out
    for argv in (["solve-q", "--Q", "1e300"], ["solve-a", "--a", "1e300"]):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert "fitted control value underflows" in err and "--c0" in err
        assert "nonzero finite" not in err


@pytest.mark.parametrize("load", ["23", "11.5", "30"])
def test_negative_load_mirrors_its_positive_twin(load, capsys):
    # the fitted control, too: phi and q change sign, everything else is equal
    runs = {}
    for q in (load, "-" + load):
        run_cli(["solve-q", "--Q", q, "--iterate", "--format", "json", "--deterministic"])
        runs[q] = json.loads(capsys.readouterr().out)
    pos, neg = runs[load], runs["-" + load]
    assert neg["config"].pop("load") == -pos["config"].pop("load")
    assert neg["config"] == pos["config"]
    assert neg["q"] == -pos["q"] and neg["phi_coeffs"] == [-c for c in pos["phi_coeffs"]]
    for key in ("status", "err", "w0_over_h", "s_coeffs"):
        assert neg[key] == pos[key], key
    assert [r["err"] for r in neg["history"]] == [r["err"] for r in pos["history"]]


def test_order_zero_deflection_series_is_a_usage_error(tmp_path, capsys):
    # order 0 has no load term to score; a load series records its guess
    out = tmp_path / "run.json"
    assert run_cli(["solve-a", "--a", "5", "--order", "0", "--format", "json",
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "order >= 1" in err
    assert not out.exists()
    assert run_cli(["solve-q", "--Q", "5", "--order", "0"]) == 0


def test_zero_load_trivial_run(capsys):
    assert run_cli(["solve-q", "--Q", "0", "--order", "1"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(float(r["err"]) == 0.0 for r in rows)


def test_solve_q_writes_history_csv(tmp_path):
    path = tmp_path / "run.csv"
    code = run_cli(["solve-q", "--Q", "5", "--c0", "-0.35", "--order", "10",
                    "--out", str(path)])
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert list(rows[0]) == ["iteration", "order", "err", "q", "w0_over_h",
                             "wall_ms"]
    assert len(rows) == 11  # orders 0..10
    assert float(rows[-1]["err"]) < 1e-3


def test_json_report_and_auto_control(tmp_path):
    path = tmp_path / "run.json"
    code = run_cli(["solve-q", "--Q", "5", "--order", "10", "--format", "json",
                    "--out", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["config"]["c1"] == -13.0 / 38.0
    assert payload["config"]["c2"] == -13.0 / 38.0


def test_explicit_pair_overrides_c0(tmp_path):
    path = tmp_path / "run.json"
    code = run_cli(["solve-q", "--Q", "5", "--order", "5", "--c0", "-0.4",
                    "--c2", "-0.9", "--format", "json", "--out", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["config"]["c1"] == -0.4
    assert payload["config"]["c2"] == -0.9


def test_deterministic_runs_are_byte_identical(tmp_path):
    argv = ["solve-a", "--a", "5", "--iterate", "--c0", "-0.5",
            "--deterministic"]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(argv + ["--out", str(p1)]) == 0
    assert run_cli(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_divergence_exit_code():
    code = run_cli(["solve-q", "--Q", "1000", "--iterate", "--c0", "-1.5",
                    "--max-iter", "20", "--out", "/dev/null"])
    assert code == 2


def test_stalled_exit_code_and_report(tmp_path):
    # table 7's a = 30 row at N = 100 has its best residual at pass 102 and
    # stops STALL_PASSES passes later; its err and q stay within the bounds
    # the benchmark sets for that row against its value at pass 500
    path = tmp_path / "a30.json"
    code = run_cli(["solve-a", "--a", "30", "--iterate", "--format", "json",
                    "--out", str(path)])
    assert code == 3
    payload = json.loads(path.read_text())
    errs = [rec["err"] for rec in payload["history"]]
    assert payload["status"] == "stalled"
    assert len(errs) == 152 and errs.index(min(errs)) == 101
    assert payload["err"] <= 1.1 * 3.346156182749392e-07
    assert abs(payload["q"] / 24665.72281234058 - 1.0) <= 3e-6


@pytest.mark.parametrize("argv, code", [
    # both methods stall on the N = 10 floor
    (["compare-baseline", "--Q", "10", "--theta", "0.3", "--N", "10", "--tol", "1e-30"], 3),
    # a diverged baseline outranks a stalled homotopy run
    (["compare-baseline", "--Q", "132.2", "--theta", "1.0", "--N", "20", "--tol", "1e-30"], 2),
    # the surveys report stalled runs in their output, not in their exit code
    (["compare-orders", "--Q", "10", "--c0", "-0.3", "--M-set", "2", "--N", "10",
      "--tol", "1e-30"], 0),
])
def test_stalled_runs_in_comparisons(argv, code):
    assert run_cli(argv + ["--out", os.devnull]) == code


def test_unwritable_output_path(tmp_path):
    code = run_cli(["solve-q", "--Q", "1", "--order", "2",
                    "--out", str(tmp_path / "no" / "such" / "dir" / "f.csv")])
    assert code == 1


def test_sweep_schema_and_exit(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code = run_cli(["sweep-c0", "--Q", "5", "--c0-min", "-0.6",
                    "--c0-max", "-0.3", "--c0-step", "0.1",
                    "--sweep-order", "4", "--out", str(path)])
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert list(rows[0]) == ["c0", "err", "status"]
    assert [float(r["c0"]) for r in rows] == pytest.approx([-0.6, -0.5, -0.4, -0.3])


def test_sweep_requires_exactly_one_target():
    assert run_cli(["sweep-c0"]) == 1
    assert run_cli(["sweep-c0", "--Q", "5", "--a", "5"]) == 1


def _memory_cap():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["sweep-c0", "--Q", "5", "--c0-step", "1e-300"],  # below the float spacing at --c0-min
    ["sweep-c0", "--Q", "5", "--c0-max", "inf"],
    ["sweep-c0", "--Q", "5", "--c0-step", "1e-6"],  # about 950,000 points
    ["curve", "--Q", "1", "--order", "2", "--samples", "100001"],
    ["curve", "--Q", "1", "--order", "2", "--samples", "1000000000"],
], ids=" ".join)
def test_sweep_grid_is_checked_before_it_is_built(argv):
    # each grid or curve is unbounded or too large to build, so the command
    # runs in its own time- and memory-capped process: an unchecked grid
    # grows until it is killed, and an unchecked curve fails to allocate
    # after its solve
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(Path(__file__).resolve().parents[1] / "src"),
                   os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "vkplate.cli", *argv],
                          capture_output=True, text=True, timeout=30, env=env,
                          preexec_fn=_memory_cap)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:")


@pytest.mark.parametrize("m_set", [",", "5,0"])
def test_compare_orders_checks_every_pass_order_first(monkeypatch, capsys, m_set):
    def solve(problem):
        raise AssertionError("solved before every pass order was checked")

    monkeypatch.setattr(diagnostics, "solve_problem", solve)
    assert run_cli(["compare-orders", "--Q", "5", "--M-set", m_set]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_compare_orders_csv(tmp_path):
    path = tmp_path / "orders.csv"
    code = run_cli(["compare-orders", "--Q", "5", "--c0", "-0.5",
                    "--M-set", "1,2", "--N", "40", "--tol", "1e-8",
                    "--max-iter", "30", "--deterministic", "--out", str(path)])
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert list(rows[0]) == ["m", "iteration", "err", "wall_ms"]
    assert {r["m"] for r in rows} == {"1", "2"}
    assert all(float(r["wall_ms"]) == 0.0 for r in rows)


def test_compare_baseline_csv(tmp_path):
    path = tmp_path / "baseline.csv"
    code = run_cli(["compare-baseline", "--Q", "10", "--theta", "0.3",
                    "--N", "60", "--tol", "1e-6", "--c0", "-0.5",
                    "--out", str(path)])
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    methods = {r["method"] for r in rows}
    assert methods == {"baseline", "ham"}


@pytest.mark.parametrize("theta", ["0", "1.5"])
def test_compare_baseline_checks_theta(theta, capsys):
    # the baseline solver's own check, reported as a usage error
    assert run_cli(["compare-baseline", "--Q", "10", "--theta", theta,
                    "--out", os.devnull]) == 1
    assert "outside (0, 1]" in capsys.readouterr().err


def test_curve_command(tmp_path):
    path = tmp_path / "curve.csv"
    code = run_cli(["curve", "--Q", "5", "--order", "20", "--samples", "9",
                    "--out", str(path)])
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert list(rows[0]) == ["y", "r_over_Ra", "W", "w_over_h"]
    assert len(rows) == 9
    assert float(rows[-1]["W"]) == 0.0


def test_curve_for_prescribed_deflection(tmp_path):
    path = tmp_path / "curve.csv"
    code = run_cli(["curve", "--a", "2", "--order", "30", "--samples", "5",
                    "--out", str(path)])
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    got = abs(float(rows[0]["W"]))
    assert got == pytest.approx(2.0, rel=1e-6)


# cheap runs that exit 0, and the shared flags each of them does not read
_BASE_ARGV = {
    "sweep-c0": ["--Q", "5", "--c0-min", "-0.4", "--c0-max", "-0.3",
                 "--sweep-order", "2"],
    "compare-orders": ["--Q", "5", "--c0", "-0.5", "--M-set", "1", "--N", "20",
                       "--max-iter", "2"],
    "compare-baseline": ["--Q", "5", "--c0", "-0.5", "--N", "20",
                         "--max-iter", "2"],
    "curve": ["--Q", "1", "--order", "2", "--samples", "3"],
}
_UNREAD_FLAGS = {
    "sweep-c0": ("--c0", "--c1", "--c2", "--order", "--iterate", "--M", "--N",
                 "--tol", "--max-iter", "--format", "--deterministic"),
    "compare-orders": ("--order", "--iterate", "--M", "--format"),
    "compare-baseline": ("--order", "--iterate", "--format"),
    "curve": ("--format", "--deterministic"),
}
_FLAG_VALUE = {"--c0": "-0.3", "--c1": "-0.3", "--c2": "-0.3", "--order": "2",
               "--M": "2", "--N": "20", "--tol": "1e-3", "--max-iter": "2",
               "--format": "json"}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in _UNREAD_FLAGS.items()
                                          for f in flags])
def test_unread_flags_are_usage_errors(tmp_path, command, flag):
    base = [command, *_BASE_ARGV[command], "--out", str(tmp_path / "out.csv")]
    assert run_cli(base) == 0
    value = _FLAG_VALUE.get(flag)
    assert run_cli(base + ([flag] if value is None else [flag, value])) == 1
    # the flag's config-file key is rejected as well
    _, registry = build_parser()
    dest = next(a.dest for a in registry["solve-q"]._actions
                if flag in a.option_strings)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({dest: True if value is None else value}))
    assert run_cli(base + ["--config", str(cfg)]) == 1


def test_config_file_supplies_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Q": 5, "c0": -0.35, "order": 8}))
    out = tmp_path / "run.json"
    code = run_cli(["solve-q", "--config", str(cfg), "--order", "4",
                    "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["order"] == 4  # flag wins
    assert payload["config"]["c1"] == -0.35  # file value survives


def test_config_file_reaches_no_later_call(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c0": -0.35, "order": 8}))
    out = tmp_path / "run.json"
    argv = ["solve-q", "--Q", "5", "--format", "json", "--out", str(out)]
    assert run_cli(argv + ["--config", str(cfg)]) == 0
    assert json.loads(out.read_text())["config"]["order"] == 8
    assert run_cli(argv) == 0
    config = json.loads(out.read_text())["config"]
    assert config["order"] == 10  # the plain defaults
    assert config["c1"] == -13.0 / 38.0


@pytest.mark.parametrize("argv", [
    ["solve-q", "--Q", "2", "--order", "5"],
    ["solve-a", "--a", "2", "--iterate", "--max-iter", "3"],
    ["sweep-c0", "--Q", "2", "--sweep-order", "4", "--c0-min", "-0.5", "--c0-max", "-0.4"],
    ["compare-baseline", "--Q", "2", "--max-iter", "3"],
], ids=lambda argv: argv[0])
def test_main_leaves_no_cyclic_garbage(argv, capsys):
    # garbage in reference cycles waits for a full collection, which a
    # long in-process run seldom makes; a parser built per call left 700
    # such objects behind on every call
    assert run_cli(argv) == 0  # builds the parser and fills the caches
    gc.collect()
    gc.disable()  # so that no automatic collection hides a cycle
    try:
        assert run_cli(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli(["solve-q", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"Q": 5, "bogus": 1}))
    assert run_cli(["solve-q", "--config", str(bad)]) == 1
    notdict = tmp_path / "arr.json"
    notdict.write_text("[1, 2]")
    assert run_cli(["solve-q", "--config", str(notdict)]) == 1


_SOLVE_Q = ["solve-q", "--Q", "1", "--order", "2"]
_ORDERS = ["compare-orders", "--Q", "5", "--c0", "-0.5", "--N", "20", "--max-iter", "2"]


@pytest.mark.parametrize("argv,entries", [
    (_SOLVE_Q, {"order": 2.5}),
    (_SOLVE_Q, {"M": 2.0}),
    (_SOLVE_Q, {"N": 10.5}),
    (_ORDERS, {"m_set": [1, 2]}),
    (_SOLVE_Q, {"boundary": "weird"}),
    (_SOLVE_Q, {"iterate": "yes"}),
    (["tables"], {"max_iter": 1.5}),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else v[0])
def test_config_values_meet_their_flags_checks(tmp_path, capsys, argv, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    out = ["--out-dir", str(tmp_path / "t")] if argv[0] == "tables" else \
        ["--out", str(tmp_path / "out.csv")]
    assert run_cli([*argv, *out, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


def test_config_out_is_a_path(tmp_path, monkeypatch):
    # the number 3 names the file "3", as --out 3 does, not file descriptor 3
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": 3}))
    argv = ["solve-q", "--Q", "1", "--order", "2", "--deterministic"]
    assert run_cli(argv + ["--out", "flag.csv"]) == 0
    assert run_cli(argv + ["--config", "cfg.json"]) == 0
    assert (tmp_path / "3").read_bytes() == (tmp_path / "flag.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["solve-q", "--Q", "5", "--iterate", "--tol", "nan"],
    ["solve-a", "--a", "5", "--tol", "nan"],
    ["tables", "--tol", "-1"],
    ["tables", "--max-iter", "0"],
], ids=" ".join)
def test_mode_settings_are_usage_errors(tmp_path, capsys, argv):
    assert run_cli([*argv, "--out-dir" if argv[0] == "tables" else "--out",
                    str(tmp_path / "out")]) == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tables_command_writes_all_seven(tmp_path):
    out = tmp_path / "tables"
    assert run_cli(["tables", "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"table{i}.csv" for i in range(1, 8)]
    rows = list(csv.DictReader((out / "table2.csv").open()))
    assert [round(float(r["w0_over_h"]), 2) for r in rows] == \
        [0.15, 0.29, 0.41, 0.53, 0.62]
    rows = list(csv.DictReader((out / "table6.csv").open()))
    assert float(rows[-1]["q"]) == pytest.approx(132.2, abs=0.2)
