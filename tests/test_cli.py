import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grs
import grs.acvalidate
import grs.workflows
from grs import netio
from grs.acvalidate import redispatch_plan
from grs.cli import main
from grs.formulations import build_mrsp, build_rop
from grs.grid import GridError, apply_damage, replicate
from grs.mip import (CUT_LIMIT, INFEASIBLE, ITERATION_LIMIT, NODE_LIMIT,
                     TIME_LIMIT, MipError, MipSolution, NumericalFailure,
                     SolveStats)
from grs.workflows import PipelineInfeasible, heuristic_order

CASES = Path(__file__).resolve().parent.parent / "cases"
CASE2 = str(CASES / "case2_parallel.m")
CASE5 = str(CASES / "case5_restoration.m")
DMG2 = str(CASES / "damage2_both.json")
DMG5 = str(CASES / "damage5_all.json")


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_launcher_sets_one_blas_thread_unless_set():
    # one subprocess runs the launcher with a stand-in grs.cli, so numpy never
    # loads there and no thread pool starts
    code = f"""
import os, runpy, sys, types
cli = types.ModuleType("grs.cli")
cli.main = lambda argv: print(*map(os.environ.get, {BLAS_THREADS!r}),
                              "numpy" in sys.modules)
sys.modules["grs.cli"] = cli
runpy.run_module("grs", run_name="__main__")
"""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["OPENBLAS_NUM_THREADS"] = "3"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(grs.__file__).parent.parent), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["3", "1", "1", "False"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("parse", "mrsp", "rop", "redispatch", "pipeline", "heuristic",
                "gen-damage"):
        assert sub in out


def test_parse_command(tmp_path):
    out = tmp_path / "net.json"
    assert main(["parse", "--case", CASE2, "--out", str(out)]) == 0
    net = json.loads(out.read_text())
    assert len(net["buses"]) == 2
    assert net["base_mva"] == 100.0


def test_rop_periods_zero_is_input_error(tmp_path):
    rc = main(["rop", "--case", CASE2, "--damage", DMG2, "--periods", "0",
               "--out", str(tmp_path / "plan.json")])
    assert rc == 2


@pytest.mark.parametrize("hours", ["nan", "inf"])
def test_non_finite_period_hours_is_input_error(tmp_path, caplog, hours):
    out = tmp_path / "result.json"
    rc = main(["pipeline", "--case", CASE2, "--damage", DMG2, "--periods", "2",
               "--period-hours", hours, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1


def test_missing_case_is_input_error(tmp_path):
    rc = main(["parse", "--case", str(tmp_path / "nope.m"), "--out", "-"])
    assert rc == 2


@pytest.mark.parametrize("flag,bad", [
    ("--case", "dir"), ("--case", "latin-1"), ("--damage", "dir"),
    ("--damage", "latin-1"), ("--plan", "latin-1"), ("--out", "dir"),
])
def test_unreadable_file_is_input_error(tmp_path, caplog, flag, bad):
    path = tmp_path / "bad"
    if bad == "dir":
        path.mkdir()
    else:
        path.write_bytes("caf\u00e9".encode("latin-1"))  # not UTF-8
    files = {"--case": CASE2, "--damage": DMG2,
             "--out": str(tmp_path / "plan.json"), flag: str(path)}
    command = "redispatch" if flag == "--plan" else "rop"
    argv = [command, "--periods", "2"] + [a for kv in files.items() for a in kv]
    assert main(argv) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert str(path) in errors[0]
    if bad == "latin-1":
        assert f"{path}: not UTF-8" in errors[0]


@pytest.mark.parametrize("argv,flag,bad", [
    (["rop"], "--out", "dir"),
    (["rop"], "--dump-lp", "no-parent"),
    (["rop"], "--out", "parent-is-file"),
    (["redispatch", "--plan", "plan.json"], "--csv", "dir"),
    (["pipeline"], "--timings", "dir"),
    (["pipeline", "--scenarios", "."], "--out-dir", "file"),
    (["pipeline", "--scenarios", "."], "--out-dir", "no-parent"),
])
def test_unwritable_output_fails_before_any_work(tmp_path, caplog,
                                                 monkeypatch, argv, flag, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("input read before the output paths were checked")

    monkeypatch.setattr(netio, "load_case", no_work)
    (tmp_path / "file").write_text("")
    path = {"dir": tmp_path, "file": tmp_path / "file",
            "no-parent": tmp_path / "missing" / "x",
            "parent-is-file": tmp_path / "file" / "x"}[bad]
    rc = main(argv + ["--case", CASE5, "--damage", DMG5, "--periods", "3",
                      flag, str(path)])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert flag in errors[0] and str(path) in errors[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_parse_logs_skipped_sections(tmp_path, caplog):
    case = tmp_path / "case.m"
    case.write_text(Path(CASE2).read_text()
                    + "mpc.gencost = [\n  2 0 0 3 0.1 20 0;\n];\n")
    assert main(["parse", "--case", str(case),
                 "--out", str(tmp_path / "net.json")]) == 0
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert warnings[0].name == "grs.netio"
    assert "gencost" in warnings[0].getMessage()


def test_exception_roots_map_to_exit_codes(monkeypatch):
    roots = {PipelineInfeasible: 1, GridError: 2, MipError: 3}
    for info in pkgutil.walk_packages(grs.__path__, "grs."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(
                    cls, BaseException):
                assert sum(issubclass(cls, root) for root in roots) == 1, cls
    for root, rc in roots.items():
        def fail(*args, root=root):
            raise root("x")

        monkeypatch.setattr(netio, "load_case", fail)
        assert main(["parse", "--case", CASE2]) == rc


def test_gen_damage_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        rc = main(["gen-damage", "--case", CASE5, "--fraction", "0.35",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    scenario = json.loads(a.read_text())
    assert scenario["branch"] and scenario["gen"]


def test_gen_damage_kinds_filter(tmp_path):
    out = tmp_path / "branch_only.json"
    rc = main(["gen-damage", "--case", CASE5, "--fraction", "0.25",
               "--kinds", "branch", "--seed", "1", "--out", str(out)])
    assert rc == 0
    scenario = json.loads(out.read_text())
    assert scenario["branch"] and not scenario["gen"]


@pytest.mark.parametrize("args", [
    ["--fraction", "0.35", "--area", "1-x"],
    ["--fraction", "nan"],
    ["--fraction", "inf"],
    ["--fraction", "0.35", "--area", "5-3"],
    ["--fraction", "0.35", "--area", ","],
    ["--fraction", "0.35", "--area", "999"],
], ids=["area", "nan-fraction", "inf-fraction", "inverted-area",
        "empty-area", "area-outside-case"])
def test_gen_damage_bad_area_or_fraction_is_input_error(tmp_path, caplog,
                                                        args):
    out = tmp_path / "damage.json"
    rc = main(["gen-damage", "--case", CASE5, *args, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1


def test_gen_damage_area_partly_outside_case_is_kept(tmp_path):
    out = tmp_path / "damage.json"
    rc = main(["gen-damage", "--case", CASE5, "--fraction", "1", "--area",
               "3-999", "--seed", "1", "--out", str(out)])
    assert rc == 0
    scenario = json.loads(out.read_text())
    assert scenario["branch"] or scenario["gen"]


@pytest.mark.parametrize("flag,value", [
    ("--gap", "nan"), ("--gap", "-1"), ("--time-limit", "nan"),
    ("--time-limit", "-1"), ("--time-limit", "0"), ("--node-limit", "-3"),
    ("--node-limit", "0"),
])
def test_bad_solver_limit_is_input_error(tmp_path, caplog, flag, value):
    out = tmp_path / "plan.json"
    rc = main(["rop", "--case", CASE2, "--damage", DMG2, "--periods", "2",
               flag, value, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(flag + " ")


def test_rop_then_redispatch_commands(tmp_path):
    plan = tmp_path / "plan.json"
    rc = main(["rop", "--case", CASE2, "--damage", DMG2, "--periods", "2",
               "--out", str(plan)])
    assert rc == 0
    report = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    rc = main(["redispatch", "--case", CASE2, "--damage", DMG2, "--periods", "2",
               "--plan", str(plan), "--out", str(report), "--csv", str(csv)])
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["estimated_ens_mwh"] == pytest.approx(140.0, abs=1e-6)
    assert csv.read_text().startswith("period,served_mw,shed_mw,ens_mwh")


def test_pipeline_command_byte_identical(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main(["pipeline", "--case", CASE2, "--damage", DMG2,
                   "--periods", "2", "--formulation", "dc", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    result = json.loads(outs[0])
    assert result["estimated_ens_mwh"] == pytest.approx(140.0)
    assert "timings_s" not in result
    # --timings adds the stage seconds and the ROP root facts, elsewhere
    out, tim = tmp_path / "r3.json", tmp_path / "t.json"
    assert main(["pipeline", "--case", CASE2, "--damage", DMG2, "--periods",
                 "2", "--formulation", "dc", "--out", str(out),
                 "--timings", str(tim)]) == 0
    assert out.read_bytes() == outs[0]
    timings = json.loads(tim.read_text())
    stats = {f.name for f in dataclasses.fields(SolveStats)}
    assert set(timings) == {"build_rop", "solve_rop", "redispatch", "total",
                            *(f"rop_{k}" for k in stats)}
    assert 0.0 <= timings["rop_root_time"] <= timings["solve_rop"]
    assert math.isfinite(timings["rop_root_bound"])
    assert timings["rop_nodes"] >= 1 and timings["rop_lp_iters"] > 0
    # with --mrsp, the MRSP solve's root facts join them; the result file
    # stays byte-identical
    mrsp = []
    for name, extra in (("m1.json", []), ("m2.json", ["--timings", str(tim)])):
        out = tmp_path / name
        assert main(["pipeline", "--case", CASE2, "--damage", DMG2,
                     "--periods", "2", "--formulation", "dc", "--mrsp",
                     "--out", str(out), *extra]) == 0
        mrsp.append(out.read_bytes())
    assert mrsp[0] == mrsp[1]
    timings = json.loads(tim.read_text())
    assert set(timings) == {"build_rop", "solve_rop", "redispatch", "total",
                            "build_mrsp", "solve_mrsp", "optimize",
                            *(f"{stage}_{k}" for stage in ("rop", "mrsp")
                              for k in stats)}
    assert 0.0 <= timings["mrsp_root_time"] <= timings["solve_mrsp"]
    assert math.isfinite(timings["mrsp_root_bound"])


def test_pipeline_debug_log_leaves_outputs_unchanged(tmp_path):
    import os
    import subprocess
    import sys
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for level in ("WARNING", "DEBUG"):
        out = tmp_path / level
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "grs.cli", "pipeline", "--case", CASE2,
             "--damage", DMG2, "--periods", "2", "--mrsp",
             "--out", str(out / "r.json"), "--csv", str(out / "r.csv")],
            env={**os.environ, "GRS_LOG": level, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(((out / "r.json").read_bytes(),
                     (out / "r.csv").read_bytes(), proc.stdout, proc.stderr))
    assert runs[0][:3] == runs[1][:3]
    assert "grs.mip" not in runs[0][3]
    # one summary per solve: the MRSP, then the ROP on its repair set
    notes = [line for line in runs[1][3].splitlines()
             if line.startswith("DEBUG grs.mip: solve_mip ")]
    assert len(notes) == 2 and all("phase1_iters=" in n for n in notes)


def test_pipeline_infeasible_exit_code(tmp_path):
    # a case whose full load can never be served -> the final-period model
    # (everything restored) still sheds, which the ROP tolerates, but MRSP
    # preprocessing must report infeasibility
    bad_case = tmp_path / "bad.m"
    bad_case.write_text("""
function mpc = bad
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0.0  0.0 0 0 1 1.0 0.0 230 1 1.1 0.9;
  2 1 100.0 0.0 0 0 1 1.0 0.0 230 1 1.1 0.9;
];
mpc.gen = [ 1 0 0 900 -900 1.0 100 1 200 0; ];
mpc.branch = [
  1 2 0.0 0.1 0.0 30 30 30 0 0 1 -30 30;
  1 2 0.0 0.1 0.0 30 30 30 0 0 1 -30 30;
];
""")
    rc = main(["pipeline", "--case", str(bad_case), "--damage", DMG2,
               "--periods", "2", "--mrsp", "--out", str(tmp_path / "x.json")])
    assert rc == 1


def test_heuristic_command(tmp_path):
    out = tmp_path / "h.json"
    rc = main(["heuristic", "--case", CASE2, "--damage", DMG2, "--periods", "2",
               "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["plan"]["formulation"] == "heuristic"
    assert result["report"]["true_ens_mwh"] > 0


def test_heuristic_validates_once(tmp_path, monkeypatch):
    calls = []
    real = grs.acvalidate.max_load_delivery

    def counted(*args, **kwargs):
        calls.append(kwargs.get("period"))
        return real(*args, **kwargs)

    monkeypatch.setattr(grs.acvalidate, "max_load_delivery", counted)
    rc = main(["heuristic", "--case", CASE2, "--damage", DMG2, "--periods", "2",
               "--out", str(tmp_path / "h.json")])
    assert rc == 0
    assert calls == [0, 1, 2]  # one call per period, periods + 1 in all


def test_heuristic_matches_order_then_redispatch(tmp_path):
    out = tmp_path / "h.json"
    csv = tmp_path / "h.csv"
    rc = main(["heuristic", "--case", CASE5, "--damage", DMG5, "--periods", "5",
               "--period-hours", "2", "--no-count-initial-period",
               "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    net = netio.load_case(CASE5)
    dmg = netio.damage_from_dict(json.loads(Path(DMG5).read_text()))
    plan = heuristic_order(net, dmg, 5, 2.0)
    report = redispatch_plan(replicate(net, dmg, 5, 2.0), plan,
                             count_initial_period=False)
    expected = {"plan": netio.plan_to_dict(plan),
                "report": netio.report_to_dict(report)}
    assert out.read_text() == json.dumps(expected, indent=1) + "\n"
    assert csv.read_bytes() == netio.write_report(report)


ROP_SOC5 = ["rop", "--case", CASE5, "--damage", DMG5, "--formulation", "soc",
            "--periods", "3"]


@pytest.mark.parametrize("command,status,rc", [
    pytest.param(["mrsp", "--case", CASE2, "--damage", DMG2], None, 0,
                 id="mrsp"),
    pytest.param(ROP_SOC5, None, 0, id="rop-soc"),
    # the dump is written before the solve, so a stopped solve keeps it
    pytest.param(ROP_SOC5, ITERATION_LIMIT, 3, id="rop-soc-stopped"),
])
def test_dump_lp(tmp_path, monkeypatch, command, status, rc):
    if status is not None:
        monkeypatch.setattr(grs.workflows, "solve_mip", lambda model, limits=None:
                            MipSolution(status, np.zeros(len(model.vars)),
                                        math.nan, math.nan, math.inf))
    lp = tmp_path / "model.lp"
    assert main(command + ["--out", str(tmp_path / "out.json"),
                           "--dump-lp", str(lp)]) == rc
    net = netio.load_case(command[2])
    dmg = netio.damage_from_dict(json.loads(Path(command[4]).read_text()))
    if command[0] == "mrsp":
        model = build_mrsp(apply_damage(net, dmg), "dc")
    else:
        model = build_rop(replicate(net, dmg, 3), "soc")
    assert lp.read_text() == model.to_lp_string()


@pytest.mark.parametrize("command", [
    pytest.param(["pipeline", "--periods", "2", "--timings", "-"],
                 id="pipeline-timings"),
    pytest.param(["pipeline", "--periods", "2", "--csv", "-"],
                 id="pipeline-csv"),
    pytest.param(["redispatch", "--periods", "2", "--plan", "missing.json",
                  "--csv", "-"], id="redispatch-csv"),
    pytest.param(["rop", "--periods", "2", "--dump-lp", "-"], id="rop-dump-lp"),
])
def test_two_outputs_on_stdout_are_an_input_error(capsysbinary, caplog,
                                                  command):
    # --out defaults to -, and the inputs do not exist: the check comes first
    rc = main([*command, "--case", "missing.m", "--damage", "missing.json"])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0].startswith(f"--out, {command[-2]} all write to standard")
    assert capsysbinary.readouterr().out == b""


def test_out_file_with_csv_on_stdout(tmp_path, capsysbinary):
    run = ["pipeline", "--case", CASE2, "--damage", DMG2, "--periods", "2"]
    csv = tmp_path / "r.csv"
    assert main([*run, "--out", str(tmp_path / "1.json"), "--csv", "-"]) == 0
    stdout = capsysbinary.readouterr().out
    assert main([*run, "--out", str(tmp_path / "2.json"), "--csv",
                 str(csv)]) == 0
    assert stdout == csv.read_bytes() and stdout.startswith(b"period")
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()


def test_pipeline_rejects_dump_lp(tmp_path):
    lp = tmp_path / "pl.lp"
    rc = main(["pipeline", "--case", CASE2, "--damage", DMG2, "--periods", "2",
               "--out", str(tmp_path / "out.json"), "--dump-lp", str(lp)])
    assert rc == 2
    assert not lp.exists()


@pytest.mark.parametrize("command", ["redispatch", "heuristic"])
def test_formulation_flag_is_usage_error_where_unread(tmp_path, command):
    args = [command, "--case", CASE2, "--damage", DMG2, "--periods", "2"]
    if command == "redispatch":
        plan = tmp_path / "plan.json"
        assert main(["rop", *args[1:], "--out", str(plan)]) == 0
        args += ["--plan", str(plan)]
    out = tmp_path / "out.json"
    assert main([*args, "--formulation", "soc", "--out", str(out)]) == 2
    assert not out.exists()
    assert main([*args, "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["rop", "pipeline"])
def test_formulation_flag_is_read(tmp_path, command):
    out = tmp_path / "out.json"
    assert main([command, "--case", CASE2, "--damage", DMG2, "--periods", "2",
                 "--formulation", "soc", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["formulation"] == "soc"


def test_batch_scenarios(tmp_path):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    (scen_dir / "one.json").write_text('{"branch": [1], "gen": [], "bus": []}')
    (scen_dir / "two.json").write_text('{"branch": [1, 2], "gen": [], "bus": []}')
    out_dir = tmp_path / "results"
    rc = main(["pipeline", "--case", CASE2, "--periods", "2",
               "--scenarios", str(scen_dir), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "one.result.json").exists()
    assert (out_dir / "two.result.json").exists()


@pytest.mark.parametrize("flag", ["--out", "--csv", "--timings"])
def test_batch_scenarios_reject_single_run_outputs(tmp_path, caplog,
                                                   monkeypatch, flag):
    def no_work(*args, **kwargs):
        raise AssertionError("input read before the flags were checked")

    monkeypatch.setattr(netio, "load_case", no_work)
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    (scen_dir / "one.json").write_text('{"branch": [1]}')
    rc = main(["pipeline", "--case", CASE2, "--periods", "2",
               "--scenarios", str(scen_dir), "--out-dir",
               str(tmp_path / "results"), flag, str(tmp_path / "single")])
    assert rc == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith(f"{flag} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenarios"]


@pytest.mark.parametrize("exists", [False, True], ids=["missing", "file"])
def test_batch_scenarios_not_a_directory_is_input_error(tmp_path, caplog,
                                                        exists):
    scenarios = tmp_path / "scenarios"
    if exists:
        scenarios.write_text('{"branch": [1]}')
    out_dir = tmp_path / "results"
    rc = main(["pipeline", "--case", CASE2, "--periods", "2",
               "--scenarios", str(scenarios), "--out-dir", str(out_dir)])
    assert rc == 2
    assert not out_dir.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(scenarios) in errors[0]


@pytest.mark.parametrize("command,damage,plan", [
    ("rop", '{"branches": [1, 2]}', None),
    ("pipeline", "[1, 2]", None),
    ("rop", '{"branch": ["x"]}', None),
    ("pipeline", '{"branch": 3}', None),
    ("redispatch", None, '{"periods": 2}'),
], ids=["misspelled-key", "list", "string-id", "not-a-list", "plan-keys"])
def test_malformed_damage_or_plan_is_input_error(tmp_path, caplog, command,
                                                 damage, plan):
    args = [command, "--case", CASE2, "--periods", "2"]
    for flag, text in (("--damage", damage), ("--plan", plan)):
        if text is not None:
            (tmp_path / "in.json").write_text(text)
            args += [flag, str(tmp_path / "in.json")]
    if damage is None:
        args += ["--damage", DMG2]
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 2
    assert not out.exists()
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1


@pytest.mark.parametrize("old,new", [
    ("\t4\t5\t0.00297", "\t4\n\t5\t0.00297"),
    ("\n\t5\t2\t0.0", "\n\tnan\t2\t0.0"),
    ("\n\t5\t2\t0.0", "\n\tinf\t2\t0.0"),
    ("\n\t5\t2\t0.0", "\n\t1e999\t2\t0.0"),
    ("\t2\t1\t300.0", "\t2\t1\tnan"),
    ("mpc.baseMVA = 100.0;", "mpc.baseMVA = nan;"),
], ids=["wrapped-branch-row", "nan-bus-id", "inf-bus-id", "overflow-bus-id",
        "nan-demand", "nan-base"])
def test_malformed_case_is_input_error(tmp_path, caplog, old, new):
    text = Path(CASE5).read_text()
    assert text.count(old) == 1
    case = tmp_path / "case.m"
    case.write_text(text.replace(old, new))
    out = tmp_path / "net.json"
    assert main(["parse", "--case", str(case), "--out", str(out)]) == 2
    assert not out.exists()
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1


@pytest.mark.parametrize("batch", [False, True],
                         ids=["rop", "pipeline-scenarios"])
def test_unknown_damage_id_is_input_error(tmp_path, caplog, batch):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "bad.json").write_text('{"branch": [99]}')
    out = tmp_path / "out"
    if batch:
        args = ["pipeline", "--scenarios", str(scenarios),
                "--out-dir", str(out)]
    else:
        args = ["rop", "--damage", str(scenarios / "bad.json"),
                "--out", str(out)]
    assert main(args + ["--case", CASE2, "--periods", "2"]) == 2
    assert not out.exists() or not any(out.iterdir())
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert "branch 99" in errors[0].getMessage()


@pytest.mark.parametrize("command", [
    ["rop", "--case", CASE2, "--damage", DMG2, "--periods", "2"],
    ["pipeline", "--case", CASE2, "--damage", DMG2, "--periods", "2"],
])
def test_numerical_failure_is_solver_limit(tmp_path, monkeypatch, caplog,
                                           command):
    def fail(*args, **kwargs):
        raise NumericalFailure("simplex iteration limit")

    monkeypatch.setattr(grs.workflows, "solve_mip", fail)
    rc = main(command + ["--out", str(tmp_path / "out.json")])
    assert rc == 3
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert "simplex iteration limit" in errors[0].getMessage()


@pytest.mark.parametrize("status,rc", [
    (INFEASIBLE, 1), (ITERATION_LIMIT, 3), (TIME_LIMIT, 3), (NODE_LIMIT, 3),
    (CUT_LIMIT, 3)])
@pytest.mark.parametrize("command", [
    ["mrsp", "--case", CASE2, "--damage", DMG2],
    ["rop", "--case", CASE2, "--damage", DMG2, "--periods", "2"],
])
def test_solver_status_exit_codes(tmp_path, monkeypatch, caplog, command,
                                  status, rc):
    def stopped(model, limits=None):
        return MipSolution(status, np.zeros(len(model.vars)), math.nan,
                           math.nan, math.inf)

    monkeypatch.setattr(grs.workflows, "solve_mip", stopped)
    out = tmp_path / "out.json"
    assert main(command + ["--out", str(out)]) == rc
    assert not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    if command[0] == "mrsp" and status == INFEASIBLE:
        assert "full load unreachable" in errors[0]
    if rc == 3:  # the message names the limit
        assert f"stopped at {status}" in errors[0]


@pytest.mark.parametrize("old,new", [
    ("0.03126\t426.0\t426.0\t426.0\t0.0\t0.0\t1",
     "0.03126\t426.0\t426.0\t426.0\t0.0\t0.0\t0"),  # branch 3 out of service
    ("\t5\t2\t0.0", "\t5\t4\t0.0"),  # bus 5 isolated, and branch 3 with it
], ids=["branch3-out", "bus5-isolated"])
def test_damage_on_dead_component_is_dropped(tmp_path, old, new):
    text = Path(CASE5).read_text()
    assert text.count(old) == 1
    case = tmp_path / "case5_dead.m"
    case.write_text(text.replace(old, new))
    damage = tmp_path / "damage.json"
    damage.write_text('{"branch": [1, 3]}')
    args = ["--case", str(case), "--damage", str(damage), "--periods", "2"]
    assert main(["pipeline", *args, "--out", str(tmp_path / "p.json")]) == 0

    heur = tmp_path / "h.json"
    assert main(["heuristic", *args, "--out", str(heur)]) == 0
    status = json.loads(heur.read_text())["plan"]["status"]
    assert status == {"branch": {"1": [0, 1, 1]}}

    plan = tmp_path / "plan.json"
    assert main(["rop", *args, "--out", str(plan)]) == 0
    status = json.loads(plan.read_text())["status"]
    assert {kind: list(ids) for kind, ids in status.items()} == {"branch": ["1"]}
    assert main(["redispatch", *args, "--plan", str(plan),
                 "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("command", [
    ["pipeline", "--formulation", "dc"],
    ["pipeline", "--formulation", "soc"],
    ["heuristic"],
], ids=["pipeline-dc", "pipeline-soc", "heuristic"])
def test_dead_load_is_shed_in_both_figures(tmp_path, command):
    # bus 2 isolated: its 300 MW load is dead, shed in every period
    text = Path(CASE5).read_text()
    assert text.count("\t2\t1\t300.0") == 1
    case = tmp_path / "case5_dead.m"
    case.write_text(text.replace("\t2\t1\t300.0", "\t2\t4\t300.0"))
    damage = tmp_path / "damage.json"
    damage.write_text('{"branch": [2]}')
    out = tmp_path / "out.json"
    assert main([*command, "--case", str(case), "--damage", str(damage),
                 "--periods", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    report = doc.get("report", doc)
    assert report["estimated_ens_mwh"] == 600.0
    assert report["true_ens_mwh"] == 600.0
    assert list(doc["plan"]["load_fraction"]) == ["3", "4"]


def _redispatch_edited_plan(tmp_path, caplog, edit):
    """Plan case2 with rop, apply ``edit`` to the plan JSON and redispatch
    it; assert exit 2 with no report, and return the one ERROR line."""
    plan = tmp_path / "plan.json"
    args = ["--case", CASE2, "--damage", DMG2, "--periods", "2"]
    assert main(["rop", *args, "--out", str(plan)]) == 0
    doc = json.loads(plan.read_text())
    edit(doc)
    plan.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["redispatch", *args, "--plan", str(plan),
                 "--out", str(out)]) == 2
    assert not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    return errors[0]


@pytest.mark.parametrize("loads", [["2", "99"], []], ids=["unknown", "none"])
def test_redispatch_rejects_plan_loads_other_than_live(tmp_path, caplog,
                                                       loads):
    def edit(doc):
        fraction = doc["load_fraction"]["2"]
        doc["load_fraction"] = {lid: fraction for lid in loads}

    assert "live loads" in _redispatch_edited_plan(tmp_path, caplog, edit)


def test_redispatch_rejects_non_binary_status(tmp_path, caplog):
    def edit(doc):
        doc["status"]["branch"]["1"] = [0, 7, 0]

    assert "not 0/1" in _redispatch_edited_plan(tmp_path, caplog, edit)


@pytest.mark.parametrize("kind,cid,reason", [
    ("foo", "7", "'foo' is not bus, branch or gen"),
    ("branch", "999", "branch 999 not in network"),
    ("gen", "999", "gen 999 not in network"),
], ids=["unknown-kind", "unknown-branch", "unknown-gen"])
def test_redispatch_rejects_status_of_no_component(tmp_path, caplog, kind,
                                                   cid, reason):
    def edit(doc):
        doc["status"].setdefault(kind, {})[cid] = [0, 0, 1]

    assert reason in _redispatch_edited_plan(tmp_path, caplog, edit)


@pytest.mark.parametrize("hours", [2.0, math.nan], ids=["other", "nan"])
def test_redispatch_rejects_plan_of_other_period_hours(tmp_path, caplog,
                                                       hours):
    def edit(doc):
        doc["period_hours"] = hours

    assert "h periods" in _redispatch_edited_plan(tmp_path, caplog, edit)


@pytest.mark.parametrize("edit,reason", [
    (lambda doc: doc["load_fraction"]["2"].__setitem__(1, math.nan),
     "outside [0,1]"),
    (lambda doc: doc["status"]["branch"].__setitem__("1", [0, 1.9, 1]),
     "whole numbers"),
    (lambda doc: doc["status"]["branch"].__setitem__("1", [0, "1", 1]),
     "whole numbers"),
    (lambda doc: doc.__setitem__("periods", 2.9), "whole number"),
], ids=["nan-fraction", "fractional-status", "string-status",
        "fractional-periods"])
def test_redispatch_rejects_plan_numbers_it_would_truncate_or_ignore(
        tmp_path, caplog, edit, reason):
    assert reason in _redispatch_edited_plan(tmp_path, caplog, edit)


def test_rop_node_limit_is_solver_limit(tmp_path, caplog):
    out = tmp_path / "plan.json"
    assert main(["rop", "--case", CASE5, "--damage", DMG5, "--periods", "5",
                 "--node-limit", "5", "--out", str(out)]) == 3
    assert not out.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("solver: ")


def test_gap_met_at_the_root_is_not_a_node_limit_stop(tmp_path, caplog):
    # case118 area 1, gen-damage seed 42, K=2: the root's dive closes the gap
    case118 = str(CASES / "case118_smoke.m")
    dmg = tmp_path / "damage.json"
    assert main(["gen-damage", "--case", case118, "--fraction", "0.35",
                 "--area", "1-23,25-32,113-115,117", "--seed", "42",
                 "--out", str(dmg)]) == 0
    out = tmp_path / "plan.json"
    assert main(["rop", "--case", case118, "--damage", str(dmg), "--periods",
                 "2", "--gap", "0.01", "--node-limit", "1",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert not [r for r in caplog.records if r.levelname == "ERROR"]
