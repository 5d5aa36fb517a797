"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The checks must reject corrupted outputs, the case118 objective must lie
within its gap of the HiGHS MILP optimum, self times must add up, the
speed probe must leave no timer behind, and a run outside a checkout must
fail without printing a result.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import Capture  # noqa: E402

import grs.workflows  # noqa: E402
from grs import netio  # noqa: E402
from grs.mip import SolveLimits  # noqa: E402


def _solved(op):
    capture = Capture(grs.workflows)
    try:
        result = op.run()
    finally:
        grs.workflows.solve_mip = capture.real
    return result, capture.solves


@pytest.fixture(scope="module")
def case5_all():
    net = netio.load_case(workloads.CASE5)
    with open(workloads.CASES / "damage5_all.json", encoding="utf-8") as f:
        return net, netio.damage_from_dict(json.load(f))


@pytest.fixture(scope="module")
def dc_k3(case5_all):
    net, dmg = case5_all
    op = workloads.PipelineOp("dc", workloads.CASE5, net, dmg, 3, "dc",
                              SolveLimits(), milp_optimum=True)
    return op, *_solved(op)


@pytest.fixture(scope="module")
def soc_k3(case5_all):
    net, dmg = case5_all
    op = workloads.PipelineOp("soc", workloads.CASE5, net, dmg, 3, "soc",
                              SolveLimits())
    return op, *_solved(op)


def test_good_outputs_pass(dc_k3, soc_k3):
    for op, result, solves in (dc_k3, soc_k3):
        assert op.check(result, solves) == []


def test_over_budget_period_is_rejected(dc_k3):
    op, result, solves = dc_k3
    bad = copy.deepcopy(result)
    for zs in bad.plan.status.values():
        zs[1:] = [1] * (len(zs) - 1)  # everything repaired in period 1
    assert any("exceed budget" in p for p in op.check(bad, solves))


def test_decreasing_status_is_rejected(dc_k3):
    op, result, solves = dc_k3
    bad = copy.deepcopy(result)
    item = next(it for it, zs in bad.plan.status.items() if zs[1] == 1)
    bad.plan.status[item][2] = 0
    assert any("status decreases" in p for p in op.check(bad, solves))


def test_bad_objective_is_rejected(dc_k3):
    op, result, solves = dc_k3
    bad = copy.deepcopy(result)
    bad.plan.objective_value *= 1.01
    problems = op.check(bad, solves)
    assert any("binaries fixed" in p for p in problems)
    assert any("HiGHS optimum" in p for p in problems)


def test_ens_outside_range_is_rejected(dc_k3):
    op, result, solves = dc_k3
    bad = copy.deepcopy(result)
    bad.true_ens_mwh = -1.0
    assert any("true ENS" in p for p in op.check(bad, solves))


def test_soc_violations_are_rejected(soc_k3):
    op, result, solves = soc_k3
    model, limits, sol = solves[0]
    values = sol.values.copy()
    cone = model.cone_rows[0]
    values[cone.x] += 1.0
    assert checks.cone_problems(model, values, op.limits.cone_tol)
    assert checks.cone_problems(model, sol.values, op.limits.cone_tol) == []
    assert checks.soc_ens_problems(result.true_ens_mwh + 10.0,
                                   result.true_ens_mwh, 1000.0)


def test_mrsp_set_too_small_or_large_is_rejected():
    ops = [op for op in workloads.setup("case5-dc-k5", 0) if op.mrsp]
    result, solves = _solved(ops[0])
    data = checks.read_case(workloads.CASE5)
    damaged = ops[0].dmg.sorted_items()
    model = solves[0][0]
    assert checks.mrsp_problems(model, result.mrsp_set, data, damaged) == []
    assert checks.mrsp_problems(model, result.mrsp_set[1:], data, damaged)
    assert checks.mrsp_problems(model, damaged, data, damaged)
    assert not checks.dc_full_load_feasible(data, set(damaged))


def test_heuristic_order_checks():
    net = netio.load_case(workloads.CASE118)
    op = workloads.HeuristicOp("h", net, workloads.area1_damage(42), 10)
    out = op.run()
    assert op.check(out, []) == []
    plan = copy.deepcopy(out[0])
    data = checks.read_case(workloads.CASE118)
    first = {it: zs.index(1) for it, zs in plan.status.items()}
    strong = max(first, key=lambda it: (data.capability(*it), -first[it]))
    weak = min(first, key=lambda it: (data.capability(*it), first[it]))
    assert data.capability(*strong) > data.capability(*weak)
    plan.status[strong], plan.status[weak] = plan.status[weak], plan.status[strong]
    assert checks.capability_order_problems(plan, data)


def test_case118_objective_within_gap_of_highs():
    ops = workloads.setup("case118-dc-rop", 0)
    result, solves = _solved(ops[0])
    assert ops[0].check(result, solves) == []
    model, limits, sol = solves[0]
    opt = checks.highs_objective(model, True)
    reported = result.plan.objective_value / checks.read_case(
        workloads.CASE118).base_mva
    assert not math.isnan(opt)
    assert reported <= opt * (1 + 1e-6)  # a maximization never beats it
    assert (opt - reported) <= limits.gap * max(1.0, abs(opt)) + 1e-6


def test_self_times_and_layer_metrics():
    # a(0..10) > b(1..4) > c(2..3); a > d(5..9), layers: workflows > bnb > simplex
    recs = [["workflows.run_rop_then_redispatch", 0.0, 10.0, -1, 0, None],
            ["mip.bnb.solve_mip", 1.0, 4.0, 0, 0,
             {"nodes": 3, "cuts": 0, "lp_iters": 7, "status": "optimal",
              "xhash": 1}],
            ["mip.simplex.solve_lp_core", 2.0, 3.0, 1, 0,
             {"iters": 7, "status": "optimal", "warm": False, "xhash": 1}],
            ["acvalidate.newton_pf", 5.0, 9.0, 0, 0,
             {"iters": 4, "converged": True}]]
    assert spans.self_times(recs, 0, 4) == [3.0, 2.0, 1.0, 4.0]
    m = spans.layer_metrics(recs, 0, 4)
    assert m["workflows.self_s"] == 3.0 and m["workflows.busy_s"] == 10.0
    assert m["bnb.busy_s"] == 3.0 and m["bnb.self_s"] == 2.0
    assert m["simplex.root_lp_iters"] == 7 and m["bnb.incumbent_lp"] == 1
    assert m["acvalidate.newton_iters"] == 4
    assert m["bnb.nodes_per_s"] == 1.0


def test_tracer_restores_every_binding():
    before = [getattr(mod, attr) for _, mod, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    assert grs.workflows.solve_mip is not before[
        [t[2] for t in spans.TARGETS].index("solve_mip")]
    tracer.uninstall()
    after = [getattr(mod, attr) for _, mod, attr, _ in spans.TARGETS]
    assert all(a is b for a, b in zip(before, after))
    assert not isinstance(spans.grs.mip.simplex.spla, spans._SpluProxy)


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case5-dc-k5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_orders_but_does_not_change_inputs():
    a = workloads.setup("case118-heuristic", 1)
    b = workloads.setup("case118-heuristic", 2)
    assert sorted(op.name for op in a) == sorted(op.name for op in b)
    assert [op.name for op in a] == [
        op.name for op in workloads.setup("case118-heuristic", 1)]
    assert all(len(op.dmg) > 0 for op in a)


def test_probe_samples_and_restores_the_alarm_handler():
    p = probe.SpeedProbe()
    p.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    p.stop()
    wall = time.perf_counter() - t0
    assert len(p.samples) >= 2 and 0.0 < p.spent < wall
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # reference seconds leave the handler's time out and scale by speed
    ref = p.rescale(wall)
    speed = probe.REF_S / statistics.mean(p.samples)
    assert math.isclose(ref, (wall - p.spent) * speed)
