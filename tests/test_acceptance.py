"""Acceptance gate: one test per criterion, each printing a PASS line.

Heavy pipelines run once per "round"; criterion 10 re-runs every artifact
producer a second time and requires byte-identical output.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from grs import cli, netio
from grs.acvalidate import (IslandData, max_load_delivery, newton_pf,
                            redispatch_plan)
from grs.formulations import DC, SOC, build_mrsp, build_rop, decode_plan
from grs.grid import DamageScenario, apply_damage, replicate
from grs.mip import (INFEASIBLE, OPTIMAL, GAP_LIMIT, MipModel, SolveLimits,
                     solve_lp, solve_mip)
from grs.workflows import (pipeline_result_to_dict, run_mrsp_then_rop,
                           run_rop_then_redispatch)
from tests.conftest import make_two_bus
from tests.oracles import (bus_generation, enumerate_rop_orders, island_of,
                           power_flow_jacobian, residual_injections)
from tests.test_mip import _random_milp, milp_enumeration_oracle

CASES = Path(__file__).resolve().parent.parent / "cases"

_ARTIFACTS: dict[str, dict[int, bytes]] = {}


def record(name: str, rnd: int, data: bytes):
    _ARTIFACTS.setdefault(name, {})[rnd] = data


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


@functools.lru_cache(maxsize=None)
def load_case5():
    return netio.load_case(CASES / "case5_restoration.m")


@functools.lru_cache(maxsize=None)
def load_case10():
    return netio.load_case(CASES / "case10_radial.m")


DMG5 = DamageScenario.of(branches=[1, 2, 3, 4, 5, 6], gens=[1, 2, 3, 4, 5])


# --- criterion 1 ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def run_milp_suite(rnd: int):
    rng = np.random.default_rng(20240915)
    total_solve = 0.0
    results = []
    for _ in range(50):
        nb = int(rng.integers(1, 9))
        nc = int(rng.integers(0, 13))
        model, rows, obj, sense, lbs, ubs = _random_milp(
            rng, nb, nc, int(rng.integers(2, 10)))
        t0 = time.perf_counter()
        sol = solve_mip(model)
        total_solve += time.perf_counter() - t0
        ref = milp_enumeration_oracle(nb, nc, rows, obj, sense, lbs, ubs)
        results.append((sol.status, None if math.isnan(sol.objective)
                        else round(sol.objective, 9), ref))
    blob = json.dumps([(s, o) for s, o, _ in results]).encode()
    record("milp_suite", rnd, blob)
    return results, total_solve


def test_criterion_1_mip_oracle_suite():
    results, total_solve = run_milp_suite(1)
    for status, obj, ref in results:
        if ref is None:
            assert status == INFEASIBLE
        else:
            assert status == OPTIMAL
            assert obj == pytest.approx(ref, abs=1e-5, rel=1e-5)
    assert total_solve < 5.0
    report(1, f"50 MILPs match enumeration oracle; solve time {total_solve:.2f}s < 5s")


# --- criterion 2 ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def run_cone_instance(rnd: int):
    from grs.mip.bnb import _LpContext, _solve_with_cones
    from grs.mip import SolveStats

    model = MipModel()
    x = model.add_var("x", -2.0, 2.0)
    u = model.add_var("u", 1.0, 1.0)
    v = model.add_var("v", 1.0, 1.0)
    model.add_cone(x, x, u, v, "unit")
    model.set_objective("max", {x: 1.0})

    ctx = _LpContext(model)
    stats = SolveStats()
    res, ok = _solve_with_cones(ctx, {}, None, SolveLimits(), stats)
    sol = solve_mip(model)
    blob = json.dumps({"objective": sol.objective,
                       "cuts": [(sorted(c.coeffs.items()), c.rhs)
                                for c in ctx.cuts]}).encode()
    record("cone_instance", rnd, blob)
    return sol, ctx.cuts


def test_criterion_2_cone_accuracy():
    sol, cuts = run_cone_instance(1)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(math.sqrt(0.5), abs=1e-4)
    assert cuts, "expected at least one generated cut"
    # instance variables are (x, u, v) with the cone aliasing x in both
    # quadratic slots: points satisfy 2 x^2 <= u v
    rng = np.random.default_rng(99)
    points = []
    while len(points) < 1000:
        uu, vv = rng.uniform(0, 2), rng.uniform(0, 2)
        xmax = math.sqrt(uu * vv / 2.0)
        points.append(np.array([rng.uniform(-xmax, xmax), uu, vv]))
    for cut in cuts:
        for p in points:
            act = sum(c * p[j] for j, c in cut.coeffs.items())
            assert act <= cut.rhs + 1e-9
    report(2, f"max-x-on-unit-cone = {sol.objective:.6f} "
              f"(target {math.sqrt(0.5):.6f}); {len(cuts)} cuts valid on 1000 points")


# --- criterion 3 ---------------------------------------------------------

def test_criterion_3_power_flow_verification():
    net = load_case5()
    buses = sorted(net.buses)
    branches = sorted(net.branches)
    Y = IslandData.build(net, buses, branches, sorted(net.gens),
                         sorted(net.loads)).Y
    rng = np.random.default_rng(314)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        vm = 1.0 + 0.05 * rng.standard_normal(len(buses))
        va = 0.25 * rng.standard_normal(len(buses))
        v = vm * np.exp(1j * va)
        ds_dva, ds_dvm = power_flow_jacobian(Y, v)

        def inj(vm_, va_):
            v_ = vm_ * np.exp(1j * va_)
            return v_ * (Y @ v_).conjugate()

        for k in range(len(buses)):
            vap, vam = va.copy(), va.copy()
            vap[k] += h
            vam[k] -= h
            fd = (inj(vm, vap) - inj(vm, vam)) / (2 * h)
            rel = np.max(np.abs(fd - ds_dva[:, k])
                         / np.maximum(np.abs(ds_dva[:, k]), 1.0))
            worst = max(worst, rel)
            vmp, vmm = vm.copy(), vm.copy()
            vmp[k] += h
            vmm[k] -= h
            fd = (inj(vmp, va) - inj(vmm, va)) / (2 * h)
            rel = np.max(np.abs(fd - ds_dvm[:, k])
                         / np.maximum(np.abs(ds_dvm[:, k]), 1.0))
            worst = max(worst, rel)
    assert worst < 1e-5

    # converged-state residual via the independent evaluator
    disp = max_load_delivery(net, {})
    res = [i for i in disp.islands if len(i.buses) == 5][0]
    pf, isl = res.pf, island_of(net, {}, res.buses)
    inj2 = residual_injections(net, isl.buses, branches, pf.vm, pf.va)
    gen = bus_generation(net, isl, pf, [1.0] * len(isl.loads))
    max_resid = 0.0
    for b in isl.buses:
        load = sum(complex(d.pd, d.qd) for d in net.loads.values() if d.bus == b)
        max_resid = max(max_resid, abs(inj2[b] - (gen[b] - load)))
    assert max_resid <= 1e-7

    two = make_two_bus(load_pu=0.5, rate=0.0, n_branches=1, condenser_at_2=True)
    pf2 = newton_pf(IslandData.build(two, [1, 2], [1], [1, 2], [2]),
                    [0.0], [1.0])
    theta = pf2.va[0] - pf2.va[1]  # buses 1 and 2
    assert theta == pytest.approx(math.asin(0.05), abs=1e-6)
    report(3, f"Jacobian FD rel err {worst:.2e} < 1e-5; residual {max_resid:.2e}"
              f" <= 1e-7; arcsin angle err {abs(theta - math.asin(0.05)):.2e}")


# --- criterion 4 ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def run_two_bus_rop(rnd: int):
    net = make_two_bus(load_pu=1.0, rate=0.6, n_branches=2)
    case = replicate(net, DamageScenario.of(branches=[1, 2]), 2)
    model = build_rop(case, DC)
    sol = solve_mip(model)
    plan = decode_plan(case, model, sol, DC)
    blob = json.dumps(netio.plan_to_dict(plan)).encode()
    record("two_bus_plan", rnd, blob)
    return case, sol, plan


def test_criterion_4_rop_desk_scale():
    case, sol, plan = run_two_bus_rop(1)
    assert sol.status == OPTIMAL
    best, order = enumerate_rop_orders(case)
    assert sol.objective == pytest.approx(best, abs=1e-9)
    total_excl_p0 = case.base.total_load() * case.periods  # pu-periods 1..K
    served_excl_p0 = sol.objective - sum(
        plan.load_fraction[l][0] * case.base.loads[l].pd for l in case.base.loads)
    ens = (total_excl_p0 - served_excl_p0) * case.base.base_mva * case.period_hours
    assert ens == pytest.approx(40.0, abs=1e-9)
    plan.validate(case)
    report(4, f"2-bus DC ROP ENS = {ens:.6f} MWh, exact vs order enumeration")


# --- criterion 5 ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def run_case5_k3(rnd: int, formulation: str):
    result = run_rop_then_redispatch(load_case5(), DMG5, 3, formulation,
                                     limits=SolveLimits(time_s=500))
    blob = json.dumps(pipeline_result_to_dict(result)).encode()
    record(f"case5_k3_{formulation}", rnd, blob)
    return result


def test_criterion_5_relaxation_ordering():
    total_energy = load_case5().total_load() * 100.0 * 4  # MWh over periods 0..3
    soc = run_case5_k3(1, SOC)
    assert soc.estimated_ens_mwh <= soc.true_ens_mwh + 1e-4 * total_energy
    dc = run_case5_k3(1, DC)
    assert dc.estimated_ens_mwh <= dc.true_ens_mwh + 1e-6
    report(5, f"SOC est {soc.estimated_ens_mwh:.1f} <= true {soc.true_ens_mwh:.1f}; "
              f"DC est {dc.estimated_ens_mwh:.1f} <= true {dc.true_ens_mwh:.1f} MWh")


# --- criteria 6 and 7 ----------------------------------------------------

K67 = 11  # one repair per period; both pipelines then share the same cadence


@functools.lru_cache(maxsize=None)
def run_case5_plain(rnd: int):
    result = run_rop_then_redispatch(load_case5(), DMG5, K67, DC,
                                     limits=SolveLimits(time_s=560))
    record("case5_plain", rnd,
           json.dumps(pipeline_result_to_dict(result)).encode())
    return result


@functools.lru_cache(maxsize=None)
def run_case5_reduced(rnd: int):
    result = run_mrsp_then_rop(load_case5(), DMG5, K67, DC,
                               limits=SolveLimits(time_s=560))
    record("case5_reduced", rnd,
           json.dumps(pipeline_result_to_dict(result)).encode())
    return result


def test_criterion_6_mrsp_reduction():
    reduced = run_case5_reduced(1)
    assert reduced.mrsp_set is not None
    assert len(reduced.mrsp_set) <= 6

    # the chosen set alone must make the full load DC-feasible: fix statuses
    net = apply_damage(load_case5(), DMG5)
    model = build_mrsp(net, DC)
    for kind, cid in net.damaged_items():
        idx = model.var_index(f"z_{kind}[{cid}]@0")
        val = 1.0 if (kind, cid) in set(reduced.mrsp_set) else 0.0
        model.vars[idx].lb = model.vars[idx].ub = val
    assert solve_lp(model).status == OPTIMAL

    plain = run_case5_plain(1)
    assert reduced.true_ens_mwh >= plain.true_ens_mwh - 1e-6
    t_reduced = reduced.timings["optimize"]
    t_plain = plain.timings["build_rop"] + plain.timings["solve_rop"]
    assert t_reduced < t_plain
    report(6, f"repair set {len(reduced.mrsp_set)}/11, DC-feasible; ENS "
              f"{reduced.true_ens_mwh:.1f} >= {plain.true_ens_mwh:.1f} MWh; "
              f"time {t_reduced:.2f}s < {t_plain:.2f}s")


def _zero_period(report_obj, tol=1e-6):
    for row in report_obj.rows:
        if row.ens_mwh <= tol:
            return row.period
    return None


def test_criterion_7_full_service_plateau():
    reduced = run_case5_reduced(1)
    plain = run_case5_plain(1)
    zp_reduced = _zero_period(reduced.report)
    zp_plain = _zero_period(plain.report)
    assert zp_reduced is not None and zp_plain is not None
    assert zp_reduced <= zp_plain
    report(7, f"reduced pipeline reaches zero ENS at period {zp_reduced} <= "
              f"plain at {zp_plain}")


# --- criterion 8 ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def radial_scenario(rnd: int, tmp: str):
    out = Path(tmp) / f"dmg10_r{rnd}.json"
    rc = cli.main(["gen-damage", "--case", str(CASES / "case10_radial.m"),
                   "--fraction", "0.25", "--kinds", "branch", "--seed", "5",
                   "--out", str(out)])
    assert rc == 0
    data = out.read_bytes()
    record("radial_scenario", rnd, data)
    return netio.damage_from_dict(json.loads(data))


@functools.lru_cache(maxsize=None)
def run_radial(rnd: int, tmp: str):
    dmg = radial_scenario(rnd, tmp)
    result = run_rop_then_redispatch(load_case10(), dmg, 2, DC)
    record("radial_result", rnd,
           json.dumps(pipeline_result_to_dict(result)).encode())
    return result


def test_criterion_8_radial_agreement(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("radial"))
    result = run_radial(1, tmp)
    net = load_case10()
    total_energy = net.total_load() * net.base_mva * 3  # periods 0..2, 1 h
    diff = abs(result.estimated_ens_mwh - result.true_ens_mwh)
    assert diff <= 0.005 * total_energy
    report(8, f"radial |est - true| = {diff:.4f} MWh <= "
              f"{0.005 * total_energy:.2f} (0.5% of {total_energy:.0f})")


# --- criterion 9 ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def scenario_118(rnd: int, tmp: str):
    out = Path(tmp) / f"dmg118_r{rnd}.json"
    rc = cli.main(["gen-damage", "--case", str(CASES / "case118_smoke.m"),
                   "--fraction", "0.35", "--area", "1-23,25-32,113-115,117",
                   "--seed", "42", "--out", str(out)])
    assert rc == 0
    data = out.read_bytes()
    record("scenario_118", rnd, data)
    return netio.damage_from_dict(json.loads(data))


@functools.lru_cache(maxsize=None)
def run_118(rnd: int, tmp: str):
    net = netio.load_case(CASES / "case118_smoke.m")
    dmg = scenario_118(rnd, tmp)
    case = replicate(net, dmg, 10)
    model = build_rop(case, DC)
    t0 = time.perf_counter()
    sol = solve_mip(model, SolveLimits(gap=0.01))
    wall = time.perf_counter() - t0
    plan = decode_plan(case, model, sol, DC)
    rep = redispatch_plan(case, plan)
    record("result_118", rnd, json.dumps({
        "status": sol.status, "objective": round(sol.objective, 9),
        "bound": round(sol.bound, 9),
        "plan": netio.plan_to_dict(plan),
        "report": netio.report_to_dict(rep),
    }).encode())
    return sol, rep, wall


def test_criterion_9_scale_smoke(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("c118"))
    sol, rep, wall = run_118(1, tmp)
    assert sol.status in (OPTIMAL, GAP_LIMIT)
    assert sol.gap <= 0.01
    assert wall < 600.0
    assert rep.true_ens_mwh >= rep.estimated_ens_mwh - 1e-6
    report(9, f"118-bus DC ROP gap {sol.gap:.4f} <= 1% in {wall:.0f}s; "
              f"true {rep.true_ens_mwh:.1f} >= est {rep.estimated_ens_mwh:.1f} MWh")


# --- criterion 10 --------------------------------------------------------

def test_criterion_10_determinism(tmp_path_factory):
    for rnd in (1, 2):  # round 1 is cached when criteria 1-9 already ran
        tmp8 = str(tmp_path_factory.mktemp(f"radial_{rnd}"))
        tmp9 = str(tmp_path_factory.mktemp(f"c118_{rnd}"))
        run_milp_suite(rnd)
        run_cone_instance(rnd)
        run_two_bus_rop(rnd)
        run_case5_k3(rnd, SOC)
        run_case5_k3(rnd, DC)
        run_case5_plain(rnd)
        run_case5_reduced(rnd)
        radial_scenario(rnd, tmp8)
        run_radial(rnd, tmp8)
        scenario_118(rnd, tmp9)
        run_118(rnd, tmp9)

    mismatched = []
    for name, rounds in sorted(_ARTIFACTS.items()):
        if rounds.get(1) != rounds.get(2):
            mismatched.append(name)
    assert not mismatched, f"non-identical artifacts: {mismatched}"
    report(10, f"{len(_ARTIFACTS)} artifacts byte-identical across two runs")
