"""Differential gate: the DC MIPs that ``solve_mip`` answers agree with HiGHS.

Damage subsets are drawn on the two desk-scale fixtures; for each, the DC
repair-ordering model (K in 2..3) and the DC minimum-repair-set model are
solved by ``solve_mip`` at a drawn gap and by ``scipy.optimize.milp`` on
arrays built from the same ``MipModel`` fields (``oracles.highs_milp``).
At case118 scale, the DC repair-ordering model (K=2 and K=3) and the DC
minimum-repair-set model of four area-1 ``gen-damage`` scenarios are
checked the same way at a 1% gap; these are the models whose root LP
starts from a crash basis.

SOC models have no HiGHS counterpart here, so their gate checks answers
against the model and the AC validator instead: on drawn case5 and case10
damage, the SOC repair-ordering model (K=2) is solved under a node limit,
and its incumbent must hold every cone row within ``cone_tol`` and
estimate no more ENS than the AC redispatch of its plan finds, up to
1e-4 of the demanded energy (acceptance criterion 5's tolerance).
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from grs import cli, netio
from grs.acvalidate import redispatch_plan
from grs.formulations import (DC, SOC, build_mrsp, build_rop, decode_plan,
                              estimated_ens_mwh)
from grs.grid import (BRANCH, GEN, DamageScenario, apply_damage,
                      connected_islands, ens_mwh, replicate)
from grs.mip import (CUT_LIMIT, INFEASIBLE, NODE_LIMIT, OPTIMAL, GAP_LIMIT,
                     SolveLimits, cone_violation, solve_mip)

from tests.oracles import highs_milp

MATCH_TOL = 1e-6  # relative slack on top of the requested gap
CASE118 = Path(__file__).resolve().parent.parent / "cases" / "case118_smoke.m"
AREA1 = "1-23,25-32,113-115,117"


def _agrees(model, gap, sol=None):
    """Problems found comparing ``solve_mip`` at ``gap`` (or its solution
    ``sol``) with HiGHS."""
    opt = highs_milp(model)
    if sol is None:
        sol = solve_mip(model, SolveLimits(gap=gap))
    if math.isnan(opt):
        return [] if sol.status == INFEASIBLE else [f"{sol.status} vs none"]
    if sol.status not in (OPTIMAL, GAP_LIMIT):
        return [f"status {sol.status}, HiGHS optimum {opt}"]
    scale = max(1.0, abs(opt))
    out = []
    if abs(sol.objective - opt) > (gap + MATCH_TOL) * scale:
        out.append(f"objective {sol.objective} vs HiGHS {opt}")
    # the incumbent is feasible and the bound is valid, on either side
    worse = sol.objective - opt if model.sense == "max" else opt - sol.objective
    looser = opt - sol.bound if model.sense == "max" else sol.bound - opt
    if worse > MATCH_TOL * scale or looser > MATCH_TOL * scale:
        out.append(f"objective {sol.objective} / bound {sol.bound} do not "
                   f"bracket HiGHS {opt}")
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_dc_rop_and_mrsp_match_highs(case5, case10, data):
    net, dmg = _draw_damage(data, case5, case10)
    periods = data.draw(st.integers(2, 3), label="periods")
    gap = data.draw(st.sampled_from([1e-6, 1e-2]), label="gap")
    rop = build_rop(replicate(net, dmg, periods), DC)
    assert _agrees(rop, gap) == []
    mrsp = build_mrsp(apply_damage(net, dmg), DC)
    assert _agrees(mrsp, gap) == []


def _draw_damage(data, case5, case10):
    net = data.draw(st.sampled_from([case5, case10]), label="case")
    live = net.live()
    items = [(BRANCH, i) for i in live.branches] + [(GEN, i) for i in live.gens]
    picked = data.draw(st.lists(st.sampled_from(items), min_size=1,
                                unique=True), label="damage")
    return net, DamageScenario.of(
        branches=[i for k, i in picked if k == BRANCH],
        gens=[i for k, i in picked if k == GEN])


def _charged_island_without_generator(net, dmg):
    """Whether period 0 has an island with a charged branch and no
    generator.  The SOC model keeps every undamaged bus energized, so the
    charging's reactive power has nowhere to go: the model is infeasible."""
    live = net.live()
    on = {(BRANCH, i): (BRANCH, i) not in dmg.damaged for i in live.branches}
    for island in connected_islands(net, on, live):
        charged = any(on[BRANCH, i] and net.branches[i].f_bus in island
                      and net.branches[i].b_charge != 0.0
                      for i in live.branches)
        supplied = any(net.gens[g].bus in island and (GEN, g) not in dmg.damaged
                       for g in live.gens)
        if charged and not supplied:
            return True
    return False


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_soc_rop_holds_its_cones_and_bounds_true_ens(case5, case10, data):
    net, dmg = _draw_damage(data, case5, case10)
    case = replicate(net, dmg, 2)
    model = build_rop(case, SOC)
    limits = SolveLimits(nodes=5)
    sol = solve_mip(model, limits)
    if sol.status == INFEASIBLE:
        assert _charged_island_without_generator(net, dmg)
        return
    assert sol.status in (OPTIMAL, NODE_LIMIT, CUT_LIMIT)
    if math.isnan(sol.objective):  # stopped before any incumbent
        return
    worst = max(cone_violation(c, sol.values) for c in model.cone_rows)
    assert worst <= limits.cone_tol
    plan = decode_plan(case, model, sol, SOC)
    demanded = ens_mwh(case.total_load_mw(), [0.0] * 3, case.period_hours,
                       True)
    assert estimated_ens_mwh(case, plan) \
        <= redispatch_plan(case, plan).true_ens_mwh + 1e-4 * demanded


def _case118_damage(tmp_path, seed):
    out = tmp_path / "damage.json"
    assert cli.main(["gen-damage", "--case", str(CASE118), "--fraction",
                     "0.35", "--area", AREA1, "--seed", str(seed), "--out",
                     str(out)]) == 0
    return netio.damage_from_dict(json.loads(out.read_text()))


def _case118_agrees(model):
    sol = solve_mip(model, SolveLimits(gap=0.01))
    assert sol.stats.crash_cols > 0  # the root LP started from a crash
    return _agrees(model, 0.01, sol)


@pytest.mark.parametrize("seed", [42, 43, 44, 45])
def test_case118_dc_rop_matches_highs(tmp_path, seed):
    dmg = _case118_damage(tmp_path, seed)
    model = build_rop(replicate(netio.load_case(CASE118), dmg, 2), DC)
    assert _case118_agrees(model) == []


@pytest.mark.parametrize("seed", [42, 43, 44, 45])
@pytest.mark.parametrize("kind", ["rop-k3", "mrsp"])
def test_case118_dc_rop_k3_and_mrsp_match_highs(tmp_path, kind, seed):
    net = netio.load_case(CASE118)
    dmg = _case118_damage(tmp_path, seed)
    if kind == "mrsp":
        model = build_mrsp(apply_damage(net, dmg), DC)
    else:
        model = build_rop(replicate(net, dmg, 3), DC)
    assert _case118_agrees(model) == []
