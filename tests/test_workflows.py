import json

import pytest

from grs.formulations import DC, SOC, build_rop
from grs.grid import BRANCH, GEN, DamageScenario, replicate
from grs.mip import SolveLimits, solve_mip
from grs.workflows import (PipelineInfeasible, capability, heuristic_order,
                           pipeline_result_to_dict, run_mrsp_then_rop,
                           run_rop_then_redispatch, score_plan_dc)
from tests.conftest import make_two_bus


def test_pipeline_undamaged(case5):
    result = run_rop_then_redispatch(case5, DamageScenario.of(), 1, DC)
    assert result.estimated_ens_mwh == pytest.approx(0.0, abs=1e-6)
    assert result.true_ens_mwh == pytest.approx(0.0, abs=1e-6)


def test_pipeline_two_bus_parallel(two_bus_parallel):
    result = run_rop_then_redispatch(two_bus_parallel,
                                     DamageScenario.of(branches=[1, 2]), 2, DC,
                                     count_initial_period=False)
    assert result.estimated_ens_mwh == pytest.approx(40.0, abs=1e-6)
    # sending-end reactive shifts the AC thermal bind slightly below 0.6
    assert result.true_ens_mwh == pytest.approx(40.0, abs=0.2)
    assert result.true_ens_mwh >= result.estimated_ens_mwh - 1e-9


def test_mrsp_then_rop_radial_no_reduction(case10):
    # single-source feeder with every branch damaged: nothing is redundant
    dmg = DamageScenario.of(branches=list(range(1, 10)))
    reduced = run_mrsp_then_rop(case10, dmg, 3, DC)
    assert sorted(reduced.mrsp_set) == sorted(dmg.sorted_items())
    plain = run_rop_then_redispatch(case10, dmg, 3, DC)
    assert reduced.estimated_ens_mwh == pytest.approx(plain.estimated_ens_mwh,
                                                      abs=1e-6)
    assert reduced.true_ens_mwh == pytest.approx(plain.true_ens_mwh, abs=1e-6)


def test_mrsp_infeasible_raises():
    net = make_two_bus(load_pu=1.0, rate=0.3)
    with pytest.raises(PipelineInfeasible,
                       match="mrsp: full load unreachable even with all repairs"):
        run_mrsp_then_rop(net, DamageScenario.of(branches=[1, 2]), 2, DC)


def test_heuristic_gen_before_small_branch():
    net = make_two_bus(load_pu=1.0, rate=0.6, n_branches=2)
    dmg = DamageScenario.of(branches=[1], gens=[1])
    plan = heuristic_order(net, dmg, 2)
    # gen pmax 2.0 beats branch rating 0.6
    assert plan.status[(GEN, 1)] == [0, 1, 1]
    assert plan.status[(BRANCH, 1)] == [0, 0, 1]


def test_heuristic_tie_by_id(two_bus_parallel):
    plan = heuristic_order(two_bus_parallel,
                           DamageScenario.of(branches=[1, 2]), 2)
    assert plan.status[(BRANCH, 1)] == [0, 1, 1]
    assert plan.status[(BRANCH, 2)] == [0, 0, 1]


def test_heuristic_unlimited_rating_first(case10):
    assert capability(case10, BRANCH, 1) == pytest.approx(2.0)
    net = make_two_bus(rate=0.0, n_branches=1)
    assert capability(net, BRANCH, 1) == float("inf")


def test_heuristic_never_beats_dc_objective(two_bus_parallel):
    dmg = DamageScenario.of(branches=[1, 2])
    case = replicate(two_bus_parallel, dmg, 2)
    plan = heuristic_order(two_bus_parallel, dmg, 2)
    heuristic_score = score_plan_dc(case, plan)
    sol = solve_mip(build_rop(case, DC))
    rop_objective = sol.objective * 100.0
    assert heuristic_score <= rop_objective + 1e-6


def test_heuristic_true_ens_not_below_optimal(two_bus_parallel):
    # both repair orders tie on this symmetric case, so the capability-first
    # baseline lands exactly on the optimum
    from grs.acvalidate import redispatch_plan
    dmg = DamageScenario.of(branches=[1, 2])
    case = replicate(two_bus_parallel, dmg, 2)
    plan = heuristic_order(two_bus_parallel, dmg, 2)
    baseline = redispatch_plan(case, plan)
    optimal = run_rop_then_redispatch(two_bus_parallel, dmg, 2, DC)
    assert baseline.true_ens_mwh >= optimal.true_ens_mwh - 1e-6


def test_pipeline_result_json_deterministic(two_bus_parallel):
    dmg = DamageScenario.of(branches=[1, 2])
    a = run_rop_then_redispatch(two_bus_parallel, dmg, 2, DC)
    b = run_rop_then_redispatch(two_bus_parallel, dmg, 2, DC)
    ja = json.dumps(pipeline_result_to_dict(a), indent=1)
    jb = json.dumps(pipeline_result_to_dict(b), indent=1)
    assert ja == jb
    assert "timings" not in ja


def test_soc_pipeline_relaxation_invariant(two_bus_parallel):
    dmg = DamageScenario.of(branches=[1, 2])
    result = run_rop_then_redispatch(two_bus_parallel, dmg, 2, SOC,
                                     limits=SolveLimits(time_s=120))
    assert result.estimated_ens_mwh <= result.true_ens_mwh + 1e-4 * 300.0


def test_timings_present_and_positive(two_bus_parallel):
    plain_keys = {"build_rop", "solve_rop", "redispatch", "total"}
    mrsp_keys = plain_keys | {"build_mrsp", "solve_mrsp", "optimize"}
    dmg = DamageScenario.of(branches=[1, 2])
    for pipeline, keys in ((run_rop_then_redispatch, plain_keys),
                           (run_mrsp_then_rop, mrsp_keys)):
        result = pipeline(two_bus_parallel, dmg, 2, DC)
        assert set(result.timings) == keys
        assert all(v >= 0.0 for v in result.timings.values())
        assert result.timings["total"] >= max(result.timings.values())
