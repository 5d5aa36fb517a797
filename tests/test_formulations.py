import hashlib
import json

import pytest

from grs import netio
from grs.cli import main
from grs.formulations import (DC, SOC, VA_SPAN, bigM_for_branch, build_mrsp,
                              build_rop, dc_flow_cap, decode_plan,
                              estimated_ens_mwh, mrsp_set)
from grs.grid import BRANCH, Branch, DamageScenario, apply_damage, replicate
from grs.mip import INFEASIBLE, OPTIMAL, solve_lp, solve_mip
from tests.conftest import ANG, CASES, make_two_bus
from tests.oracles import dc_max_served, enumerate_rop_orders, model_size


def test_mrsp_no_damage_trivial(case5):
    model = build_mrsp(case5, DC)
    sol = solve_mip(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("formulation", [DC, SOC])
def test_mrsp_two_bus_repairs_one(formulation):
    # two parallel 0.6 pu branches, 0.5 pu load: enumeration over the four
    # repair subsets shows one branch is necessary and sufficient
    net = apply_damage(make_two_bus(load_pu=0.5), DamageScenario.of(branches=[1, 2]))
    for subset in ([], [1], [2], [1, 2]):
        served = dc_max_served(net, {(BRANCH, b): (b in subset) for b in (1, 2)})
        assert (served >= 0.5 - 1e-9) == (len(subset) >= 1)
    model = build_mrsp(net, formulation)
    sol = solve_mip(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_mrsp_five_bus_minimum_is_six(case5, damage5_all):
    net = apply_damage(case5, damage5_all)
    model = build_mrsp(net, DC)
    sol = solve_mip(model)
    assert sol.status == OPTIMAL
    assert round(sol.objective) == 6
    kept = [it for it, z in mrsp_set(net, model, sol).items() if round(z) == 1]
    # the chosen set must carry the full load on its own
    status = {it: (it in kept) for it in net.damaged_items()}
    assert dc_max_served(net, status) == pytest.approx(net.total_load(), abs=1e-6)


def test_mrsp_infeasible_when_load_unreachable():
    # no branch can carry the 1.0 pu load even with everything repaired
    net = apply_damage(make_two_bus(load_pu=1.0, rate=0.3),
                       DamageScenario.of(branches=[1, 2]))
    sol = solve_mip(build_mrsp(net, DC))
    assert sol.status == INFEASIBLE


def test_rop_no_damage_serves_everything(case5):
    case = replicate(case5, DamageScenario.of(), 1)
    model = build_rop(case, DC)
    sol = solve_mip(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(case5.total_load(), abs=1e-7)
    plan = decode_plan(case, model, sol, DC)
    assert estimated_ens_mwh(case, plan) == pytest.approx(0.0, abs=1e-6)


def test_rop_two_bus_parallel_matches_enumeration(two_bus_parallel):
    case = replicate(two_bus_parallel, DamageScenario.of(branches=[1, 2]), 2)
    assert case.repairs_per_period == 1
    model = build_rop(case, DC)
    sol = solve_mip(model)
    assert sol.status == OPTIMAL
    best, _ = enumerate_rop_orders(case)
    assert sol.objective == pytest.approx(best, abs=1e-7)
    assert sol.objective == pytest.approx(1.6, abs=1e-7)

    plan = decode_plan(case, model, sol, DC)
    plan.validate(case)
    assert estimated_ens_mwh(case, plan, count_initial_period=True) == \
        pytest.approx(140.0, abs=1e-6)
    assert estimated_ens_mwh(case, plan, count_initial_period=False) == \
        pytest.approx(40.0, abs=1e-6)


def test_rop_five_bus_reports_positive_ens(case5, damage5_all):
    case = replicate(case5, damage5_all, 3)
    assert case.repairs_per_period == 4
    model = build_rop(case, DC)
    sol = solve_mip(model)
    assert sol.status == OPTIMAL
    plan = decode_plan(case, model, sol, DC)
    ens = estimated_ens_mwh(case, plan)
    assert ens > 1000.0  # period 0 alone sheds the full 1000 MW for an hour


def _branch(x, tap=1.0, shift=0.0, rate=0.0):
    return Branch(1, 1, 2, 0.0, x, 0.0, rate, tap, shift, -ANG, ANG)


def test_bigM_values():
    assert bigM_for_branch(_branch(0.1)) == pytest.approx(10.472)
    assert bigM_for_branch(_branch(-0.1)) == pytest.approx(10.472)
    assert bigM_for_branch(_branch(0.1)) == pytest.approx(10 * VA_SPAN)


def test_rate_zero_keeps_M_and_caps_flow():
    limited = _branch(0.1, rate=0.6)
    unlimited = _branch(0.1, rate=0.0)
    assert bigM_for_branch(limited) == bigM_for_branch(unlimited)
    assert dc_flow_cap(limited) == pytest.approx(0.6)
    assert dc_flow_cap(unlimited) == pytest.approx(bigM_for_branch(unlimited))


@pytest.mark.parametrize("formulation", [DC, SOC])
def test_model_size_formula(case5, damage5_all, formulation):
    net = apply_damage(case5, damage5_all)
    model = build_mrsp(net, formulation)
    ev, er = model_size(net, formulation, rop=False, periods=0,
                        damaged=net.damaged_items())
    assert (len(model.vars), len(model.lin_rows)) == (ev, er)

    case = replicate(case5, damage5_all, 3)
    model = build_rop(case, formulation)
    ev, er = model_size(case.base, formulation, rop=True, periods=3,
                        damaged=case.damaged_items())
    assert (len(model.vars), len(model.lin_rows)) == (ev, er)


def test_model_size_two_bus(two_bus_parallel):
    case = replicate(two_bus_parallel, DamageScenario.of(branches=[1, 2]), 2)
    for formulation in (DC, SOC):
        model = build_rop(case, formulation)
        ev, er = model_size(case.base, formulation, rop=True, periods=2,
                            damaged=case.damaged_items())
        assert (len(model.vars), len(model.lin_rows)) == (ev, er)


def test_decoded_plan_satisfies_invariants(case5, damage5_all):
    case = replicate(case5, damage5_all, 3)
    model = build_rop(case, DC)
    sol = solve_mip(model)
    plan = decode_plan(case, model, sol, DC)
    plan.validate(case)
    for item in case.damaged_items():
        zs = plan.status[item]
        assert zs[0] == 0 and zs[-1] == 1
        assert all(b >= a for a, b in zip(zs, zs[1:]))
    for fr in plan.load_fraction.values():
        assert all(b >= a - 1e-7 for a, b in zip(fr, fr[1:]))


def test_soc_bound_dominates_ac_service(two_bus_parallel):
    """Relaxation containment: with statuses fixed, the cone model's served
    load is at least what the AC validator finds, period by period."""
    from grs import acvalidate
    net = two_bus_parallel
    case = replicate(net, DamageScenario.of(branches=[1, 2]), 2)
    model = build_rop(case, SOC)
    dc_model = build_rop(case, DC)
    sol = solve_mip(dc_model)
    plan = decode_plan(case, dc_model, sol, DC)

    fixed = build_rop(case, SOC)
    for item, zs in plan.status.items():
        kind, cid = item
        for n, z in enumerate(zs):
            idx = fixed.var_index(f"z_{kind}[{cid}]@{n}")
            fixed.vars[idx].lb = fixed.vars[idx].ub = float(z)
    soc_sol = solve_mip(fixed)
    assert soc_sol.status == OPTIMAL

    report = acvalidate.redispatch_plan(case, plan)
    ac_served_pu = report.served_mw_total / net.base_mva  # every period counts
    assert soc_sol.objective >= ac_served_pu - 1e-4


def test_dc_soc_agree_on_radial(case10):
    dmg = DamageScenario.of(branches=[3, 4])
    case = replicate(case10, dmg, 2)
    vals = {}
    for formulation in (DC, SOC):
        sol = solve_mip(build_rop(case, formulation))
        assert sol.status == OPTIMAL
        vals[formulation] = sol.objective
    assert abs(vals[DC] - vals[SOC]) <= 1e-3 * abs(vals[DC])


# scenario: (periods K, fingerprints of dc mrsp, dc rop, soc mrsp, soc rop)
FINGERPRINTS = {
    "case2": (2, "ed24f66a610e0124", "4bccc3f2d8aa99e1",
              "b3159ea1329630c4", "d522f29c8ac32342"),
    "case5": (3, "3d9a18125df0c6e6", "0fddeda61c0d3102",
              "6d8591c23fa11239", "c94d1919dcc3e187"),
    "case10-branches-1-4": (3, "29a4376c43c96c17", "6011afd8f3a49721",
                            "c30a76dbbfee0625", "3e9cfb98b86126aa"),
    "case5-mixed": (3, "dceb3f0f146a472d", "26025dee695412b7",
                    "137fd3b4c8eb9397", "69fab1f6864305be"),
    "case118-area1": (2, "88e3dc4162970868", "d5480f20d7eaf7b0",
                      "18def1709f2373f0", "4d9a7372845fc663"),
    "case118-area1-buses": (2, "1881a12aff3dfc05", "ab25d0e61abc5b40",
                            "642ab39725f9d9b6", "135007637d9f572e"),
}


def model_fingerprint(m) -> str:
    """Hash of everything a solve reads; json tells -0.0 from 0.0."""
    return hashlib.sha256(json.dumps([
        m.sense, sorted(m.obj.items()), m.obj_const,
        [(v.name, v.lb, v.ub, v.integrality) for v in m.vars],
        [(r.name, r.sense, r.rhs, sorted(r.coeffs.items()))
         for r in m.lin_rows],
        [(c.x, c.y, c.u, c.v, c.name) for c in m.cone_rows],
    ]).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def fingerprint_inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("damage") / "damage118.json"
    assert main(["gen-damage", "--case", str(CASES / "case118_smoke.m"),
                 "--fraction", "0.35", "--area", "1-23,25-32,113-115,117",
                 "--seed", "42", "--out", str(path)]) == 0

    def damage(path):
        return netio.damage_from_dict(json.loads(path.read_text()))

    case118 = netio.load_case(CASES / "case118_smoke.m")
    d118 = damage(path)
    case5 = netio.load_case(CASES / "case5_restoration.m")
    return {
        "case2": (netio.load_case(CASES / "case2_parallel.m"),
                  damage(CASES / "damage2_both.json")),
        "case5": (case5, damage(CASES / "damage5_all.json")),
        "case10-branches-1-4": (netio.load_case(CASES / "case10_radial.m"),
                                DamageScenario.of(branches=[1, 2, 3, 4])),
        "case5-mixed": (case5, DamageScenario.of(branches=[1, 3], gens=[1, 2],
                                                 buses=[1, 2])),
        "case118-area1": (case118, d118),
        "case118-area1-buses": (case118, DamageScenario(
            d118.damaged | DamageScenario.of(buses=[1, 5]).damaged)),
    }


@pytest.mark.parametrize("kind", ["mrsp", "rop"])
@pytest.mark.parametrize("formulation", [DC, SOC])
@pytest.mark.parametrize("scenario", list(FINGERPRINTS))
def test_model_fingerprint(fingerprint_inputs, scenario, formulation, kind):
    """Every variable, row, cone and objective term is pinned bit for bit:
    a change in any of them changes the simplex path, hence plans."""
    net, dmg = fingerprint_inputs[scenario]
    periods, *prints = FINGERPRINTS[scenario]
    if kind == "mrsp":
        model = build_mrsp(apply_damage(net, dmg), formulation)
    else:
        model = build_rop(replicate(net, dmg, periods), formulation)
    expected = prints[2 * (formulation == SOC) + (kind == "rop")]
    assert model_fingerprint(model) == expected


# scenario: (DC MRSP objective, DC ROP objective); case118's ROP figure is
# its LP relaxation
DC_OBJECTIVES = {
    "case2": (2.0, 1.6),
    "case5": (6.0, 29.2),
    "case10-branches-1-4": (4.0, 2.0),
    "case5-mixed": (0.0, 40.0),
    "case118-area1": (1.0, 126.872),
}


@pytest.mark.parametrize("scenario", list(DC_OBJECTIVES))
def test_dc_one_flow_column_per_branch(fingerprint_inputs, scenario):
    """The to-end flow is -p_fr and the reference angle is a bound: no
    p_to column, no lossless or ref_angle row, and the optima stay put."""
    net, dmg = fingerprint_inputs[scenario]
    periods = FINGERPRINTS[scenario][0]
    mrsp = build_mrsp(apply_damage(net, dmg), DC)
    rop = build_rop(replicate(net, dmg, periods), DC)
    for model in (mrsp, rop):
        labels = [v.name for v in model.vars] + [r.name for r in model.lin_rows]
        assert not [s for s in labels
                    if s.startswith(("p_to[", "lossless[", "ref_angle["))]
    refs = [b for b in net.buses if net.buses[b].bus_type == 3]
    assert refs
    for model, last in ((mrsp, 0), (rop, periods)):
        for b in refs:
            for n in range(last + 1):
                va = model.vars[model.var_index(f"va[{b}]@{n}")]
                assert (va.lb, va.ub) == (0.0, 0.0)
    mrsp_obj, rop_obj = DC_OBJECTIVES[scenario]
    sol = solve_mip(mrsp)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(mrsp_obj, abs=1e-9)
    sol = (solve_lp if scenario == "case118-area1" else solve_mip)(rop)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(rop_obj, abs=1e-9)


def test_dc_self_loop_branch_cancels_in_balance():
    # both ends of branch 3 at bus 1: its -p_fr and +p_fr terms add to zero
    net = make_two_bus(load_pu=0.5)
    net.branches[3] = Branch(3, 1, 1, 0.0, 0.1, 0.0, 0.0, 1.0, 0.0, -ANG, ANG)
    model = build_mrsp(net.validate(), DC)
    balance = next(r for r in model.lin_rows if r.name == "balance_p[1]@0")
    assert balance.coeffs[model.var_index("p_fr[3]@0")] == 0.0
