from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from grs.grid import (BRANCH, DamageScenario, GridError, Load,
                      RestorationPlan, Shunt, apply_damage, connected_islands,
                      indicator, replicate, update_status)
from tests.conftest import make_two_bus


def test_apply_damage_empty_identity(case5):
    assert apply_damage(case5, DamageScenario.of()) == case5


def test_apply_damage_single_branch(case5):
    net = apply_damage(case5, DamageScenario.of(branches=[1]))
    assert net.branches[1].damaged
    assert not net.branches[2].damaged
    assert not any(g.damaged for g in net.gens.values())


def test_apply_damage_full_scenario(case5, damage5_all):
    net = apply_damage(case5, damage5_all)
    assert len(net.damaged_items()) == 11


def test_unknown_shunt_bus_names_shunt_and_bus():
    net = replace(make_two_bus(), shunts={7: Shunt(7, 9, 0.0, 0.1)})
    with pytest.raises(GridError, match="shunt 7 bus 9 unknown"):
        net.validate()


def test_apply_damage_unknown(case5):
    with pytest.raises(GridError, match="branch 99 not in network"):
        apply_damage(case5, DamageScenario.of(branches=[99]))


@settings(max_examples=30, deadline=None)
@given(st.sets(st.sampled_from([1, 2, 3, 4, 5, 6])),
       st.sets(st.sampled_from([1, 2, 3, 4, 5])))
def test_apply_damage_idempotent(case5, brs, gens):
    dmg = DamageScenario.of(branches=brs, gens=gens)
    once = apply_damage(case5, dmg)
    twice = apply_damage(once, dmg)
    assert once == twice


@pytest.mark.parametrize("n_damaged,k,budget", [(11, 3, 4), (6, 3, 2), (1, 1, 1),
                                                (11, 11, 1), (7, 3, 3)])
def test_replicate_budget(case5, n_damaged, k, budget):
    items = [("branch", i) for i in range(1, 7)] + [("gen", i) for i in range(1, 6)]
    dmg = DamageScenario(frozenset(items[:n_damaged]))
    case = replicate(case5, dmg, k)
    assert case.repairs_per_period == budget
    assert case.repairs_per_period * case.periods >= n_damaged
    # minimality of the uniform budget
    if case.repairs_per_period > 1:
        assert (case.repairs_per_period - 1) * case.periods < n_damaged


def test_live_components(case5):
    # bus 5 isolated: branches 3 (1-5) and 6 (4-5) and gen 5 die with it,
    # as do a load and a shunt placed there; branch 2 is out of service
    net = replace(
        case5,
        buses={**case5.buses, 5: replace(case5.buses[5], bus_type=4)},
        branches={**case5.branches,
                  2: replace(case5.branches[2], in_service=False)},
        gens={**case5.gens, 1: replace(case5.gens[1], in_service=False)},
        loads={**case5.loads, 5: Load(5, 5, 0.1, 0.0)},
        shunts={1: Shunt(1, 1, 0.0, 0.1), 5: Shunt(5, 5, 0.0, 0.1)})
    live = net.live()
    assert live.buses == [1, 2, 3, 4]
    assert live.branches == [1, 4, 5]
    assert live.gens == [2, 3, 4]
    assert live.loads == [2, 3, 4]
    assert live.shunts == [1]
    assert case5.live().branches == [1, 2, 3, 4, 5, 6]

    dmg = DamageScenario.of(branches=[1, 2, 3], gens=[1, 5], buses=[5])
    assert apply_damage(net, dmg).damaged_items() == [(BRANCH, 1)]
    case = replicate(net, dmg, 2)
    assert case.damaged_items() == [(BRANCH, 1)]
    assert case.base.damaged_items() == [(BRANCH, 1)]
    assert (case.periods, case.repairs_per_period) == (2, 1)
    only_dead = replicate(net, DamageScenario.of(branches=[3], gens=[5]), 2)
    assert (only_dead.periods, only_dead.damaged_items()) == (0, [])


def test_indicator_rounding():
    assert [indicator(v, "x") for v in (0.0, 1e-7, 1.0 - 1e-7, 1.0)] == \
        [0, 0, 1, 1]
    with pytest.raises(GridError, match="gen 3@1: indicator 0.5"):
        indicator(0.5, "gen 3@1")


def test_replicate_empty_damage(case5):
    case = replicate(case5, DamageScenario.of(), 3)
    assert case.periods == 0
    assert case.repairs_per_period == 0


def test_replicate_bad_periods(case5):
    with pytest.raises(GridError):
        replicate(case5, DamageScenario.of(branches=[1]), 0)


def test_update_status_all_repaired(case5, damage5_all):
    net = apply_damage(case5, damage5_all)
    ind = {item: 1.0 for item in net.damaged_items()}
    out = update_status(net, ind)
    assert not out.damaged_items()
    assert all(b.in_service for b in out.branches.values())
    assert all(g.in_service for g in out.gens.values())


def test_update_status_partial(case5, damage5_all):
    net = apply_damage(case5, damage5_all)
    items = net.damaged_items()
    keep = set(items[:6])
    ind = {item: (1.0 if item in keep else 0.0) for item in items}
    out = update_status(net, ind)
    inactive = [b for b in out.branches.values() if not b.in_service] + \
               [g for g in out.gens.values() if not g.in_service]
    assert len(inactive) == 5
    assert not out.damaged_items()  # repaired ones are undamaged now


def test_update_status_non_integral(case5, damage5_all):
    net = apply_damage(case5, damage5_all)
    ind = {item: 1.0 for item in net.damaged_items()}
    ind[(BRANCH, 1)] = 0.4999
    with pytest.raises(GridError, match="indicator 0.4999"):
        update_status(net, ind)


def test_islands_connected(case5):
    status = {(BRANCH, i): True for i in case5.branches}
    islands = connected_islands(case5, status)
    assert islands == [set(case5.buses)]


def test_islands_no_branches(case5):
    status = {(BRANCH, i): False for i in case5.branches}
    islands = connected_islands(case5, status)
    assert islands == [{b} for b in sorted(case5.buses)]


def test_islands_single_branch(case5):
    status = {(BRANCH, i): (i == 1) for i in case5.branches}  # branch 1 is 1-2
    islands = connected_islands(case5, status)
    assert {1, 2} in islands
    assert sum(len(i) for i in islands) == 5
    assert len(islands) == 4


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from([1, 2, 3, 4, 5, 6])), st.permutations(list(range(6))))
def test_islands_partition_property(case5, on, perm):
    status = {(BRANCH, i): (i in on) for i in case5.branches}
    islands = connected_islands(case5, status)
    seen = set()
    for isl in islands:
        assert not (seen & isl)
        seen |= isl
    assert seen == set(case5.buses)
    # stable under branch enumeration order by construction (sorted ids)
    assert islands == connected_islands(case5, dict(status))


def test_plan_validation_catches_breaches():
    net = make_two_bus()
    dmg = DamageScenario.of(branches=[1, 2])
    case = replicate(net, dmg, 2)
    good = RestorationPlan(
        periods=2, period_hours=1.0,
        status={(BRANCH, 1): [0, 1, 1], (BRANCH, 2): [0, 0, 1]},
        load_fraction={2: [0.0, 0.6, 1.0]},
        objective_value=160.0, formulation="dc")
    good.validate(case)

    bad_monotone = RestorationPlan(
        periods=2, period_hours=1.0,
        status={(BRANCH, 1): [0, 1, 0], (BRANCH, 2): [0, 0, 1]},
        load_fraction={2: [0.0, 0.0, 1.0]},
        objective_value=0.0, formulation="dc")
    with pytest.raises(GridError):
        bad_monotone.validate(case)

    over_budget = RestorationPlan(
        periods=2, period_hours=1.0,
        status={(BRANCH, 1): [0, 1, 1], (BRANCH, 2): [0, 1, 1]},
        load_fraction={2: [0.0, 1.0, 1.0]},
        objective_value=0.0, formulation="dc")
    with pytest.raises(GridError):
        over_budget.validate(case)

    not_restored = RestorationPlan(
        periods=2, period_hours=1.0,
        status={(BRANCH, 1): [0, 1, 1], (BRANCH, 2): [0, 0, 0]},
        load_fraction={2: [0.0, 0.6, 0.6]},
        objective_value=0.0, formulation="dc")
    with pytest.raises(GridError):
        not_restored.validate(case)


@pytest.mark.parametrize("periods,status,match", [
    (3, {(BRANCH, 1): [0, 1, 1, 1], (BRANCH, 2): [0, 0, 1, 1]},
     "plan has 3 periods, case 2"),
    (2, {(BRANCH, 1): [0, 1, 1]}, "misses damaged component"),
    (2, {(BRANCH, 1): [0, 7, 0], (BRANCH, 2): [0, 0, 1]}, "not 0/1"),
    (2, {(BRANCH, 1): [0, 0.5, 1], (BRANCH, 2): [0, 0, 1]}, "not 0/1"),
], ids=["periods", "missing-item", "not-binary", "fractional"])
def test_plan_validation_against_case(periods, status, match):
    case = replicate(make_two_bus(), DamageScenario.of(branches=[1, 2]), 2)
    plan = RestorationPlan(periods, 1.0, status,
                           {2: [0.0] * periods + [1.0]}, 0.0, "dc")
    with pytest.raises(GridError, match=match):
        plan.validate(case)
