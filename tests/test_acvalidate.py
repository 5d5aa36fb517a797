import json
import math

import numpy as np
import pytest

import grs.acvalidate
from grs import cli, netio
from grs.acvalidate import (PF_MAX_ITER, PF_TOL, IslandData, _attempt,
                            _ds_blocks, _pf_state, branch_flows,
                            max_load_delivery, newton_pf,
                            power_flow_jacobian, redispatch_plan,
                            residual_injections)
from grs.formulations import DC, build_rop, decode_plan
from grs.grid import (BRANCH, GEN, Bus, DamageScenario, Generator,
                      GridError, Network, RestorationPlan, replicate)
from grs.mip import solve_mip
from grs.workflows import run_heuristic
from tests.conftest import CASES, make_two_bus


@pytest.fixture(scope="module")
def area1_scenario(tmp_path_factory):
    """case118 and its area-1 gen-damage scenario (seed 42)."""
    out = tmp_path_factory.mktemp("dmg118") / "seed42.json"
    rc = cli.main(["gen-damage", "--case", str(CASES / "case118_smoke.m"),
                   "--fraction", "0.35", "--area", "1-23,25-32,113-115,117",
                   "--seed", "42", "--out", str(out)])
    assert rc == 0
    net = netio.load_case(CASES / "case118_smoke.m")
    dmg = netio.damage_from_dict(json.loads(out.read_text()))
    dmg.resolve(net)
    return net, dmg


@pytest.fixture(scope="module")
def case118_area1(area1_scenario):
    """case118 with its area-1 gen-damage scenario (seed 42) switched off."""
    net, dmg = area1_scenario
    return net, {item: False for item in dmg.sorted_items()}


def _full_newton_pf(net, isl, pg_set, slack_gen, load_frac, pv_gens,
                    q_fixed=None):
    """The full Newton loop newton_pf ran before the chord: one Jacobian
    built and solved per iteration.  Frozen here as the reference."""
    q_fixed = q_fixed or {}
    buses, pos, Y = isl.buses, isl.pos, isl.Y
    n = len(buses)

    slack_bus = net.gens[slack_gen].bus
    if slack_bus not in pos:
        raise GridError(f"slack gen {slack_gen} sits outside the island")
    pv = [b for b in buses if b in pv_gens and b != slack_bus and b not in q_fixed]
    pq = [b for b in buses if b != slack_bus and b not in pv]

    p_spec = np.zeros(n)
    q_spec = np.zeros(n)
    for g, p in pg_set.items():
        p_spec[pos[net.gens[g].bus]] += p
    for lid, frac in load_frac.items():
        ld = net.loads[lid]
        if ld.bus in pos:
            p_spec[pos[ld.bus]] -= frac * ld.pd
            q_spec[pos[ld.bus]] -= frac * ld.qd
    for b, qv in q_fixed.items():
        q_spec[pos[b]] += qv

    vm = np.ones(n)
    va = np.zeros(n)
    for b, gids in pv_gens.items():
        vm[pos[b]] = net.gens[gids[0]].vg
    vm[pos[slack_bus]] = net.gens[slack_gen].vg

    pvpq = np.array([pos[b] for b in buses if b != slack_bus], dtype=int)
    pq_i = np.array([pos[b] for b in pq], dtype=int)
    pq_at = np.searchsorted(pvpq, pq_i)
    y_pvpq = Y[np.ix_(pvpq, pvpq)]
    nva = len(pvpq)

    mismatch = math.inf
    it = 0
    for it in range(PF_MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        ibus = Y @ v
        s_calc = v * ibus.conjugate()
        dp = p_spec - s_calc.real
        dq = q_spec - s_calc.imag
        f = np.concatenate([dp[pvpq], dq[pq_i]])
        mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        if mismatch <= PF_TOL:
            break
        if it == PF_MAX_ITER:
            break
        ds_dva, ds_dvm = _ds_blocks(y_pvpq, v[pvpq], ibus[pvpq], pq_at)
        jac = np.block([[ds_dva.real, ds_dvm.real],
                        [ds_dva.imag[pq_at], ds_dvm.imag[pq_at]]])
        try:
            dx = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            return _pf_state(net, isl, vm, va, pg_set, slack_gen, load_frac,
                             False, it, it + 1, mismatch)
        va[pvpq] += dx[:nva]
        vm[pq_i] += dx[nva:]

    converged = mismatch <= PF_TOL
    return _pf_state(net, isl, vm, va, pg_set, slack_gen, load_frac,
                     converged, it, it, mismatch)


def test_single_bus_trivial():
    net = Network(100.0, {1: Bus(1, 3, 0.9, 1.1)}, {},
                  {1: Generator(1, 1, 0.0, 1.0, -1.0, 1.0, 1.0)}, {}, {},
                  frozenset([1])).validate()
    pf = newton_pf(net, IslandData.build(net, [1], []), {}, 1, {}, {1: [1]})
    assert pf.converged
    assert pf.vm[1] == 1.0 and pf.va[1] == 0.0
    assert pf.iterations == 0 and pf.factorizations == 0


def test_two_bus_lossless_arcsin():
    # both ends held at 1.0 pu (condenser at the load bus), so the flow is
    # exactly sin(theta)/x and theta = arcsin(p*x)
    net = make_two_bus(load_pu=0.5, rate=0.0, n_branches=1, condenser_at_2=True)
    pf = newton_pf(net, IslandData.build(net, [1, 2], [1]), {2: 0.0}, 1,
                   {2: 1.0}, {1: [1], 2: [2]})
    assert pf.converged and pf.mismatch <= 1e-8
    theta = pf.va[1] - pf.va[2]
    assert theta == pytest.approx(math.asin(0.05), abs=1e-6)


def test_five_bus_full_load_physical(case5):
    disp = max_load_delivery(case5, {})
    assert disp.served_mw == pytest.approx(1000.0, abs=1e-3)
    isl = [i for i in disp.islands if len(i.buses) == 5][0]
    pf = isl.pf
    assert pf.converged and pf.mismatch <= 1e-8
    total_gen = sum(pf.gen_p.values())
    assert total_gen * case5.base_mva >= 1000.0 - 1e-6  # losses >= 0


def test_jacobian_matches_finite_differences(case5):
    rng = np.random.default_rng(11)
    buses = sorted(case5.buses)
    branches = sorted(case5.branches)
    Y = IslandData.build(case5, buses, branches).Y
    h = 1e-6
    for _ in range(5):
        vm = 1.0 + 0.05 * rng.standard_normal(len(buses))
        va = 0.2 * rng.standard_normal(len(buses))
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
            scale = np.maximum(np.abs(ds_dva[:, k]), 1.0)
            assert np.max(np.abs(fd - ds_dva[:, k]) / scale) < 1e-5
            vmp, vmm = vm.copy(), vm.copy()
            vmp[k] += h
            vmm[k] -= h
            fd = (inj(vmp, va) - inj(vmm, va)) / (2 * h)
            scale = np.maximum(np.abs(ds_dvm[:, k]), 1.0)
            assert np.max(np.abs(fd - ds_dvm[:, k]) / scale) < 1e-5


def test_residual_check_independent(case5):
    disp = max_load_delivery(case5, {})
    isl = [i for i in disp.islands if len(i.buses) == 5][0]
    pf = isl.pf
    inj = residual_injections(case5, isl.buses, sorted(case5.branches),
                              pf.vm, pf.va)
    for b in isl.buses:
        gen = sum(complex(pf.gen_p[g], pf.gen_q[g])
                  for g in pf.gen_p if case5.gens[g].bus == b)
        load = sum(complex(d.pd, d.qd) for d in case5.loads.values()
                   if d.bus == b)
        assert abs(inj[b] - (gen - load)) < 1e-7


def test_energy_conservation(case5):
    disp = max_load_delivery(case5, {})
    isl = [i for i in disp.islands if len(i.buses) == 5][0]
    pf = isl.pf
    loss = sum((pf.flow_fr[k] + pf.flow_to[k]).real for k in pf.flow_fr)
    assert loss >= -1e-9
    gen = sum(pf.gen_p.values())
    served = disp.served_mw / case5.base_mva
    assert gen - served == pytest.approx(loss, abs=1e-6)


def test_thermal_binding_lambda():
    net = make_two_bus(load_pu=1.0, rate=0.6, n_branches=1)
    disp = max_load_delivery(net, {})
    lam = [i.lam for i in disp.islands if i.buses == [1, 2]][0]
    # the sending end carries the branch's own reactive loss, so the limit
    # binds a hair below the pure-active 0.6
    assert lam == pytest.approx(0.6, abs=2e-3)
    assert lam <= 0.6 + 1e-9


def test_infeasible_floor_kept_with_warning():
    # the branch carries about 0.6 pu: a previous full-service floor cannot
    # be met, so it is kept and warned; a 0.3 floor is feasible and bisected
    net = make_two_bus(load_pu=1.0, rate=0.6, n_branches=1)
    disp = max_load_delivery(net, {}, {2: 1.0})
    isl = [i for i in disp.islands if i.buses == [1, 2]][0]
    assert disp.warnings == 1
    assert isl.lam == 1.0 and isl.served_mw == 100.0 and isl.warning
    assert isl.binding == ["thermal branch 1"]
    disp = max_load_delivery(net, {}, {2: 0.3})
    isl = [i for i in disp.islands if i.buses == [1, 2]][0]
    assert disp.warnings == 0 and not isl.warning
    assert isl.lam == pytest.approx(0.5989, abs=1e-4)
    assert isl.served_mw == pytest.approx(59.89, abs=1e-9)


def test_gen_free_island_serves_zero():
    net = make_two_bus(load_pu=1.0)
    energized = {(BRANCH, 1): False, (BRANCH, 2): False, (GEN, 1): True}
    disp = max_load_delivery(net, energized)
    served = {tuple(i.buses): i.served_mw for i in disp.islands}
    assert served[(2,)] == 0.0


def test_fully_repaired_serves_everything(case5):
    disp = max_load_delivery(case5, {})
    assert all(i.lam == 1.0 for i in disp.islands if i.buses)
    assert disp.warnings == 0


def test_redispatch_plan_zero_ens_when_undamaged(case5):
    case = replicate(case5, DamageScenario.of(), 1)
    plan = RestorationPlan(0, 1.0, {}, {lid: [1.0] for lid in case5.loads},
                           1000.0, DC)
    report = redispatch_plan(case, plan, estimated_ens=0.0)
    assert report.true_ens_mwh == pytest.approx(0.0, abs=1e-6)


def test_redispatch_monotone_service(case5, damage5_all):
    case = replicate(case5, damage5_all, 3)
    model = build_rop(case, DC)
    sol = solve_mip(model)
    plan = decode_plan(case, model, sol, DC)
    report = redispatch_plan(case, plan)
    served = [r.served_mw for r in report.rows]
    assert all(b >= a - 1e-6 for a, b in zip(served, served[1:]))
    assert report.validation_warnings == 0


def test_per_load_fractions_monotone(case5, damage5_all):
    case = replicate(case5, damage5_all, 3)
    model = build_rop(case, DC)
    sol = solve_mip(model)
    plan = decode_plan(case, model, sol, DC)
    fractions = {lid: 0.0 for lid in case5.loads}
    history = {lid: [0.0] for lid in case5.loads}
    for n in range(case.periods + 1):
        energized = {item: bool(zs[n]) for item, zs in plan.status.items()}
        disp = max_load_delivery(case5, energized, fractions, period=n)
        fractions = dict(fractions)
        fractions.update(disp.fractions)
        for lid in case5.loads:
            history[lid].append(fractions[lid])
    for lid, hist in history.items():
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))


def test_redispatch_mismatch_raises(case5, damage5_all, two_bus_parallel):
    case = replicate(case5, damage5_all, 3)
    other = replicate(two_bus_parallel, DamageScenario.of(branches=[1, 2]), 2)
    model = build_rop(other, DC)
    sol = solve_mip(model)
    plan = decode_plan(other, model, sol, DC)
    with pytest.raises(GridError, match="plan has 2 periods, case 3"):
        redispatch_plan(case, plan)


def test_branch_flow_convention(case5):
    # from-side and to-side powers of one branch sum to the series loss
    disp = max_load_delivery(case5, {})
    pf = [i for i in disp.islands if len(i.buses) == 5][0].pf
    for k in sorted(case5.branches):
        br = case5.branches[k]
        s_fr, s_to = branch_flows(
            case5, k,
            pf.vm[br.f_bus] * np.exp(1j * pf.va[br.f_bus]),
            pf.vm[br.t_bus] * np.exp(1j * pf.va[br.t_bus]))
        assert s_fr == pytest.approx(pf.flow_fr[k], abs=1e-9)
        assert (s_fr + s_to).real >= -1e-9


def _jacobian_by_diag_products(Y, v):
    # the textbook dense form, O(n^3): the reference for the scaled form
    ibus = Y @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_e = np.diag(v / np.abs(v))
    ds_dva = 1j * diag_v @ (diag_i - Y @ diag_v).conjugate()
    ds_dvm = diag_v @ (Y @ diag_e).conjugate() + diag_i.conjugate() @ diag_e
    return ds_dva, ds_dvm


def test_jacobian_matches_diag_products_case118(case118_area1):
    net, energized = case118_area1
    disp = max_load_delivery(net, energized)
    isl = max(disp.islands, key=lambda i: len(i.buses))
    buses = isl.buses
    Y = IslandData.build(net, buses, sorted(isl.pf.flow_fr)).Y
    rng = np.random.default_rng(5)
    vm = 1.0 + 0.05 * rng.standard_normal(len(buses))
    va = 0.2 * rng.standard_normal(len(buses))
    v = vm * np.exp(1j * va)
    ref_va, ref_vm = _jacobian_by_diag_products(Y, v)
    ds_dva, ds_dvm = power_flow_jacobian(Y, v)
    scale = max(np.max(np.abs(ref_va)), np.max(np.abs(ref_vm)))
    assert np.max(np.abs(ds_dva - ref_va)) <= 1e-12 * scale
    assert np.max(np.abs(ds_dvm - ref_vm)) <= 1e-12 * scale
    # newton_pf's blocks: rows and columns without one slack bus, and the
    # |V| columns of a subset of buses, from the principal submatrix
    rest = np.delete(np.arange(len(buses)), 3)
    sub = np.arange(0, len(rest), 3)
    blk_va, blk_vm = _ds_blocks(Y[np.ix_(rest, rest)], v[rest],
                                (Y @ v)[rest], sub)
    assert np.max(np.abs(blk_va - ref_va[np.ix_(rest, rest)])) <= 1e-12 * scale
    assert np.max(np.abs(blk_vm - ref_vm[np.ix_(rest, rest[sub])])) \
        <= 1e-12 * scale


def test_multi_island_flows_and_residuals(case118_area1):
    net, energized = case118_area1
    disp = max_load_delivery(net, energized)
    solved = [i for i in disp.islands if i.pf is not None]
    assert len(solved) >= 2
    for isl in solved:
        pf = isl.pf
        assert pf.converged
        v = {b: pf.vm[b] * complex(math.cos(pf.va[b]), math.sin(pf.va[b]))
             for b in isl.buses}
        for k in pf.flow_fr:
            br = net.branches[k]
            s_fr, s_to = branch_flows(net, k, v[br.f_bus], v[br.t_bus])
            assert abs(pf.flow_fr[k] - s_fr) <= 1e-12
            assert abs(pf.flow_to[k] - s_to) <= 1e-12
        inj = residual_injections(net, isl.buses, sorted(pf.flow_fr),
                                  pf.vm, pf.va)
        for b in isl.buses:
            gen = sum(complex(pf.gen_p[g], pf.gen_q.get(g, 0.0))
                      for g in pf.gen_p if net.gens[g].bus == b)
            load = sum(disp.fractions[lid] * complex(d.pd, d.qd)
                       for lid, d in net.loads.items() if d.bus == b)
            assert abs(inj[b] - (gen - load)) < 1e-7


def test_ybus_built_once_per_served_island(case118_area1, monkeypatch):
    net, energized = case118_area1
    calls = {"_ybus": 0, "newton_pf": 0}

    def counted(name):
        real = getattr(grs.acvalidate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(grs.acvalidate, name, counted(name))
    disp = max_load_delivery(net, energized)
    with_loads_and_gens = [i for i in disp.islands if i.pf is not None]
    assert len(with_loads_and_gens) >= 2
    assert calls["_ybus"] == len(with_loads_and_gens)
    assert calls["newton_pf"] > calls["_ybus"]


def _paired(monkeypatch, pairs):
    """Make every newton_pf call also run the reference loop on the same
    arguments; pairs collects (chord, reference, q_fixed at the call)."""
    chord = grs.acvalidate.newton_pf

    def both(*args):
        pf = chord(*args)
        pairs.append((pf, _full_newton_pf(*args), dict(args[-1] or {})))
        return pf
    monkeypatch.setattr(grs.acvalidate, "newton_pf", both)


def _served_islands(net, energized):
    """(IslandData, gens, loads) of each island max_load_delivery solves."""
    live = net.live()
    out = []
    for res in max_load_delivery(net, energized).islands:
        if res.pf is None:
            continue
        isl = IslandData.build(net, res.buses, sorted(res.pf.flow_fr))
        gens = [g for g in live.gens if net.gens[g].bus in isl.pos
                and energized.get((GEN, g), True)]
        loads = [lid for lid in live.loads if net.loads[lid].bus in isl.pos]
        out.append((isl, gens, loads))
    return out


@pytest.mark.parametrize("lam", [0.3, 0.7, 1.0])
def test_chord_matches_full_newton(case5, case118_area1, monkeypatch, lam):
    pinned = 0
    for net, energized in ((case5, {}), case118_area1):
        for isl, gens, loads in _served_islands(net, energized):
            fractions = {lid: lam for lid in loads}
            pairs = []
            with monkeypatch.context() as m:
                _paired(m, pairs)
                chord_binding = []
                _, ok = _attempt(net, isl, gens, loads, fractions,
                                 chord_binding)
            ref_binding = []
            with monkeypatch.context() as m:
                m.setattr(grs.acvalidate, "newton_pf", _full_newton_pf)
                _, ref_ok = _attempt(net, isl, gens, loads, fractions,
                                     ref_binding)
            assert (ok, chord_binding) == (ref_ok, ref_binding)
            for pf, ref, q_fixed in pairs:
                pinned += bool(q_fixed)
                assert pf.converged and ref.converged
                assert pf.factorizations <= ref.iterations
                for b in isl.buses:
                    assert abs(pf.vm[b] - ref.vm[b]) <= 1e-7
                    assert abs(pf.va[b] - ref.va[b]) <= 1e-7
    assert pinned > 0  # some solves ran with PV buses pinned as PQ


def test_nan_load_stops_at_once(case5):
    isl = IslandData.build(case5, sorted(case5.buses), sorted(case5.branches))
    fractions = {lid: 1.0 for lid in case5.loads}
    fractions[min(fractions)] = math.nan
    pv_gens = {}
    for g in sorted(case5.gens):
        pv_gens.setdefault(case5.gens[g].bus, []).append(g)
    slack = max(case5.gens, key=lambda g: (case5.gens[g].pmax, -g))
    pf = newton_pf(case5, isl, {}, slack, fractions, pv_gens)
    assert not pf.converged
    assert pf.iterations == 0 and pf.factorizations == 0


def test_singular_jacobian_ends_unconverged():
    # bus 2 has no branch in the island: its rows of the Jacobian are zero
    net = make_two_bus(load_pu=0.5)
    pf = newton_pf(net, IslandData.build(net, [1, 2], []), {}, 1, {2: 1.0},
                   {1: [1]})
    assert not pf.converged
    assert pf.iterations == 0 and pf.factorizations == 1


def test_heuristic_factors_fewer_jacobians_than_full_newton(area1_scenario,
                                                             monkeypatch):
    pairs = []
    _paired(monkeypatch, pairs)
    run_heuristic(*area1_scenario, 10)
    assert pairs and all(pf.converged and ref.converged
                         for pf, ref, _ in pairs)
    factorizations = sum(pf.factorizations for pf, _, _ in pairs)
    assert factorizations < sum(ref.iterations for _, ref, _ in pairs)
