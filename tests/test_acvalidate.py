import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dgetrf

import grs.acvalidate
from grs import cli, netio
from grs.acvalidate import (PF_MAX_ITER, PF_TOL, IslandData, _attempt,
                            _ds_blocks, _pf_state, max_load_delivery,
                            newton_pf, redispatch_plan)
from grs.formulations import DC, build_rop, decode_plan
from grs.grid import (BRANCH, BUS, GEN, Bus, DamageScenario, Generator,
                      GridError, Network, RestorationPlan, replicate)
from grs.mip import solve_mip
from grs.workflows import run_heuristic
from grs.acvalidate import (NetworkData, _branch_admittances, ens_report,
                            plan_dispatches)
from grs.workflows import heuristic_order
from tests.conftest import CASES, make_two_bus
from tests.oracles import (branch_flows, power_flow_jacobian,
                           residual_injections)


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


def _full_newton_pf(net, isl, pg, fr, q_fixed=None):
    """The full Newton loop newton_pf ran before the chord: one Jacobian
    built and solved per iteration.  Frozen here as the reference."""
    q_fixed = q_fixed or {}
    pg, fr = np.asarray(pg, dtype=float), np.asarray(fr, dtype=float)
    slack_gen = isl.slack
    pg_set = dict(zip(isl.ramp, pg))
    load_frac = dict(zip(isl.loads, fr))
    pv_gens = {}
    for g in isl.gens:
        pv_gens.setdefault(net.gens[g].bus, []).append(g)
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
            return _pf_state(isl, vm, va, pg, fr, False, it, it + 1,
                             mismatch)
        va[pvpq] += dx[:nva]
        vm[pq_i] += dx[nva:]

    converged = mismatch <= PF_TOL
    return _pf_state(isl, vm, va, pg, fr, converged, it, it, mismatch)


def test_single_bus_trivial():
    net = Network(100.0, {1: Bus(1, 3, 0.9, 1.1)}, {},
                  {1: Generator(1, 1, 0.0, 1.0, -1.0, 1.0, 1.0)}, {}, {},
                  frozenset([1])).validate()
    pf = newton_pf(net, IslandData.build(net, [1], [], [1], []), [], [])
    assert pf.converged
    assert pf.vm[1] == 1.0 and pf.va[1] == 0.0
    assert pf.iterations == 0 and pf.factorizations == 0


def test_two_bus_lossless_arcsin():
    # both ends held at 1.0 pu (condenser at the load bus), so the flow is
    # exactly sin(theta)/x and theta = arcsin(p*x)
    net = make_two_bus(load_pu=0.5, rate=0.0, n_branches=1, condenser_at_2=True)
    pf = newton_pf(net, IslandData.build(net, [1, 2], [1], [1, 2], [2]),
                   [0.0], [1.0])
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
    Y = IslandData.build(case5, buses, branches, sorted(case5.gens),
                         sorted(case5.loads)).Y
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
    Y = IslandData.build(net, buses, sorted(isl.pf.flow_fr),
                         sorted(isl.pf.gen_p), []).Y
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
        gens = [g for g in live.gens if net.gens[g].bus in res.buses
                and energized.get((GEN, g), True)]
        loads = [lid for lid in live.loads if net.loads[lid].bus in res.buses]
        isl = IslandData.build(net, res.buses, sorted(res.pf.flow_fr), gens,
                               loads)
        out.append((isl, gens, loads))
    return out


@pytest.mark.parametrize("lam", [0.3, 0.7, 1.0])
def test_chord_matches_full_newton(case5, case118_area1, monkeypatch, lam):
    pinned = 0
    for net, energized in ((case5, {}), case118_area1):
        for isl, gens, loads in _served_islands(net, energized):
            fractions = [lam] * len(loads)
            pairs = []
            with monkeypatch.context() as m:
                _paired(m, pairs)
                chord_binding = []
                _, ok = _attempt(net, isl, fractions, chord_binding)
            ref_binding = []
            isl.solved.clear()  # solve again, with the full Newton loop
            with monkeypatch.context() as m:
                m.setattr(grs.acvalidate, "newton_pf", _full_newton_pf)
                _, ref_ok = _attempt(net, isl, fractions, ref_binding)
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
    isl = IslandData.build(case5, sorted(case5.buses), sorted(case5.branches),
                           sorted(case5.gens), sorted(case5.loads))
    fractions = [math.nan] + [1.0] * (len(isl.loads) - 1)
    pf = newton_pf(case5, isl, [0.0] * len(isl.ramp), fractions)
    assert not pf.converged
    assert pf.iterations == 0 and pf.factorizations == 0


def test_singular_jacobian_ends_unconverged():
    # bus 2 has no branch in the island: its rows of the Jacobian are zero
    net = make_two_bus(load_pu=0.5)
    pf = newton_pf(net, IslandData.build(net, [1, 2], [], [1], [2]), [],
                   [1.0])
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


def _ybus_loop(net, pos, branches, adm):
    """The scalar loop _ybus ran before its np.add.at: four additions per
    branch in branch order, then the shunts.  Frozen here as the reference."""
    n = len(pos)
    Y = np.zeros((n, n), dtype=complex)
    for bid, (yff, yft, ytf, ytt) in zip(branches, adm.tolist()):
        br = net.branches[bid]
        f, t = pos[br.f_bus], pos[br.t_bus]
        Y[f, f] += yff
        Y[f, t] += yft
        Y[t, f] += ytf
        Y[t, t] += ytt
    for s in net.shunts.values():
        if s.bus in pos:
            Y[pos[s.bus], pos[s.bus]] += complex(s.gs, s.bs)
    return Y


def _block_jacobian(ds_dva, ds_dvm, pq_at):
    """The np.block Jacobian newton_pf assembled before it wrote the blocks
    into one Fortran-ordered array.  Frozen here as the reference."""
    return np.block([[ds_dva.real, ds_dvm.real],
                     [ds_dva.imag[pq_at], ds_dvm.imag[pq_at]]])


def _assert_bit_identical(net, energized):
    """Each solved island's Ybus equals the scalar loop's, and each Jacobian
    newton_pf factors equals np.block of its blocks, as do its LU factors."""
    blocks, factored = [], []
    ds_blocks = grs.acvalidate._ds_blocks

    def record_blocks(y, v, ibus, vm_cols):
        out = ds_blocks(y, v, ibus, vm_cols)
        blocks.append((*out, vm_cols))
        return out

    def record_factors(a, overwrite_a=False):
        given_a = a.copy()
        lu, piv, info = dgetrf(a, overwrite_a=overwrite_a)
        factored.append((given_a, lu.copy(), piv.copy()))
        return lu, piv, info

    with pytest.MonkeyPatch.context() as m:
        m.setattr(grs.acvalidate, "_ds_blocks", record_blocks)
        m.setattr(grs.acvalidate, "dgetrf", record_factors)
        disp = max_load_delivery(net, energized)
    solved = [i for i in disp.islands if i.pf is not None]
    for res in solved:
        branches = sorted(res.pf.flow_fr)
        isl = IslandData.build(net, res.buses, branches, sorted(res.pf.gen_p),
                               [])
        adm = np.array([_branch_admittances(net.branches[k])
                        for k in branches], dtype=complex).reshape(-1, 4)
        assert np.array_equal(isl.Y, _ybus_loop(net, isl.pos, branches, adm))
    assert len(blocks) == len(factored)
    for (dva, dvm, pq_at), (jac, lu, piv) in zip(blocks, factored):
        ref = _block_jacobian(dva, dvm, pq_at)
        assert np.array_equal(jac, ref)
        ref_lu, ref_piv, _ = dgetrf(ref)
        assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
    return len(factored)


CASE5_ITEMS = [(BRANCH, i) for i in range(1, 7)] + [(GEN, i) for i in range(1, 6)]


@settings(max_examples=20, deadline=None)
@given(st.sets(st.sampled_from(CASE5_ITEMS)))
def test_ybus_and_jacobian_bit_identical_case5(case5, off):
    _assert_bit_identical(case5, {item: False for item in off})


@pytest.fixture(scope="module")
def area1_items(area1_scenario):
    """The branches and generators inside case118's area 1, sorted."""
    net, _ = area1_scenario
    area = set(range(1, 24)) | set(range(25, 33)) | {113, 114, 115, 117}
    return net, ([(BRANCH, k) for k, br in sorted(net.branches.items())
                  if br.f_bus in area and br.t_bus in area]
                 + [(GEN, k) for k, g in sorted(net.gens.items())
                    if g.bus in area])


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_ybus_and_jacobian_bit_identical_case118_area1(area1_items, data):
    net, items = area1_items
    off = data.draw(st.lists(st.sampled_from(items), unique=True,
                             max_size=len(items) // 3))
    assert _assert_bit_identical(net, {item: False for item in off}) > 0


def test_validation_built_once_matches_each_period_alone(area1_scenario,
                                                         monkeypatch):
    net, dmg = area1_scenario
    case = replicate(net, dmg, 10)
    plan = heuristic_order(net, dmg, 10)
    builds = []
    build = NetworkData.build.__func__

    def counted(cls, net):
        builds.append(net)
        return build(cls, net)

    monkeypatch.setattr(NetworkData, "build", classmethod(counted))
    dispatches = plan_dispatches(case.base, plan.status, case.periods)
    assert len(builds) == 1
    fractions = {lid: 0.0 for lid in case.base.loads}
    for n, (dispatch, after) in enumerate(dispatches):
        energized = {item: bool(zs[n]) for item, zs in plan.status.items()}
        alone = max_load_delivery(case.base, energized, fractions, period=n)
        assert alone == dispatch
        fractions = after
    assert len(builds) == 1 + len(dispatches)  # each call alone built its own


def _each_period_alone(net, status, periods):
    """plan_dispatches' periods as max_load_delivery calls made alone."""
    fractions = {lid: 0.0 for lid in net.loads}
    out = []
    for n in range(periods + 1):
        energized = {item: bool(zs[n]) for item, zs in status.items()}
        dispatch = max_load_delivery(net, energized, fractions, period=n)
        fractions = dict(fractions)
        fractions.update(dispatch.fractions)
        out.append((dispatch, fractions))
    return out


@pytest.fixture(scope="module")
def small_nets():
    return {name: netio.load_case(CASES / f"{name}.m")
            for name in ("case5_restoration", "case10_radial")}


@pytest.mark.parametrize("name", ["case5_restoration", "case10_radial"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_carried_islands_match_each_period_alone(small_nets, name, data):
    """Any 0/1 schedule, components going off again and islands splitting
    included: the carry changes no bit of any period's dispatch."""
    net = small_nets[name]
    live = net.live()
    items = ([(BUS, b) for b in live.buses]
             + [(BRANCH, k) for k in live.branches]
             + [(GEN, g) for g in live.gens])
    periods = data.draw(st.integers(1, 4))
    off = data.draw(st.lists(st.sampled_from(items), unique=True,
                             min_size=1, max_size=len(items) // 2))
    status = {item: data.draw(st.lists(st.integers(0, 1),
                                       min_size=periods + 1,
                                       max_size=periods + 1))
              for item in off}
    carried = plan_dispatches(net, status, periods)
    assert repr(carried) == repr(_each_period_alone(net, status, periods))


def _held(dispatches):
    """Per period: the composition (buses, branches, generators) of every
    island solved, as plan_dispatches keys it."""
    return [{(tuple(i.buses), tuple(i.pf.flow_fr), tuple(sorted(i.pf.gen_p)))
             for i in d.islands if i.pf is not None} for d, _ in dispatches]


def _count_work(monkeypatch, forget=False):
    """Count IslandData.build (by period and composition) and newton_pf
    calls (with their iterations and factorizations); with forget, no
    island keeps a solve."""
    builds, solves = [], []
    build = IslandData.build.__func__
    period = [0]

    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    def counted_build(cls, net, buses, branches, gens, *args):
        builds.append((period[0], (tuple(buses), tuple(branches),
                                   tuple(gens))))
        isl = build(cls, net, buses, branches, gens, *args)
        if forget:
            isl.solved = Forgetful()
        return isl

    def counted_pf(*args, **kwargs):
        solves.append(newton_pf(*args, **kwargs))
        return solves[-1]

    def counted_mld(*args, **kwargs):
        period[0] = kwargs["period"]
        return max_load_delivery(*args, **kwargs)

    monkeypatch.setattr(IslandData, "build", classmethod(counted_build))
    monkeypatch.setattr(grs.acvalidate, "newton_pf", counted_pf)
    monkeypatch.setattr(grs.acvalidate, "max_load_delivery", counted_mld)
    return builds, solves


def test_carry_builds_and_solves_less(area1_scenario, monkeypatch):
    """On the area-1 heuristic plan the carry builds and solves less than
    the periods alone, and builds only what the period before did not
    hold."""
    net, dmg = area1_scenario
    case = replicate(net, dmg, 10)
    plan = heuristic_order(net, dmg, 10)
    builds, solves = _count_work(monkeypatch)
    dispatches = plan_dispatches(case.base, plan.status, case.periods)
    carried_builds, carried_solves = list(builds), len(solves)
    builds.clear()
    solves.clear()
    alone = _each_period_alone(case.base, plan.status, case.periods)
    assert repr(alone) == repr(dispatches)
    assert len(carried_builds) < len(builds) and carried_solves < len(solves)
    held = _held(dispatches)
    built = [set() for _ in held]
    for n, key in carried_builds:
        built[n].add(key)
    assert sum(map(len, built)) == len(carried_builds)  # each built once
    assert built == [held[0]] + [now - before
                                 for before, now in zip(held, held[1:])]


def test_validation_debug_line_counts(area1_scenario, monkeypatch, caplog):
    net, dmg = area1_scenario
    case = replicate(net, dmg, 10)
    plan = heuristic_order(net, dmg, 10)
    builds, solves = _count_work(monkeypatch, forget=True)
    unkept = plan_dispatches(case.base, plan.status, case.periods)
    attempts = len(solves)  # every solve _attempt asked for
    monkeypatch.undo()
    builds, solves = _count_work(monkeypatch)
    caplog.clear()
    caplog.set_level(logging.DEBUG, logger="grs.acvalidate")
    dispatches = plan_dispatches(case.base, plan.status, case.periods)
    assert repr(unkept) == repr(dispatches)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "grs.acvalidate"]
    assert len(lines) == 1 and lines[0].startswith("plan_dispatches: ")
    counts = {k: int(v) for k, v in
              (field.split("=") for field in lines[0].split()[1:])}
    used = sum(len(now) for now in _held(dispatches))
    assert counts == {
        "periods": case.periods + 1,
        "islands_built": len(builds),
        "islands_carried": used - len(builds),
        "newton_run": len(solves),
        "newton_reused": attempts - len(solves),
        "newton_iters": sum(pf.iterations for pf in solves),
        "newton_factorizations": sum(pf.factorizations for pf in solves)}
    assert 0 < counts["islands_carried"] and 0 < counts["newton_reused"]


def test_island_branch_outside_island_rejected(case5):
    br = case5.branches[1]
    with pytest.raises(GridError, match="ends outside"):
        IslandData.build(case5, [br.f_bus], [1], [], [])


def test_island_failing_at_a_zero_floor_warns(tmp_path):
    """An island whose solve at its floor fails warns even at a zero floor:
    gen-damage seed 45 on case118's area 1 leaves buses 2-4 at period 0
    with only gen 2, a synchronous condenser of pmax 0."""
    out = tmp_path / "seed45.json"
    assert cli.main(["gen-damage", "--case", str(CASES / "case118_smoke.m"),
                     "--fraction", "0.35", "--area", "1-23,25-32,113-115,117",
                     "--seed", "45", "--out", str(out)]) == 0
    net = netio.load_case(CASES / "case118_smoke.m")
    dmg = netio.damage_from_dict(json.loads(out.read_text()))
    case = replicate(net, dmg, 10)
    plan = heuristic_order(net, dmg, 10)
    dispatches = plan_dispatches(case.base, plan.status, case.periods)
    warned = [(d.period, i.buses, i.binding, i.lam, i.served_mw)
              for d, _ in dispatches for i in d.islands if i.warning]
    assert warned == [(0, [2, 3, 4], ["p-limit slack gen 2"], 0.0, 0.0)]
    assert ens_report(case, plan, dispatches).validation_warnings == 1
