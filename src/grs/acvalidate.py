"""AC validation of restoration plans: true served load per period.

A plan fixes which components are energized in each period; this module
re-dispatches generation and scales load per energized island to find the
largest AC-feasible service level, then integrates the shortfall into true
energy not served.  The per-island procedure is deterministic: generators
follow participation factors proportional to their capacity headroom, one
slack generator (largest pmax, ties by lowest id) absorbs losses, and the
uniform load scale is found by binary search with Newton-Raphson feasibility
checks (voltage bounds, branch MVA ratings, generator P/Q limits with
PV-to-PQ switching).

Each energized island's data (``IslandData``: Ybus, branch admittance
arrays, per-bus load lists) is built once per island per
``max_load_delivery`` call; ``newton_pf`` solves a given ``IslandData``, so
the call's bisection and PV-to-PQ solves share it, and each solve still
starts flat.  Each solve is a chord Newton iteration: it factors the
Jacobian (LAPACK ``dgetrf``) and reuses the factors for later steps until
the largest mismatch falls by less than ``CHORD_RATE`` in one step, then
rebuilds and refactors.  ``PfState.iterations`` counts the steps and
``PfState.factorizations`` the Jacobians factored.

Because the dispatch is a deterministic procedure rather than a nonlinear
optimum, the reported true ENS is an upper bound on what a full multi-period
AC redispatch could achieve; all orderings asserted in tests hold under this
conservative bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import formulations
from .grid import (BRANCH, BUS, GEN, EnsReport, GridError, MultiPeriodCase,
                   Network, RestorationPlan, connected_islands)

PF_TOL = 1e-8
PF_MAX_ITER = 30
CHORD_RATE = 4.0  # refactor unless the mismatch fell at least this much
QLIM_ROUNDS = 10
LAMBDA_TOL = 1e-4
LIMIT_TOL = 1e-6


@dataclass
class PfState:
    converged: bool
    iterations: int
    factorizations: int  # Jacobians the solve factored
    mismatch: float
    vm: dict[int, float]
    va: dict[int, float]
    gen_p: dict[int, float]
    gen_q: dict[int, float]
    flow_fr: dict[int, complex]
    flow_to: dict[int, complex]


@dataclass
class IslandResult:
    buses: list[int]
    lam: float
    served_mw: float
    binding: list[str]
    warning: bool
    pf: PfState | None


@dataclass
class PeriodDispatch:
    period: int
    islands: list[IslandResult]
    served_mw: float
    fractions: dict[int, float]
    warnings: int


def _branch_admittances(br):
    y = 1.0 / complex(br.r, br.x)
    shift = complex(math.cos(br.shift), math.sin(br.shift))
    t = br.tap * shift
    yff = (y + 1j * br.b_charge / 2.0) / (br.tap ** 2)
    yft = -y / t.conjugate()
    ytf = -y / t
    ytt = y + 1j * br.b_charge / 2.0
    return yff, yft, ytf, ytt


def _ybus(net: Network, pos: dict[int, int], branches: list[int],
          adm: np.ndarray) -> np.ndarray:
    """Bus admittance matrix over the buses of pos (bus -> row); adm holds
    each branch's (yff, yft, ytf, ytt) row as ``_branch_admittances``
    computes it."""
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


@dataclass
class IslandData:
    """Power-flow data of one island: what every solve on it shares.

    ``max_load_delivery`` builds it once per island and passes it to each
    ``newton_pf`` of that island's bisection and PV-to-PQ rounds.
    """
    buses: list[int]  # sorted; bus i of the arrays below is buses[i]
    pos: dict[int, int]
    branches: list[int]
    Y: np.ndarray
    f: np.ndarray  # from-bus position per branch
    t: np.ndarray  # to-bus position per branch
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    loads_at: dict[int, list[int]]  # bus -> its loads, in case order

    @classmethod
    def build(cls, net: Network, buses: list[int],
              branches: list[int]) -> IslandData:
        buses = sorted(buses)
        pos = {b: i for i, b in enumerate(buses)}
        brs = [net.branches[k] for k in branches]
        adm = np.array([_branch_admittances(br) for br in brs],
                       dtype=complex).reshape(-1, 4)
        loads_at: dict[int, list[int]] = {}
        for lid, ld in net.loads.items():
            if ld.bus in pos:
                loads_at.setdefault(ld.bus, []).append(lid)
        return cls(buses, pos, list(branches),
                   _ybus(net, pos, branches, adm),
                   np.array([pos[br.f_bus] for br in brs], dtype=int),
                   np.array([pos[br.t_bus] for br in brs], dtype=int),
                   *adm.T, loads_at)


def branch_flows(net: Network, bid: int, vf: complex, vt: complex):
    yff, yft, ytf, ytt = _branch_admittances(net.branches[bid])
    s_fr = vf * (yff * vf + yft * vt).conjugate()
    s_to = vt * (ytf * vf + ytt * vt).conjugate()
    return s_fr, s_to


def residual_injections(net: Network, buses: list[int], branches: list[int],
                        vm: dict[int, float], va: dict[int, float]) -> dict[int, complex]:
    """Bus power injections recomputed from per-branch flows and shunts.

    Independent of the Newton solver's Ybus path; used to cross-check
    converged states.
    """
    v = {b: vm[b] * complex(math.cos(va[b]), math.sin(va[b])) for b in buses}
    inj = {b: 0j for b in buses}
    for bid in branches:
        br = net.branches[bid]
        s_fr, s_to = branch_flows(net, bid, v[br.f_bus], v[br.t_bus])
        inj[br.f_bus] += s_fr
        inj[br.t_bus] += s_to
    for s in net.shunts.values():
        if s.bus in inj:
            inj[s.bus] += (vm[s.bus] ** 2) * complex(s.gs, -s.bs)
    return inj


def power_flow_jacobian(Y: np.ndarray, v: np.ndarray):
    """dS/d(theta) and dS/d(Vm) for injections S = V conj(Y V)."""
    return _ds_blocks(Y, v, Y @ v, np.arange(len(v)))


def _ds_blocks(Y, v, ibus, vm_cols):
    """dS/d(theta), and the columns vm_cols of dS/d(Vm).

    dS/d(theta) = j diag(V) conj(diag(I) - Y diag(V)) and
    dS/d(Vm) = diag(V) conj(Y diag(E)) + conj(diag(I)) diag(E), E = V/|V|,
    formed by scaling Y's rows and columns and adding the diagonal terms in
    place.  Entry (i, k) needs only Y[i, k], V[i], V[k] and I[i], so Y may
    be a principal submatrix, with v and ibus (= the full Y V) cut to it.
    """
    n = len(v)
    dva = Y * v
    dva.flat[::n + 1] -= ibus
    np.conjugate(dva, out=dva)
    dva *= (-1j * v)[:, None]
    e = v[vm_cols] / np.abs(v[vm_cols])
    dvm = Y[:, vm_cols] * e
    np.conjugate(dvm, out=dvm)
    dvm *= v[:, None]
    dvm[vm_cols, np.arange(len(vm_cols))] += ibus[vm_cols].conjugate() * e
    return dva, dvm


def newton_pf(net: Network, isl: IslandData, pg_set: dict[int, float],
              slack_gen: int, load_frac: dict[int, float],
              pv_gens: dict[int, list[int]],
              q_fixed: dict[int, float] | None = None) -> PfState:
    """Chord Newton-Raphson polar power flow on the island isl.

    pv_gens maps PV bus id -> energized generator ids there (voltage held at
    the setpoint); q_fixed marks former PV buses pinned at a reactive limit
    (treated as PQ with that generation).  Flat start: V = 1 / PV setpoints,
    angles zero.  The Jacobian is built and LU-factored on the first
    iteration and whenever the largest mismatch fell by less than a factor
    of CHORD_RATE since the previous one; other steps reuse the last
    factors.  The result counts both (``iterations``, ``factorizations``).
    Stops once the largest mismatch is at most PF_TOL, or after PF_MAX_ITER
    iterations; a non-finite mismatch or a singular Jacobian ends the solve
    at once, not converged.
    """
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
    pq_at = np.searchsorted(pvpq, pq_i)  # rows of the pq buses within pvpq
    y_pvpq = Y[np.ix_(pvpq, pvpq)]
    nva = len(pvpq)

    mismatch = prev = math.inf
    lu = piv = None
    factorizations = it = 0
    for it in range(PF_MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        ibus = Y @ v
        s_calc = v * ibus.conjugate()
        dp = p_spec - s_calc.real
        dq = q_spec - s_calc.imag
        f = np.concatenate([dp[pvpq], dq[pq_i]])
        mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        if mismatch <= PF_TOL or it == PF_MAX_ITER or not math.isfinite(mismatch):
            break
        if lu is None or mismatch * CHORD_RATE > prev:
            ds_dva, ds_dvm = _ds_blocks(y_pvpq, v[pvpq], ibus[pvpq], pq_at)
            jac = np.block([[ds_dva.real, ds_dvm.real],
                            [ds_dva.imag[pq_at], ds_dvm.imag[pq_at]]])
            lu, piv, info = dgetrf(jac, overwrite_a=True)
            factorizations += 1
            if info > 0:  # singular Jacobian
                return _pf_state(net, isl, vm, va, pg_set, slack_gen,
                                 load_frac, False, it, factorizations,
                                 mismatch)
        dx, _ = dgetrs(lu, piv, f)
        prev = mismatch
        va[pvpq] += dx[:nva]
        vm[pq_i] += dx[nva:]

    converged = mismatch <= PF_TOL
    return _pf_state(net, isl, vm, va, pg_set, slack_gen, load_frac,
                     converged, it, factorizations, mismatch)


def _pf_state(net, isl: IslandData, vm, va, pg_set, slack_gen, load_frac,
              converged, iterations, factorizations, mismatch) -> PfState:
    v = vm * np.exp(1j * va)
    s_calc = v * (isl.Y @ v).conjugate()
    gen_p = dict(pg_set)
    gen_q: dict[int, float] = {}

    by_bus: dict[int, list[int]] = {}
    for g, p in pg_set.items():
        by_bus.setdefault(net.gens[g].bus, []).append(g)
    sb = net.gens[slack_gen].bus
    if slack_gen not in pg_set:
        by_bus.setdefault(sb, []).append(slack_gen)

    for b, gids in by_bus.items():
        i = isl.pos[b]
        lids = isl.loads_at.get(b, [])
        pd = sum(load_frac.get(lid, 0.0) * net.loads[lid].pd for lid in lids)
        qd = sum(load_frac.get(lid, 0.0) * net.loads[lid].qd for lid in lids)
        p_gen_bus = s_calc.real[i] + pd
        q_gen_bus = s_calc.imag[i] + qd
        if b == sb:
            others = sum(pg_set.get(g, 0.0) for g in gids if g != slack_gen)
            gen_p[slack_gen] = p_gen_bus - others
        qr = [max(net.gens[g].qmax - net.gens[g].qmin, 0.0) for g in sorted(gids)]
        tot = sum(qr)
        for g, r in zip(sorted(gids), qr):
            share = r / tot if tot > 0 else 1.0 / len(gids)
            gen_q[g] = q_gen_bus * share

    vf, vt = v[isl.f], v[isl.t]
    s_fr = vf * (isl.yff * vf + isl.yft * vt).conjugate()
    s_to = vt * (isl.ytf * vf + isl.ytt * vt).conjugate()

    return PfState(converged, iterations, factorizations, mismatch,
                   dict(zip(isl.buses, vm.tolist())),
                   dict(zip(isl.buses, va.tolist())),
                   gen_p, gen_q, dict(zip(isl.branches, s_fr.tolist())),
                   dict(zip(isl.branches, s_to.tolist())))


def _attempt(net, isl: IslandData, gens, loads, fractions, binding):
    """One PV/PQ-switched power-flow solve; returns (PfState|None, ok)."""
    slack = max(gens, key=lambda g: (net.gens[g].pmax, -g))
    slack_bus = net.gens[slack].bus

    target = sum(fractions[lid] * net.loads[lid].pd for lid in loads)
    pmin = sum(net.gens[g].pmin for g in gens)
    rng = sum(net.gens[g].pmax - net.gens[g].pmin for g in gens)
    beta = 0.0 if rng <= 0 else min(1.0, max(0.0, (target - pmin) / rng))
    pg_set = {g: net.gens[g].pmin + beta * (net.gens[g].pmax - net.gens[g].pmin)
              for g in gens if g != slack}

    pv_gens: dict[int, list[int]] = {}
    for g in gens:
        pv_gens.setdefault(net.gens[g].bus, []).append(g)

    q_fixed: dict[int, float] = {}
    frac_map = {lid: fractions[lid] for lid in loads}
    pf = None
    for _ in range(QLIM_ROUNDS):
        pf = newton_pf(net, isl, pg_set, slack, frac_map, pv_gens, q_fixed)
        if not pf.converged:
            binding.append("non-convergence")
            return pf, False
        switched = False
        for b, gids in sorted(pv_gens.items()):
            if b in q_fixed or b == slack_bus:
                continue  # slack bus voltage stays pinned; checked below
            qmin = sum(net.gens[g].qmin for g in gids)
            qmax = sum(net.gens[g].qmax for g in gids)
            qbus = sum(pf.gen_q.get(g, 0.0) for g in gids)
            if qbus > qmax + LIMIT_TOL:
                q_fixed[b] = qmax
                switched = True
            elif qbus < qmin - LIMIT_TOL:
                q_fixed[b] = qmin
                switched = True
        if not switched:
            break

    ok = True
    for b in isl.buses:
        bus = net.buses[b]
        if pf.vm[b] < bus.vmin - LIMIT_TOL or pf.vm[b] > bus.vmax + LIMIT_TOL:
            binding.append(f"voltage bus {b}")
            ok = False
    for bid in isl.branches:
        rate = net.branches[bid].rate_a
        if rate > 0.0:
            if (abs(pf.flow_fr[bid]) > rate + LIMIT_TOL
                    or abs(pf.flow_to[bid]) > rate + LIMIT_TOL):
                binding.append(f"thermal branch {bid}")
                ok = False
    sp = pf.gen_p[slack]
    if sp < net.gens[slack].pmin - LIMIT_TOL or sp > net.gens[slack].pmax + LIMIT_TOL:
        binding.append(f"p-limit slack gen {slack}")
        ok = False
    sbq_gens = pv_gens[slack_bus]
    qbus = sum(pf.gen_q.get(g, 0.0) for g in sbq_gens)
    if (qbus > sum(net.gens[g].qmax for g in sbq_gens) + LIMIT_TOL
            or qbus < sum(net.gens[g].qmin for g in sbq_gens) - LIMIT_TOL):
        binding.append(f"q-limit slack bus {slack_bus}")
        ok = False
    return pf, ok


def max_load_delivery(net: Network, energized: dict[tuple[str, int], bool],
                      prev_fractions: dict[int, float] | None = None,
                      period: int = 0) -> PeriodDispatch:
    """Largest AC-feasible uniform load scale per energized island.

    Served fraction of load d is max(lambda, floor_d) where floor_d is the
    fraction served in the previous period; islands without generation serve
    nothing (with a warning if that breaks a floor).
    """
    prev = prev_fractions or {}
    status = {(kind, cid): not c.damaged
              for kind, comps in ((BUS, net.buses), (BRANCH, net.branches),
                                  (GEN, net.gens))
              for cid, c in comps.items()}
    status.update(energized)
    live = net.live()
    islands = connected_islands(net, status)

    results: list[IslandResult] = []
    fractions: dict[int, float] = {}
    warnings = 0
    for island in islands:
        branches = [i for i in live.branches if status[BRANCH, i]
                    and net.branches[i].f_bus in island
                    and net.branches[i].t_bus in island]
        gens = [i for i in live.gens
                if status[GEN, i] and net.gens[i].bus in island]
        loads = [i for i in live.loads if net.loads[i].bus in island]
        floors = {lid: min(1.0, max(0.0, prev.get(lid, 0.0))) for lid in loads}
        if not loads:
            results.append(IslandResult(sorted(island), 1.0, 0.0, [], False, None))
            continue
        if not gens:
            warn = any(f > 0.0 for f in floors.values())
            warnings += int(warn)
            for lid in loads:
                fractions[lid] = 0.0
            results.append(IslandResult(sorted(island), 0.0, 0.0,
                                        ["no generation"], warn, None))
            continue

        lam_floor = min(floors.values())
        binding: list[str] = []
        isl = IslandData.build(net, sorted(island), branches)

        def feasible(lam):
            fr = {lid: max(lam, floors[lid]) for lid in loads}
            return _attempt(net, isl, gens, loads, fr, binding)

        lam = 1.0
        pf, ok = feasible(lam)
        if not ok:  # bisect up from the floor, if the floor is feasible
            lam, hi = lam_floor, 1.0
            pf, ok = feasible(lam)
            while ok and hi - lam > LAMBDA_TOL:
                mid = 0.5 * (lam + hi)
                pfm, okm = feasible(mid)
                if okm:
                    lam = mid
                    pf = pfm
                else:
                    hi = mid
        warnings += not ok  # an infeasible floor is kept, with a warning
        served = sum(max(lam, floors[lid]) * net.loads[lid].pd for lid in loads)
        for lid in loads:
            fractions[lid] = max(lam, floors[lid])
        results.append(IslandResult(sorted(island), lam,
                                    round(served * net.base_mva, 3),
                                    sorted(set(binding)), not ok, pf))

    total = round(sum(r.served_mw for r in results), 3)
    return PeriodDispatch(period, results, total, fractions, warnings)


def plan_dispatches(net: Network, status: dict[tuple[str, int], list[int]],
                    periods: int) -> list[tuple[PeriodDispatch, dict[int, float]]]:
    """Maximal AC load delivery in each period 0..periods of a status schedule.

    Each period's served fractions are the next period's floors; returns every
    period's dispatch with the per-load fractions in force after it.
    """
    out = []
    fractions: dict[int, float] = {lid: 0.0 for lid in net.loads}
    for n in range(periods + 1):
        energized = {item: bool(zs[n]) for item, zs in status.items()}
        dispatch = max_load_delivery(net, energized, fractions, period=n)
        fractions = dict(fractions)
        fractions.update(dispatch.fractions)
        out.append((dispatch, fractions))
    return out


def ens_report(case: MultiPeriodCase, plan: RestorationPlan,
               dispatches: list[tuple[PeriodDispatch, dict[int, float]]],
               count_initial_period: bool = True,
               estimated_ens: float | None = None) -> EnsReport:
    """True ENS of a plan from its per-period dispatches, integrated."""
    if estimated_ens is None:
        estimated_ens = formulations.estimated_ens_mwh(case, plan,
                                                       count_initial_period)
    served = [dispatch.served_mw for dispatch, _ in dispatches]
    warnings = sum(dispatch.warnings for dispatch, _ in dispatches)
    return EnsReport.from_served(case.total_load_mw(), served,
                                 case.period_hours, count_initial_period,
                                 estimated_ens, warnings)


def redispatch_plan(case: MultiPeriodCase, plan: RestorationPlan,
                    count_initial_period: bool = True,
                    estimated_ens: float | None = None) -> EnsReport:
    """True ENS of a plan: per-period maximal AC load delivery, integrated.

    The plan is first checked against the case (``RestorationPlan.validate``).
    """
    plan.validate(case)
    dispatches = plan_dispatches(case.base, plan.status, case.periods)
    return ens_report(case, plan, dispatches, count_initial_period,
                      estimated_ens)
