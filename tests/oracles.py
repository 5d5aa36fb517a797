"""Independent reference computations used to cross-check the solvers.

Everything here but the AC helpers at the end goes through scipy (HiGHS
linprog and milp, dense linear algebra), never through the package's own
simplex or power-flow code, so agreement is meaningful.  ``model_size`` states the model builders' sizes as counting
formulas, apart from the builders themselves.

The AC helpers are read by the tests only.  ``branch_flows`` and
``residual_injections`` recompute bus injections branch by branch from the
validator's branch admittances, apart from the Newton solver's Ybus, and
``power_flow_jacobian`` is the whole-network Jacobian from the validator's
own ``_ds_blocks``.  ``island_of`` rebuilds the ``IslandData`` whose orders
a solve's ``PfState`` runs in, and ``bus_generation`` recomputes each bus's
generation of a solve from the dispatch rule.  ``canonical`` is
``scripts/op_digests.py``'s canonical form, so tests compare results bit
for bit as the digest does.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from grs.acvalidate import IslandData, _branch_admittances, _ds_blocks
from grs.formulations import DC
from grs.grid import BRANCH, BUS, GEN, MultiPeriodCase, Network
from grs.mip import BINARY, EQ, GE, LE, MipModel


def dc_max_served(net: Network, energized: dict, angle_bound=0.5236) -> float:
    """Largest servable load (pu) with fixed statuses under the DC law."""
    buses = sorted(b for b in net.buses if net.buses[b].bus_type != 4)
    pos = {b: i for i, b in enumerate(buses)}
    gens = [g for g in sorted(net.gens)
            if net.gens[g].in_service and energized.get((GEN, g), not net.gens[g].damaged)]
    brs = [k for k in sorted(net.branches)
           if net.branches[k].in_service
           and energized.get((BRANCH, k), not net.branches[k].damaged)]
    loads = sorted(net.loads)

    ng, nb, nl, nn = len(gens), len(brs), len(loads), len(buses)
    n = ng + nb + nl + nn  # pg, flow, served-fraction, theta
    c = np.zeros(n)
    c[ng + nb: ng + nb + nl] = [-net.loads[l].pd for l in loads]

    A_eq, b_eq = [], []
    for b in buses:
        row = np.zeros(n)
        for i, g in enumerate(gens):
            if net.gens[g].bus == b:
                row[i] = 1.0
        for j, k in enumerate(brs):
            br = net.branches[k]
            if br.f_bus == b:
                row[ng + j] = -1.0
            if br.t_bus == b:
                row[ng + j] = 1.0
        for m, l in enumerate(loads):
            if net.loads[l].bus == b:
                row[ng + nb + m] = -net.loads[l].pd
        A_eq.append(row)
        b_eq.append(sum(s.gs for s in net.shunts.values() if s.bus == b))
    for j, k in enumerate(brs):
        br = net.branches[k]
        row = np.zeros(n)
        row[ng + j] = 1.0
        bp = 1.0 / (br.x * br.tap)
        row[ng + nb + nl + pos[br.f_bus]] = -bp
        row[ng + nb + nl + pos[br.t_bus]] = bp
        A_eq.append(row)
        b_eq.append(-bp * br.shift)

    bounds = []
    for g in gens:
        bounds.append((min(net.gens[g].pmin, 0.0), net.gens[g].pmax))
    for k in brs:
        r = net.branches[k].rate_a
        big = abs(1.0 / (net.branches[k].x * net.branches[k].tap)) * 2 * angle_bound
        bounds.append((-r, r) if r > 0 else (-big, big))
    for _ in loads:
        bounds.append((0.0, 1.0))
    for _ in buses:
        bounds.append((-angle_bound, angle_bound))

    res = linprog(c, A_eq=np.array(A_eq), b_eq=np.array(b_eq), bounds=bounds,
                  method="highs")
    if res.status != 0:
        return float("nan")
    return -res.fun


def highs_milp(model: MipModel) -> float:
    """Optimum of a model without cone rows under HiGHS
    (``scipy.optimize.milp``), built from the ``MipModel`` fields alone.

    The value is in the model's own sense and includes ``obj_const``; it
    is nan when HiGHS reports no optimum.
    """
    if model.cone_rows:
        raise ValueError("highs_milp takes linear models only")
    n, m = len(model.vars), len(model.lin_rows)
    rows, cols, vals = [], [], []
    lo, hi = np.full(m, -np.inf), np.full(m, np.inf)
    for k, row in enumerate(model.lin_rows):
        for j, a in row.coeffs.items():
            rows.append(k)
            cols.append(j)
            vals.append(a)
        if row.sense in (LE, EQ):
            hi[k] = row.rhs
        if row.sense in (GE, EQ):
            lo[k] = row.rhs
    sgn = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n)
    for j, a in model.obj.items():
        c[j] = sgn * a
    res = milp(c,
               constraints=LinearConstraint(
                   sp.csr_matrix((vals, (rows, cols)), shape=(m, n)), lo, hi),
               bounds=Bounds([v.lb for v in model.vars],
                             [v.ub for v in model.vars]),
               integrality=[v.integrality == BINARY for v in model.vars])
    if res.status != 0:
        return math.nan
    return sgn * res.fun + model.obj_const


def enumerate_rop_orders(case: MultiPeriodCase) -> tuple[float, list]:
    """Best total served (pu-periods) over all repair schedules, by brute force.

    Periods are scored with the fixed-status DC oracle; service monotonicity
    never binds here because later repair sets are supersets, so per-period
    maxima stack (verified for the desk-scale fixtures this backs).  Only
    full-size batches are enumerated: served load is monotone in the
    repaired set, so repairing fewer items than the budget allows can never
    beat some full-batch schedule.
    """
    items = case.damaged_items()
    budget = case.repairs_per_period
    k = case.periods
    net = case.base

    def served(repaired):
        status = {it: (it in repaired) for it in items}
        return dc_max_served(net, status)

    best = (-1.0, None)
    cache = {}

    def score(repaired):
        key = frozenset(repaired)
        if key not in cache:
            cache[key] = served(key)
        return cache[key]

    def rec(remaining, repaired, period, acc):
        nonlocal best
        if period > k:
            if acc > best[0]:
                best = (acc, list(repaired))
            return
        take = min(budget, len(remaining))
        need = len(remaining) - (k - period) * budget
        for batch in itertools.combinations(sorted(remaining), take):
            if len(batch) < need:
                continue
            nxt = repaired | set(batch)
            rec(remaining - set(batch), nxt, period + 1, acc + score(nxt))

    base_served = score(frozenset())
    rec(frozenset(items), frozenset(), 1, base_served)
    return best


def model_size(net: Network, formulation: str, rop: bool, periods: int,
               damaged: list[tuple[str, int]]) -> tuple[int, int]:
    """Exact (variables, linear rows) the builders will produce over the
    live components (``Network.live``) with the given (live) damaged items.

    DC, per period: vars |bus| + |gen| + |branch| (p_fr only) + |dmg|
    (+|load| + |shunt| for the ordering model); rows |bus| (balance)
    + |branch| + |dmg branch| (flow law) + 2|branch| (angle) + 2|dmg branch|
    (activation) + 2|dmg gen| (on/off) + dependency rows + 1 cardinality
    (periods >= 1); the reference angle is a bound, not a row.  Inter-period:
    (|dmg| + |load|) * K rows.  SOC counts follow the same structure with the
    W-space variables and rows.
    """
    live = net.live()
    dmg_set = set(damaged)
    nb, nbr, ng = len(live.buses), len(live.branches), len(live.gens)
    nl, ns, nd = len(live.loads), len(live.shunts), len(damaged)
    dmg_br = sum(1 for k, _ in damaged if k == BRANCH)
    dmg_g = sum(1 for k, _ in damaged if k == GEN)
    dmg_bus = sum(1 for k, _ in damaged if k == BUS)
    rated = sum(1 for i in live.branches if net.branches[i].rate_a > 0.0)
    rated_dmg = sum(1 for i in live.branches
                    if net.branches[i].rate_a > 0.0 and (BRANCH, i) in dmg_set)
    dep = 0
    for i in live.branches:
        if (BRANCH, i) in dmg_set:
            br = net.branches[i]
            dep += sum(1 for e in (br.f_bus, br.t_bus) if (BUS, e) in dmg_set)
    for i in live.gens:
        if (GEN, i) in dmg_set and (BUS, net.gens[i].bus) in dmg_set:
            dep += 1

    if formulation == DC:
        vars_pp = nb + ng + nbr + nd + (nl + ns if rop else 0)
        rows_pp = nb + (nbr + dmg_br) + 2 * nbr + 2 * dmg_br + 2 * dmg_g + dep
    else:
        vars_pp = (nb + 2 * ng + 6 * nbr + 2 * dmg_br + 2 * rated + nd
                   + (nl + 2 * ns if rop else 0))
        rows_pp = (2 * nb + 6 * nbr + 10 * dmg_br + 2 * rated_dmg
                   + 2 * dmg_bus + 4 * dmg_g + dep
                   + (4 * ns if rop else 0))
    nper = periods + 1 if rop else 1
    nvars = vars_pp * nper
    nrows = rows_pp * nper
    if rop:
        nrows += periods  # cardinality
        nrows += (nd + nl) * periods  # monotone energization and service
    return nvars, nrows


def branch_flows(net: Network, bid: int, vf: complex, vt: complex):
    yff, yft, ytf, ytt = _branch_admittances(net.branches[bid])
    s_fr = vf * (yff * vf + yft * vt).conjugate()
    s_to = vt * (ytf * vf + ytt * vt).conjugate()
    return s_fr, s_to


def residual_injections(net: Network, buses: list[int], branches: list[int],
                        vm, va) -> dict[int, complex]:
    """Bus power injections recomputed from per-branch flows and shunts,
    with the voltages vm and va given per bus of buses, in their order.

    Independent of the Newton solver's Ybus path; used to cross-check
    converged states.
    """
    mag = dict(zip(buses, vm))
    v = {b: m * complex(math.cos(a), math.sin(a))
         for (b, m), a in zip(mag.items(), va)}
    inj = {b: 0j for b in buses}
    for bid in branches:
        br = net.branches[bid]
        s_fr, s_to = branch_flows(net, bid, v[br.f_bus], v[br.t_bus])
        inj[br.f_bus] += s_fr
        inj[br.t_bus] += s_to
    for s in net.shunts.values():
        if s.bus in inj:
            inj[s.bus] += (mag[s.bus] ** 2) * complex(s.gs, -s.bs)
    return inj


def island_of(net: Network, energized: dict, buses: list[int]) -> IslandData:
    """The island over buses as ``max_load_delivery`` solves it: the live
    branches between its buses and the live generators on them that are on
    (energized, else not damaged), and the live loads on its buses."""
    def on(kind, i, comp):
        return energized.get((kind, i), not comp.damaged)

    live, inside = net.live(), set(buses)
    brs, gens, loads = net.branches, net.gens, net.loads
    return IslandData.build(
        net, buses,
        [k for k in live.branches if on(BRANCH, k, brs[k])
         and brs[k].f_bus in inside and brs[k].t_bus in inside],
        [g for g in live.gens if on(GEN, g, gens[g]) and gens[g].bus in inside],
        [i for i in live.loads if loads[i].bus in inside])


def bus_generation(net: Network, isl: IslandData, pf,
                   fr) -> dict[int, complex]:
    """Each bus's generation in the solve pf on isl, with its loads served
    at the fractions fr (in ``isl.loads`` order): the ramp generators at the
    dispatch rule's set points, recomputed from net, the slack's
    ``slack_p``, and each generator bus's reactive output."""
    target = sum(f * net.loads[i].pd for i, f in zip(isl.loads, fr))
    gens = [net.gens[g] for g in [isl.slack, *isl.ramp]]
    pmin = sum(g.pmin for g in gens)
    span = sum(g.pmax - g.pmin for g in gens)
    beta = 0.0 if span <= 0 else min(1.0, max(0.0, (target - pmin) / span))
    out = {b: 0j for b in isl.buses}
    for g in gens[1:]:
        out[g.bus] += g.pmin + beta * (g.pmax - g.pmin)
    out[gens[0].bus] += pf.slack_p
    for k, q in zip(isl.groups.tolist(), pf.q_group.tolist()):
        out[isl.buses[k]] += 1j * q
    return out


_spec = importlib.util.spec_from_file_location(
    "_op_digests",
    Path(__file__).resolve().parent.parent / "scripts" / "op_digests.py")
_op_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_op_digests)
canonical = _op_digests.canonical


def power_flow_jacobian(Y: np.ndarray, v: np.ndarray):
    """dS/d(theta) and dS/d(Vm) for injections S = V conj(Y V)."""
    return _ds_blocks(Y, v, Y @ v, np.arange(len(v)))
