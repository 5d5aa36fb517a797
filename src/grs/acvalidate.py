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

What one validation does not change is built once per ``plan_dispatches``
call, as ``NetworkData``: the live-component lists, the statuses of the
undamaged components, every live branch's four admittances, and the bus
voltage and branch rating limits.  Each period's ``max_load_delivery``
takes it through its ``network=`` keyword (called alone, it builds its
own).  Each energized island with loads and generation has an
``IslandData``, built eagerly with all that the island's solves share: bus
positions, branch ends, the Ybus (one ``np.add.at`` over the branch entries
in branch order, then the shunts) and its cut without the slack's row and
column, the limits, the loads, the dispatch rule, and one table of the
generator buses.  ``plan_dispatches`` carries each period's
islands into the next, keyed by composition (sorted buses, branches and
energized generators; the loads follow from the buses), so an island the
schedule leaves unchanged is built once.  Only one period's islands are
held, and nothing outlives the ``plan_dispatches`` call; a
``max_load_delivery`` called alone keeps nothing between calls.

``newton_pf`` solves a given ``IslandData`` from the ramp generators' set
points and the loads' fractions alone, so the bisection and PV-to-PQ
solves share the island, and each solve still starts flat.  A solve's
``PfState`` is arrays in its island's orders: voltages per bus, flows per
branch, the reactive output per generator bus.  The island keeps every
solve's ``PfState``, keyed by the bytes of the served fractions (the set
points follow from them) and the pinned reactive injections, and
``_attempt`` takes a kept state instead of solving the same inputs again.
``IslandData.build`` and ``newton_pf`` are pure functions of those inputs,
so what is carried or kept is bit for bit what would be computed again,
and every dispatch is the same as from periods validated alone.  A kept
state is handed out as it is, so two periods' ``IslandResult`` may share
one ``PfState``; nothing writes to its arrays after its solve.

Each solve is a chord Newton iteration: it writes the Jacobian blocks into
one Fortran-ordered array, factors it in place (LAPACK ``dgetrf``) and
reuses the factors for later steps until the largest mismatch falls by less
than ``CHORD_RATE`` in one step, then rebuilds and refactors.
``PfState.iterations`` counts the steps and ``PfState.factorizations`` the
Jacobians factored.  Every array sum adds its terms left to right in
component order, as a scalar loop does (and as Python's ``sum`` of floats
does through CPython 3.11), so results equal the scalar references in the
tests bit for bit; where ``np.abs`` could differ from ``abs`` in the last
bit, it only screens, and ``abs`` decides.

Because the dispatch is a deterministic procedure rather than a nonlinear
optimum, the reported true ENS is an upper bound on what a full multi-period
AC redispatch could achieve; all orderings asserted in tests hold under this
conservative bias.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import formulations
from .grid import (BRANCH, BUS, GEN, EnsReport, GridError, Live,
                   MultiPeriodCase, Network, RestorationPlan,
                   connected_islands)

PF_TOL = 1e-8
PF_MAX_ITER = 30
CHORD_RATE = 4.0  # refactor unless the mismatch fell at least this much
QLIM_ROUNDS = 10
LAMBDA_TOL = 1e-4
LIMIT_TOL = 1e-6

log = logging.getLogger(__name__)


@dataclass
class PfState:
    """One ``newton_pf`` solve, in the orders of its ``IslandData``."""
    converged: bool
    iterations: int
    factorizations: int  # Jacobians the solve factored
    mismatch: float
    vm: np.ndarray  # per bus
    va: np.ndarray
    s_fr: np.ndarray  # per branch: complex power into its from end
    s_to: np.ndarray  # and into its to end
    slack_p: float  # the slack generator's active output
    q_group: np.ndarray  # per generator bus (group): reactive output


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


def _ybus(net: Network, pos: dict[int, int], f: np.ndarray, t: np.ndarray,
          adm: np.ndarray) -> np.ndarray:
    """Bus admittance matrix over the buses of pos (bus -> row).

    Branch k runs from row f[k] to row t[k], and adm[k] holds its (yff, yft,
    ytf, ytt) as ``_branch_admittances`` computes them.  One ``np.add.at``
    adds the (ff, ft, tf, tt) entries branch by branch, then the shunts are
    added in case order: the additions of a scalar loop, in its order.
    """
    n = len(pos)
    Y = np.zeros((n, n), dtype=complex)
    np.add.at(Y.reshape(-1), np.stack([f * n + f, f * n + t, t * n + f,
                                       t * n + t], axis=1).ravel(),
              adm.ravel())
    for s in net.shunts.values():
        if s.bus in pos:
            Y[pos[s.bus], pos[s.bus]] += complex(s.gs, s.bs)
    return Y


@dataclass
class NetworkData:
    """What one validation computes once for its network.

    ``plan_dispatches`` builds it and passes it to every period's
    ``max_load_delivery``; it is dropped when the validation returns.
    Arrays run over the live buses or the live branches, in id order.
    """
    live: Live
    status: dict[tuple[str, int], bool]  # every component: not damaged
    branch_ends: list[tuple[int, int, int]]  # (id, f_bus, t_bus)
    gen_buses: list[tuple[int, int]]  # (id, bus) of each live generator
    load_buses: list[tuple[int, int]]  # (id, bus) of each live load
    bus_row: dict[int, int]  # live bus -> its row of vlo and vhi
    vlo: np.ndarray  # vmin - LIMIT_TOL
    vhi: np.ndarray  # vmax + LIMIT_TOL
    branch_row: dict[int, int]  # live branch -> its row of the arrays below
    ends: np.ndarray  # rows of the branch's from and to buses
    adm: np.ndarray  # (yff, yft, ytf, ytt) as _branch_admittances gives them
    smax: np.ndarray  # rate_a + LIMIT_TOL; inf where unrated

    @classmethod
    def build(cls, net: Network) -> NetworkData:
        live = net.live()
        buses = [net.buses[b] for b in live.buses]
        brs = [net.branches[i] for i in live.branches]
        bus_row = {b: k for k, b in enumerate(live.buses)}
        return cls(
            live,
            {(kind, cid): not c.damaged
             for kind, comps in ((BUS, net.buses), (BRANCH, net.branches),
                                 (GEN, net.gens))
             for cid, c in comps.items()},
            [(i, br.f_bus, br.t_bus) for i, br in zip(live.branches, brs)],
            [(i, net.gens[i].bus) for i in live.gens],
            [(i, net.loads[i].bus) for i in live.loads],
            bus_row,
            np.array([bus.vmin - LIMIT_TOL for bus in buses], dtype=float),
            np.array([bus.vmax + LIMIT_TOL for bus in buses], dtype=float),
            {i: k for k, i in enumerate(live.branches)},
            np.array([(bus_row[br.f_bus], bus_row[br.t_bus]) for br in brs],
                     dtype=int).reshape(-1, 2),
            np.array([_branch_admittances(br) for br in brs],
                     dtype=complex).reshape(-1, 4),
            np.array([br.rate_a + LIMIT_TOL if br.rate_a > 0.0 else math.inf
                      for br in brs], dtype=float))


@dataclass
class IslandData:
    """Power-flow data of one island: what every solve on it shares.

    ``max_load_delivery`` builds it once per island, or takes it from the
    previous period, and passes it to each ``newton_pf`` of that island's
    bisection and PV-to-PQ rounds; ``solved`` keeps their results.  Buses,
    generators and loads run in id order.  The slack generator takes up the
    losses; the others (the ramp) run at pmin + beta (pmax - pmin), with one
    beta per solve.  The generators are grouped by bus once, groups in order
    of their first generator: the one table behind the PV buses, their
    voltage set points and summed Q limits.  A solve's ``PfState`` runs over
    ``buses``, ``branches`` and these groups.
    """
    buses: list[int]  # bus i of the arrays below is buses[i]
    pos: dict[int, int]
    branches: list[int]
    Y: np.ndarray
    f: np.ndarray  # from-bus position per branch
    t: np.ndarray  # to-bus position per branch
    yff: np.ndarray
    yft: np.ndarray
    ytf: np.ndarray
    ytt: np.ndarray
    vlo: np.ndarray  # per bus: vmin - LIMIT_TOL
    vhi: np.ndarray  # vmax + LIMIT_TOL
    smax: np.ndarray  # per branch: rate_a + LIMIT_TOL, inf where unrated
    loads: list[int]
    load_at: np.ndarray  # per load: its bus position
    pd: np.ndarray
    qd: np.ndarray
    slack: int  # largest pmax, ties by lowest id; absorbs the losses
    pvpq: np.ndarray  # the positions other than the slack's bus
    y_pvpq: np.ndarray  # Y cut to their rows and columns
    ramp: list[int]  # the other generators, which follow the dispatch rule
    ramp_at: np.ndarray  # per ramp generator: its bus position
    ramp_pmin: np.ndarray
    ramp_span: np.ndarray  # pmax - pmin
    pmin: float  # summed over all the generators
    rng: float  # summed pmax - pmin
    groups: np.ndarray  # per group: its bus position
    vg: np.ndarray  # voltage set point: the slack's, else the first gen's
    qmin: np.ndarray  # the group's summed limits
    qmax: np.ndarray
    slack_group: int
    others: list[int]  # ramp indices of the other gens on the slack's bus
    # every newton_pf solve run on the island, by its inputs (_attempt)
    solved: dict[tuple[bytes, bytes], PfState] = field(
        default_factory=dict, repr=False, compare=False)
    # what the validation did on the island: solves taken from solved, PV
    # buses pinned at a reactive limit, and bisection steps
    reused: int = field(default=0, repr=False, compare=False)
    pins: int = field(default=0, repr=False, compare=False)
    bisections: int = field(default=0, repr=False, compare=False)

    @classmethod
    def build(cls, net: Network, buses: list[int], branches: list[int],
              gens: list[int], loads: list[int],
              network: NetworkData | None = None) -> IslandData:
        """The island over live buses and branches of net, with the
        generators gens (one at least) and the loads loads on its buses;
        network, when given, is net's ``NetworkData``."""
        network = network or NetworkData.build(net)
        buses, gens, loads = sorted(buses), sorted(gens), sorted(loads)
        pos = {b: i for i, b in enumerate(buses)}
        rows = [network.branch_row[k] for k in branches]
        bus_rows = [network.bus_row[b] for b in buses]
        at = np.full(len(network.bus_row), -1)
        at[bus_rows] = np.arange(len(buses))
        ends = at[network.ends[rows]]
        if (ends < 0).any():
            raise GridError("a branch of the island ends outside it")
        gen, lds = net.gens, [net.loads[i] for i in loads]
        f, t = ends.T
        adm = network.adm[rows]
        Y = _ybus(net, pos, f, t, adm)

        slack = max(gens, key=lambda g: (gen[g].pmax, -g))
        slack_bus = gen[slack].bus
        pvpq = np.arange(len(buses) - 1)
        pvpq[pos[slack_bus]:] += 1
        ramp = [g for g in gens if g != slack]
        by_bus: dict[int, list[int]] = {}
        for g in gens:
            by_bus.setdefault(gen[g].bus, []).append(g)
        slack_group = list(by_bus).index(slack_bus)
        vg, qmin, qmax = [], [], []
        for gids in by_bus.values():
            gs = [gen[g] for g in gids]
            vg.append(gs[0].vg)
            qmin.append(sum([g.qmin for g in gs]))
            qmax.append(sum([g.qmax for g in gs]))
        vg[slack_group] = gen[slack].vg
        return cls(
            buses, pos, list(branches), Y, f, t, *adm.T,
            network.vlo[bus_rows], network.vhi[bus_rows], network.smax[rows],
            loads, np.array([pos[ld.bus] for ld in lds], dtype=int),
            np.array([ld.pd for ld in lds], dtype=float),
            np.array([ld.qd for ld in lds], dtype=float),
            slack, pvpq, Y.take(pvpq, axis=0).take(pvpq, axis=1), ramp,
            np.array([pos[gen[g].bus] for g in ramp], dtype=int),
            np.array([gen[g].pmin for g in ramp], dtype=float),
            np.array([gen[g].pmax - gen[g].pmin for g in ramp], dtype=float),
            sum(gen[g].pmin for g in gens),
            sum(gen[g].pmax - gen[g].pmin for g in gens),
            np.array([pos[b] for b in by_bus], dtype=int),
            np.array(vg, dtype=float), np.array(qmin, dtype=float),
            np.array(qmax, dtype=float), slack_group,
            [k for k, g in enumerate(ramp) if gen[g].bus == slack_bus])


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


def newton_pf(isl: IslandData, pg, fr,
              q_fixed: dict[int, float] | None = None) -> PfState:
    """Chord Newton-Raphson polar power flow on the island isl.

    pg holds the set points of ``isl.ramp`` and fr the served fractions of
    ``isl.loads``, in their order; the slack generator takes up the rest.
    Every generator bus is PV (voltage held at its set point) except those
    in q_fixed: former PV buses pinned at a reactive limit, treated as PQ
    with that generation.  Flat start: V = 1 / PV setpoints, angles zero.
    The Jacobian is built and LU-factored on the first iteration and
    whenever the largest mismatch fell by less than a factor of CHORD_RATE
    since the previous one; other steps reuse the last factors.  The result
    counts both (``iterations``, ``factorizations``).  Stops once the
    largest mismatch is at most PF_TOL, or after PF_MAX_ITER iterations; a
    non-finite mismatch or a singular Jacobian ends the solve at once, not
    converged.
    """
    q_fixed = q_fixed or {}
    pos, Y, pvpq = isl.pos, isl.Y, isl.pvpq
    n = len(isl.buses)
    pg = np.asarray(pg, dtype=float)
    fr = np.asarray(fr, dtype=float)

    is_pq = np.ones(n, dtype=bool)
    is_pq[isl.groups] = False
    is_pq[[pos[b] for b in q_fixed]] = True
    is_pq[isl.groups[isl.slack_group]] = False
    pq_i = is_pq.nonzero()[0]
    pq_at = np.searchsorted(pvpq, pq_i)  # rows of the pq buses within pvpq
    nva = len(pvpq)

    # the additions of one scalar loop over the generators, then the loads,
    # then the pinned reactive injections, in its order
    p_spec = np.zeros(n)
    q_spec = np.zeros(n)
    np.add.at(p_spec, isl.ramp_at, pg)
    np.subtract.at(p_spec, isl.load_at, fr * isl.pd)
    np.subtract.at(q_spec, isl.load_at, fr * isl.qd)
    for b, qv in q_fixed.items():
        q_spec[pos[b]] += qv
    p_spec, q_spec = p_spec[pvpq], q_spec[pq_i]

    vm = np.ones(n)
    va = np.zeros(n)
    vm[isl.groups] = isl.vg

    f = np.empty(nva + len(pq_i))
    jac = np.empty((f.size, f.size), order="F")  # dgetrf factors it in place
    mismatch = prev = math.inf
    lu = piv = None
    factorizations = it = 0
    for it in range(PF_MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        ibus = Y @ v
        s_calc = v * ibus.conjugate()
        np.subtract(p_spec, s_calc.real[pvpq], out=f[:nva])
        np.subtract(q_spec, s_calc.imag[pq_i], out=f[nva:])
        mismatch = float(np.abs(f).max()) if f.size else 0.0
        if mismatch <= PF_TOL or it == PF_MAX_ITER or not math.isfinite(mismatch):
            break
        if lu is None or mismatch * CHORD_RATE > prev:
            ds_dva, ds_dvm = _ds_blocks(isl.y_pvpq, v[pvpq], ibus[pvpq], pq_at)
            jac[:nva, :nva] = ds_dva.real
            jac[:nva, nva:] = ds_dvm.real
            jac[nva:, :nva] = ds_dva.imag[pq_at]
            jac[nva:, nva:] = ds_dvm.imag[pq_at]
            lu, piv, info = dgetrf(jac, overwrite_a=True)
            factorizations += 1
            if info > 0:  # singular Jacobian
                return _pf_state(isl, vm, va, pg, fr, False, it,
                                 factorizations, mismatch)
        dx, _ = dgetrs(lu, piv, f)
        prev = mismatch
        va[pvpq] += dx[:nva]
        vm[pq_i] += dx[nva:]

    converged = mismatch <= PF_TOL
    return _pf_state(isl, vm, va, pg, fr, converged, it, factorizations,
                     mismatch)


def _pf_state(isl: IslandData, vm, va, pg, fr, converged, iterations,
              factorizations, mismatch) -> PfState:
    v = vm * np.exp(1j * va)
    s_calc = v * (isl.Y @ v).conjugate()
    # each bus's load, summed load by load as a scalar loop would
    pd = np.zeros(len(isl.buses))
    qd = np.zeros(len(isl.buses))
    np.add.at(pd, isl.load_at, fr * isl.pd)
    np.add.at(qd, isl.load_at, fr * isl.qd)
    s = isl.groups[isl.slack_group]
    slack_p = float(s_calc.real[s] + pd[s] - sum(pg[isl.others].tolist()))
    vf, vt = v[isl.f], v[isl.t]
    return PfState(converged, iterations, factorizations, mismatch, vm, va,
                   vf * (isl.yff * vf + isl.yft * vt).conjugate(),
                   vt * (isl.ytf * vf + isl.ytt * vt).conjugate(), slack_p,
                   s_calc.imag[isl.groups] + qd[isl.groups])


def _attempt(net, isl: IslandData, fr, binding):
    """One PV/PQ-switched power-flow solve with the loads of isl served at
    the fractions fr, in their order; returns (PfState, ok).  A solve whose
    inputs isl has solved before is taken from ``isl.solved``."""
    fr = np.asarray(fr, dtype=float)
    target = sum((fr * isl.pd).tolist())
    beta = (0.0 if isl.rng <= 0
            else min(1.0, max(0.0, (target - isl.pmin) / isl.rng)))
    pg = isl.ramp_pmin + beta * isl.ramp_span

    q_fixed: dict[int, float] = {}
    held = np.zeros(len(isl.groups), dtype=bool)  # not to be pinned again
    held[isl.slack_group] = True  # the slack's bus stays PV
    for _ in range(QLIM_ROUNDS):
        # pg follows from fr, so fr and q_fixed are all the solve's inputs
        key = (fr.tobytes(),
               np.array([*q_fixed.items()], dtype=float).tobytes())
        pf = isl.solved.get(key)
        if pf is None:
            pf = isl.solved[key] = newton_pf(isl, pg, fr, q_fixed)
        else:
            isl.reused += 1
        if not pf.converged:
            binding.append("non-convergence")
            return pf, False
        # a PV bus whose reactive output is past a limit is pinned there
        over = pf.q_group > isl.qmax + LIMIT_TOL
        under = pf.q_group < isl.qmin - LIMIT_TOL
        switch = ((over | under) & ~held).nonzero()[0]
        if not switch.size:
            break
        isl.pins += switch.size
        for k in switch.tolist():
            q_fixed[isl.buses[isl.groups[k]]] = (isl.qmax[k] if over[k]
                                                 else isl.qmin[k])
        held[switch] = True

    ok = True
    for k in ((pf.vm < isl.vlo) | (pf.vm > isl.vhi)).nonzero()[0].tolist():
        binding.append(f"voltage bus {isl.buses[k]}")
        ok = False
    # np.abs may differ from abs() in the last bit: the array screen keeps
    # a margin (unrated branches, at inf, never pass it), and abs() on the
    # screened branches decides
    cut = isl.smax * (1.0 - 1e-9)
    screen = (np.abs(pf.s_fr) > cut) | (np.abs(pf.s_to) > cut)
    for k in screen.nonzero()[0].tolist():
        lim = isl.smax[k]
        if abs(pf.s_fr[k].item()) > lim or abs(pf.s_to[k].item()) > lim:
            binding.append(f"thermal branch {isl.branches[k]}")
            ok = False
    slack = net.gens[isl.slack]
    sp = pf.slack_p
    if sp < slack.pmin - LIMIT_TOL or sp > slack.pmax + LIMIT_TOL:
        binding.append(f"p-limit slack gen {isl.slack}")
        ok = False
    k = isl.slack_group
    if over[k] or under[k]:
        binding.append(f"q-limit slack bus {slack.bus}")
        ok = False
    return pf, ok


def max_load_delivery(net: Network, energized: dict[tuple[str, int], bool],
                      prev_fractions: dict[int, float] | None = None,
                      period: int = 0,
                      network: NetworkData | None = None,
                      carry: dict | None = None) -> PeriodDispatch:
    """Largest AC-feasible uniform load scale per energized island.

    Served fraction of load d is max(lambda, floor_d) where floor_d is the
    fraction served in the previous period; islands without generation serve
    nothing (with a warning if that breaks a floor).  An island whose solve
    at its floors fails keeps them, with a warning, even when they are 0.
    network is the validation's ``NetworkData`` for net; without it the
    call builds one.  carry, when given, maps the previous period's
    ``IslandData`` by composition (sorted buses, branches, generators): an
    island met again is taken from it, solves and all, not built again,
    and the call leaves it holding this period's islands.
    """
    network = network or NetworkData.build(net)
    prev = prev_fractions or {}
    status = dict(network.status)
    status.update(energized)
    islands = [sorted(island) for island in
               connected_islands(net, status, network.live)]

    # each energized branch, generator and live load, by island
    at = {b: k for k, island in enumerate(islands) for b in island}
    branches_in: list[list[int]] = [[] for _ in islands]
    gens_in: list[list[int]] = [[] for _ in islands]
    loads_in: list[list[int]] = [[] for _ in islands]
    for i, f, t in network.branch_ends:
        k = at.get(f)
        if k is not None and at.get(t) == k and status[BRANCH, i]:
            branches_in[k].append(i)
    for i, b in network.gen_buses:
        if b in at and status[GEN, i]:
            gens_in[at[b]].append(i)
    for i, b in network.load_buses:
        if b in at:
            loads_in[at[b]].append(i)

    carried = carry if carry is not None else {}
    built: dict[tuple, IslandData] = {}
    results: list[IslandResult] = []
    fractions: dict[int, float] = {}
    warnings = 0
    for island, branches, gens, loads in zip(islands, branches_in, gens_in,
                                             loads_in):
        floors = {lid: min(1.0, max(0.0, prev.get(lid, 0.0))) for lid in loads}
        if not loads:
            results.append(IslandResult(island, 1.0, 0.0, [], False, None))
            continue
        if not gens:
            warn = any(f > 0.0 for f in floors.values())
            warnings += int(warn)
            for lid in loads:
                fractions[lid] = 0.0
            results.append(IslandResult(island, 0.0, 0.0,
                                        ["no generation"], warn, None))
            continue

        lam_floor = min(floors.values())
        binding: list[str] = []
        key = (tuple(island), tuple(branches), tuple(gens))
        isl = built[key] = (carried.get(key)
                            or IslandData.build(net, island, branches, gens,
                                                loads, network))

        def feasible(lam):
            return _attempt(net, isl, [max(lam, floors[lid])
                                       for lid in isl.loads], binding)

        lam = 1.0
        pf, ok = feasible(lam)
        if not ok:  # bisect up from the floor, if the floor is feasible
            lam, hi = lam_floor, 1.0
            pf, ok = feasible(lam)
            while ok and hi - lam > LAMBDA_TOL:
                mid = 0.5 * (lam + hi)
                isl.bisections += 1
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
        results.append(IslandResult(island, lam,
                                    round(served * net.base_mva, 3),
                                    sorted(set(binding)), not ok, pf))

    if carry is not None:
        carry.clear()
        carry.update(built)
    total = round(sum(r.served_mw for r in results), 3)
    return PeriodDispatch(period, results, total, fractions, warnings)


def plan_dispatches(net: Network, status: dict[tuple[str, int], list[int]],
                    periods: int) -> list[tuple[PeriodDispatch, dict[int, float]]]:
    """Maximal AC load delivery in each period 0..periods of a status schedule.

    Each period's served fractions are the next period's floors; returns every
    period's dispatch with the per-load fractions in force after it.  The
    network's ``NetworkData`` is built once and shared by every period, and
    each period's islands are carried into the next, so an island the
    schedule leaves unchanged is built once and no solve on it runs twice.
    Logs what that saved as one DEBUG line.
    """
    network = NetworkData.build(net)
    carry: dict[tuple, IslandData] = {}
    debug = log.isEnabledFor(logging.DEBUG)
    seen: dict[int, IslandData] = {}  # every island built, under DEBUG
    uses = 0
    out = []
    fractions: dict[int, float] = {lid: 0.0 for lid in net.loads}
    for n in range(periods + 1):
        energized = {item: bool(zs[n]) for item, zs in status.items()}
        dispatch = max_load_delivery(net, energized, fractions, period=n,
                                     network=network, carry=carry)
        fractions = dict(fractions)
        fractions.update(dispatch.fractions)
        out.append((dispatch, fractions))
        if debug:
            uses += len(carry)
            seen.update((id(isl), isl) for isl in carry.values())
    if debug:
        isls = seen.values()
        runs = [pf for isl in isls for pf in isl.solved.values()]
        log.debug("plan_dispatches: periods=%d islands_built=%d "
                  "islands_carried=%d newton_run=%d newton_reused=%d "
                  "newton_iters=%d newton_factorizations=%d pv_pq_pins=%d "
                  "bisection_steps=%d", periods + 1, len(seen),
                  uses - len(seen), len(runs),
                  sum(isl.reused for isl in isls),
                  sum(pf.iterations for pf in runs),
                  sum(pf.factorizations for pf in runs),
                  sum(isl.pins for isl in isls),
                  sum(isl.bisections for isl in isls))
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
