"""Per-unit network data model, damage scenarios, and multi-period cases.

All quantities are per-unit on the system MVA base.  Component ids are the
ids from the source case file (bus ids from the bus column, generator and
branch ids from 1-based row order); nothing is renumbered, so plans can be
cross-referenced against the case file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

BUS = "bus"
BRANCH = "branch"
GEN = "gen"

DEFAULT_ANGLE_BOUND = math.radians(30.0)
INDICATOR_TOL = 1e-6  # farthest a solved repair indicator may sit from 0 or 1


class GridError(Exception):
    """Input the network, damage or plan rules reject: exit code 2."""


def indicator(val: float, what: str) -> int:
    """A solved repair indicator as 0 or 1; farther than INDICATOR_TOL from
    both raises ``GridError`` naming what."""
    z = round(val)
    if abs(val - z) > INDICATOR_TOL:
        raise GridError(f"{what}: indicator {val}")
    return z


def counted_periods(periods: int, count_initial_period: bool) -> range:
    """The period states 0..periods that energy totals count: all of them,
    or all but the pre-restoration state 0."""
    return range(0 if count_initial_period else 1, periods + 1)


def ens_mwh(total_load_mw: float, served_mw_by_period, period_hours: float,
            count_initial_period: bool) -> float:
    """Energy not served, in MWh: over the counted periods, the total load
    minus the served power, floored at 0, times the period length."""
    counted = counted_periods(len(served_mw_by_period) - 1,
                              count_initial_period)
    return sum(max(0.0, total_load_mw - served_mw_by_period[n]) * period_hours
               for n in counted)


@dataclass(frozen=True)
class Bus:
    id: int
    bus_type: int  # 1=PQ, 2=PV, 3=slack, 4=isolated
    vmin: float
    vmax: float
    damaged: bool = False

    def check(self):
        if not (0.0 < self.vmin <= self.vmax):
            raise GridError(f"bus {self.id}: bad voltage bounds [{self.vmin}, {self.vmax}]")


@dataclass(frozen=True)
class Branch:
    id: int
    f_bus: int
    t_bus: int
    r: float
    x: float
    b_charge: float  # total line charging susceptance
    rate_a: float  # MVA limit, 0 = unlimited
    tap: float
    shift: float  # radians
    angmin: float  # radians
    angmax: float
    damaged: bool = False
    in_service: bool = True

    def check(self):
        if self.x == 0.0:
            raise GridError(f"branch {self.id}: zero reactance")
        if self.tap <= 0.0:
            raise GridError(f"branch {self.id}: non-positive tap")
        if not self.angmin < self.angmax:
            raise GridError(f"branch {self.id}: empty angle window")


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    pmin: float
    pmax: float
    qmin: float
    qmax: float
    vg: float
    damaged: bool = False
    in_service: bool = True

    def check(self):
        if self.pmin > self.pmax or self.qmin > self.qmax:
            raise GridError(f"gen {self.id}: inverted limits")


@dataclass(frozen=True)
class Load:
    id: int
    bus: int
    pd: float
    qd: float


@dataclass(frozen=True)
class Shunt:
    id: int
    bus: int
    gs: float
    bs: float


class Live(NamedTuple):
    """Sorted ids of a network's live components (``Network.live``)."""

    buses: list[int]
    branches: list[int]
    gens: list[int]
    loads: list[int]
    shunts: list[int]


@dataclass(frozen=True)
class Network:
    base_mva: float
    buses: dict[int, Bus]
    branches: dict[int, Branch]
    gens: dict[int, Generator]
    loads: dict[int, Load]
    shunts: dict[int, Shunt]
    ref_buses: frozenset[int]
    name: str = ""

    def validate(self) -> "Network":
        for b in self.buses.values():
            b.check()
        for br in self.branches.values():
            br.check()
            for end in (br.f_bus, br.t_bus):
                if end not in self.buses:
                    raise GridError(f"branch {br.id} endpoint {end} unknown")
        for g in self.gens.values():
            g.check()
            if g.bus not in self.buses:
                raise GridError(f"gen {g.id} bus {g.bus} unknown")
        for d in self.loads.values():
            if d.bus not in self.buses:
                raise GridError(f"load {d.id} bus {d.bus} unknown")
        for s in self.shunts.values():
            if s.bus not in self.buses:
                raise GridError(f"shunt {s.id} bus {s.bus} unknown")
        if not any(
            b in self.buses and self.buses[b].bus_type != 4 for b in self.ref_buses
        ):
            raise GridError("no energizable reference bus")
        return self

    def total_load(self) -> float:
        return sum(d.pd for d in self.loads.values())

    def component(self, kind: str, cid: int):
        pool = {BUS: self.buses, BRANCH: self.branches, GEN: self.gens}[kind]
        if cid not in pool:
            raise GridError(f"{kind} {cid} not in network")
        return pool[cid]

    def live(self) -> Live:
        """The components every model, plan and validator works on.

        A bus is live unless it is isolated (type 4); a branch, generator,
        load or shunt is live when it is in service and its buses are live.
        Damage on anything else is dropped (``replicate``).
        """
        buses = [b for b in sorted(self.buses) if self.buses[b].bus_type != 4]
        alive = set(buses)
        return Live(
            buses,
            [i for i in sorted(self.branches) if self.branches[i].in_service
             and self.branches[i].f_bus in alive
             and self.branches[i].t_bus in alive],
            [i for i in sorted(self.gens)
             if self.gens[i].in_service and self.gens[i].bus in alive],
            [i for i in sorted(self.loads) if self.loads[i].bus in alive],
            [i for i in sorted(self.shunts) if self.shunts[i].bus in alive])

    def damaged_items(self) -> list[tuple[str, int]]:
        """Live damaged components: buses, then branches, then generators."""
        live = self.live()
        return [(kind, i) for kind, ids, pool in (
                    (BUS, live.buses, self.buses),
                    (BRANCH, live.branches, self.branches),
                    (GEN, live.gens, self.gens))
                for i in ids if pool[i].damaged]


@dataclass(frozen=True)
class DamageScenario:
    damaged: frozenset[tuple[str, int]]

    @staticmethod
    def of(branches=(), gens=(), buses=()) -> "DamageScenario":
        items = {(BRANCH, int(i)) for i in branches}
        items |= {(GEN, int(i)) for i in gens}
        items |= {(BUS, int(i)) for i in buses}
        return DamageScenario(frozenset(items))

    def __len__(self):
        return len(self.damaged)

    def sorted_items(self) -> list[tuple[str, int]]:
        return sorted(self.damaged)

    def ids(self, kind: str) -> list[int]:
        return sorted(i for k, i in self.damaged if k == kind)

    def resolve(self, net: Network):
        for kind, cid in self.damaged:
            net.component(kind, cid)


@dataclass(frozen=True)
class MultiPeriodCase:
    base: Network
    periods: int  # K restoration periods; states are 0..K
    repairs_per_period: int
    period_hours: float
    damage: DamageScenario

    def damaged_items(self) -> list[tuple[str, int]]:
        return self.damage.sorted_items()

    def total_load_mw(self) -> float:
        """The load that shed is measured against: every load, live or not."""
        return self.base.total_load() * self.base.base_mva


@dataclass
class RestorationPlan:
    """Per-period component statuses and served-load fractions.

    status[(kind, id)] is a list of K+1 indicator values (0/1), one per
    period state; load_fraction[load_id] likewise in [0, 1].
    objective_value is the model's estimated served energy in MWh.
    """

    periods: int
    period_hours: float
    status: dict[tuple[str, int], list[int]]
    load_fraction: dict[int, list[float]]
    objective_value: float
    formulation: str

    def validate(self, case: MultiPeriodCase):
        """Check the plan against its invariants on case.

        The period count and length are the case's, every damaged item has
        a status, and every status names a bus, branch or generator of the
        case's network.
        Each status is K+1 values of 0 or 1 that never decrease, from 0 to 1
        for a damaged item; no period repairs more than the budget; load
        fractions cover exactly the live loads, lie in [0, 1] (so none is
        NaN) and never decrease.
        """
        k = self.periods
        if k != case.periods:
            raise GridError(f"plan has {k} periods, case {case.periods}")
        if self.period_hours != case.period_hours:
            raise GridError(f"plan has {self.period_hours} h periods, "
                                   f"case {case.period_hours} h")
        for item in case.damaged_items():
            if item not in self.status:
                raise GridError(f"plan misses damaged component {item}")
        loads, live_loads = sorted(self.load_fraction), case.base.live().loads
        if loads != live_loads:
            raise GridError(f"plan lists loads {loads}, the case's "
                                   f"live loads are {live_loads}")
        for (kind, cid), zs in sorted(self.status.items()):
            if kind not in (BUS, BRANCH, GEN):
                raise GridError(f"plan status of {kind} {cid}: {kind!r} is "
                                "not bus, branch or gen")
            case.base.component(kind, cid)
            if len(zs) != k + 1:
                raise GridError(f"{kind} {cid}: wrong status length")
            if any(z not in (0, 1) for z in zs):
                raise GridError(f"{kind} {cid}: status {zs} is not 0/1")
            if zs != sorted(zs):
                raise GridError(f"{kind} {cid}: status not monotone")
            if (kind, cid) in case.damage.damaged:
                if zs[0] != 0:
                    raise GridError(f"{kind} {cid}: damaged but energized at period 0")
                if zs[-1] != 1:
                    raise GridError(f"{kind} {cid}: not restored by final period")
        for n in range(1, k + 1):
            newly = sum(self.status[item][n] - self.status[item][n - 1]
                        for item in case.damage.damaged)
            if newly > case.repairs_per_period:
                raise GridError(f"period {n}: {newly} repairs exceed budget")
        for lid, fr in sorted(self.load_fraction.items()):
            if len(fr) != k + 1:
                raise GridError(f"load {lid}: wrong fraction length")
            if any(b < a - 1e-7 for a, b in zip(fr, fr[1:])):
                raise GridError(f"load {lid}: served fraction decreases")
            if not all(-1e-9 <= f <= 1.0 + 1e-9 for f in fr):  # NaN fails
                raise GridError(f"load {lid}: fraction outside [0,1]")
        return self


@dataclass(frozen=True)
class PeriodEns:
    period: int
    served_mw: float
    shed_mw: float
    ens_mwh: float


@dataclass
class EnsReport:
    """Per-period served/shed power and the resulting energy not served.

    true_ens_mwh comes from the AC redispatch; estimated_ens_mwh from the
    optimization objective.  When count_initial_period is False the totals
    skip period 0 (the pre-restoration state); rows always list it.
    validation_warnings counts, period by period, the energized islands
    that cannot serve their loads at their floors (the fractions served
    before): one without generation whose loads had service, or one with
    generation whose AC solve at the floor fails, even at a zero floor.
    Each keeps its floors (``acvalidate.max_load_delivery``).
    served_mw_total and shed_mw_total (filled by ``from_served``) sum the
    counted periods unrounded and are rounded once, like true_ens_mwh.
    """

    period_hours: float
    count_initial_period: bool
    rows: list[PeriodEns]
    estimated_ens_mwh: float
    true_ens_mwh: float
    validation_warnings: int = 0
    served_mw_total: float = 0.0
    shed_mw_total: float = 0.0

    def __post_init__(self):
        if not self.rows:
            raise GridError("report needs at least one period")
        for n, row in enumerate(self.rows):
            if row.period != n:
                raise GridError("report periods must be contiguous from 0")

    @staticmethod
    def from_served(total_load_mw, served_mw_by_period, period_hours,
                    count_initial_period, estimated_ens_mwh,
                    validation_warnings=0) -> "EnsReport":
        """Per-period rows, and totals over the counted periods that are
        summed unrounded and rounded once; shed totals follow ``ens_mwh``."""
        rows = []
        for n, served in enumerate(served_mw_by_period):
            shed = max(0.0, total_load_mw - served)
            rows.append(PeriodEns(n, round(served, 3), round(shed, 3),
                                  round(shed * period_hours, 3)))
        counted = counted_periods(len(rows) - 1, count_initial_period)

        def shed_total(hours):
            return round(ens_mwh(total_load_mw, served_mw_by_period, hours,
                                 count_initial_period), 3)

        served_total = sum(served_mw_by_period[n] for n in counted)
        return EnsReport(period_hours, count_initial_period, rows,
                         round(estimated_ens_mwh, 3), shed_total(period_hours),
                         validation_warnings, round(served_total, 3),
                         shed_total(1.0))


def apply_damage(net: Network, dmg: DamageScenario) -> Network:
    """Flag scenario components as damaged; idempotent."""
    dmg.resolve(net)
    buses = dict(net.buses)
    branches = dict(net.branches)
    gens = dict(net.gens)
    for kind, cid in dmg.damaged:
        if kind == BUS:
            buses[cid] = replace(buses[cid], damaged=True)
        elif kind == BRANCH:
            branches[cid] = replace(branches[cid], damaged=True)
        else:
            gens[cid] = replace(gens[cid], damaged=True)
    return replace(net, buses=buses, branches=branches, gens=gens)


def replicate(net: Network, dmg: DamageScenario, periods: int,
              period_hours: float = 1.0) -> MultiPeriodCase:
    """Build a K-period restoration case with the minimal uniform budget.

    Damage on components that are not live (``Network.live``) is dropped
    first: it never enters the case, its budget or its plans.
    """
    base = apply_damage(net, dmg)  # resolves every id
    dmg = DamageScenario(dmg.damaged & set(base.damaged_items()))
    if len(dmg) == 0:
        return MultiPeriodCase(base, 0, 0, period_hours, dmg)
    if periods < 1:
        raise GridError("periods must be >= 1")
    budget = -(-len(dmg) // periods)  # ceil
    return MultiPeriodCase(base, periods, budget, period_hours, dmg)


def update_status(net: Network,
                  indicators: dict[tuple[str, int], float]) -> Network:
    """Fold repair-choice indicators back into the network.

    Components with indicator ~1 become undamaged (selected for repair);
    components with indicator ~0 are taken out of service so later models
    ignore them.  Indicators farther than INDICATOR_TOL from {0, 1} are
    rejected.
    """
    buses = dict(net.buses)
    branches = dict(net.branches)
    gens = dict(net.gens)
    for (kind, cid), val in sorted(indicators.items()):
        z = indicator(val, f"{kind} {cid}")
        net.component(kind, cid)
        if kind == BUS:
            # an unchosen bus becomes isolated (type 4), a chosen one is whole
            buses[cid] = replace(buses[cid], damaged=False,
                                 bus_type=buses[cid].bus_type if z else 4)
        elif kind == BRANCH:
            branches[cid] = replace(branches[cid], damaged=False,
                                    in_service=bool(z))
        else:
            gens[cid] = replace(gens[cid], damaged=False, in_service=bool(z))
    return replace(net, buses=buses, branches=branches, gens=gens)


def connected_islands(net: Network,
                      energized: dict[tuple[str, int], bool],
                      live: Live | None = None) -> list[set[int]]:
    """Partition energized buses by connectivity over energized branches.

    Only live components (``Network.live``, or live when given) take part;
    the status map must cover every live branch.  Islands are returned
    ordered by their minimum bus id.
    """
    live = live or net.live()
    alive = [b for b in live.buses if energized.get((BUS, b), True)]
    parent = {b: b for b in alive}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for br_id in live.branches:
        if not energized.get((BRANCH, br_id), False):
            continue
        br = net.branches[br_id]
        if br.f_bus in parent and br.t_bus in parent:
            ra, rb = find(br.f_bus), find(br.t_bus)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, set[int]] = {}
    for b in alive:
        groups.setdefault(find(b), set()).add(b)
    return [groups[r] for r in sorted(groups)]
