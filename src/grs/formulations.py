"""Compile repair-set (MRSP) and repair-order (ROP) instances to MIP models.

Two power-flow formulations are supported:

* ``dc`` -- active-power-only linear model: bus angles, branch flow law
  p_fr = b' (va_f - va_t - shift) with b' = 1/(x tap), switched on/off for
  damaged branches through big-M rows.  Each branch has one flow column,
  p_fr; the lossless to-end flow -p_fr enters the balance rows directly, and
  the reference bus angle is fixed at 0 by its column bounds.
* ``soc`` -- the W-space second-order-cone relaxation: squared voltage
  magnitudes W_ii per bus, per-branch voltage products (wr, wi) tied by the
  rotated cone wr^2 + wi^2 <= wfr * wto, with on/off handled by big-M boxes
  on the branch-side W copies.  Thermal limits become cone rows
  p^2 + q^2 <= s*s with s <= rate * z.

Damaged components carry one binary indicator per period; undamaged
components are compiled as constants (indicator fixed to one), so model
size is an exact function of component and damage counts.  The
restoration-order model replicates the period model K+1 times and links
periods with energization monotonicity, a repair cardinality budget, and
non-decreasing served-load fractions; period 0 is pinned fully damaged and
period K fully restored through variable bounds.

Columns and rows are labelled ``name[cid]@n`` (``var_name``).  Column
labels name the columns of the LP dump (``--dump-lp``, whose rows are
``r<k>``) and let callers look a column up with ``MipModel.var_index``;
only tests read the row labels.  The builder itself finds its columns in a
table keyed by (name, cid, n), and builds each bus's balance row from per-bus
incidence lists, so a build is linear in the network size per period.
"""

from __future__ import annotations

import math

from .grid import (BRANCH, BUS, GEN, Branch, GridError, MultiPeriodCase,
                   Network, RestorationPlan, ens_mwh, indicator)
from .mip import BINARY, CONTINUOUS, EQ, GE, LE, MipModel, MipSolution

VA_BOUND = 0.5236  # rad; default bus-angle box, span = 2 * VA_BOUND
VA_SPAN = 2 * VA_BOUND

DC = "dc"
SOC = "soc"


def var_name(name: str, cid: int | str, n: int) -> str:
    """The label ``name[cid]@n`` of a period-n column or row."""
    return f"{name}[{cid}]@{n}"


def dc_susceptance(br: Branch) -> float:
    return 1.0 / (br.x * br.tap)


def bigM_for_branch(br: Branch) -> float:
    """Activation constant for the on/off DC flow law.

    The largest the flow-law expression can get while the branch is off is
    |b'| times the reachable angle spread (plus the fixed shift), which is
    the minimal valid constant given the angle boxes.
    """
    return abs(dc_susceptance(br)) * (VA_SPAN + abs(br.shift))


def dc_flow_cap(br: Branch) -> float:
    """Tightest valid bound on |p_fr| under the DC law and angle boxes."""
    cap = bigM_for_branch(br)
    if br.rate_a > 0.0:
        cap = min(cap, br.rate_a)
    return cap


def _complex_admittance(br: Branch) -> tuple[float, float]:
    denom = br.r * br.r + br.x * br.x
    return br.r / denom, -br.x / denom


def soc_flow_cap(br: Branch, vmax_f: float, vmax_t: float) -> float:
    """Valid bound on apparent-power flow magnitude at either branch end."""
    g, b = _complex_admittance(br)
    ymag = math.hypot(g, b)
    imax = ymag * (vmax_f / br.tap + vmax_t) + abs(br.b_charge) / 2.0 * vmax_f
    cap = max(vmax_f, vmax_t) * imax
    if br.rate_a > 0.0:
        cap = min(cap, br.rate_a * math.sqrt(2.0))
    return cap


class _Builder:
    def __init__(self, net: Network, formulation: str, rop: bool,
                 periods: int, damaged: list[tuple[str, int]]):
        if formulation not in (DC, SOC):
            raise GridError(f"unknown formulation {formulation!r}")
        if not any(net.buses[b].bus_type == 3 for b in net.buses):
            raise GridError("network has no reference bus")
        self.net = net
        self.soc = formulation == SOC
        self.rop = rop
        self.K = periods
        self.live = live = net.live()
        self.damaged = damaged  # live items only, in the caller's order
        self.dmg_set = set(damaged)
        self.m = MipModel()
        self.ix: dict[tuple[str, int, int], int] = {}
        # per bus, in id order: gens, branch ends (id, "fr"/"to"), loads,
        # shunts
        self.inc = {b: ([], [], [], []) for b in live.buses}
        for gid in live.gens:
            self.inc[net.gens[gid].bus][0].append(gid)
        for bid in live.branches:
            br = net.branches[bid]
            self.inc[br.f_bus][1].append((bid, "fr"))
            self.inc[br.t_bus][1].append((bid, "to"))
        for lid in live.loads:
            self.inc[net.loads[lid].bus][2].append(lid)
        for sid in live.shunts:
            self.inc[net.shunts[sid].bus][3].append(sid)

    def var(self, name: str, cid: int, n: int, lb: float, ub: float,
            integrality: str = CONTINUOUS):
        self.ix[name, cid, n] = self.m.add_var(var_name(name, cid, n), lb, ub,
                                               integrality)

    def row(self, coeffs: dict[int, float], sense: str, rhs: float,
            name: str, cid: int | str, n: int):
        self.m.add_row(coeffs, sense, rhs, var_name(name, cid, n))

    def z(self, kind: str, cid: int, n: int) -> int | None:
        """Indicator column of a damaged component, None if fixed to 1."""
        return self.ix.get(("z_" + kind, cid, n))

    # -- columns ------------------------------------------------------------

    def _period_vars(self, n: int):
        net = self.net
        for kind, cid in self.damaged:
            lb, ub = 0.0, 1.0
            if self.rop and n == 0:
                lb = ub = 0.0  # initial state: damaged means off
            elif self.rop and n == self.K:
                lb = ub = 1.0  # everything restored by the final period
            self.var("z_" + kind, cid, n, lb, ub, BINARY)
        for b in self.live.buses:
            bus = net.buses[b]
            if self.soc:
                lo = 0.0 if (BUS, b) in self.dmg_set else bus.vmin ** 2
                self.var("w", b, n, lo, bus.vmax ** 2)
            elif bus.bus_type == 3:  # reference angle pinned by its bounds
                self.var("va", b, n, 0.0, 0.0)
            else:
                self.var("va", b, n, -VA_BOUND, VA_BOUND)
        for gid in self.live.gens:
            g = net.gens[gid]
            outputs = [("pg", g.pmin, g.pmax)]
            if self.soc:
                outputs.append(("qg", g.qmin, g.qmax))
            for name, lo, hi in outputs:
                if (GEN, gid) in self.dmg_set:  # off means zero output
                    lo, hi = min(lo, 0.0), max(hi, 0.0)
                self.var(name, gid, n, lo, hi)
        for bid in self.live.branches:
            br = net.branches[bid]
            if not self.soc:
                cap = dc_flow_cap(br)
                self.var("p_fr", bid, n, -cap, cap)  # p_to is -p_fr
                continue
            f, t = net.buses[br.f_bus], net.buses[br.t_bus]
            wcap = f.vmax * t.vmax
            scap = soc_flow_cap(br, f.vmax, t.vmax)
            self.var("wr", bid, n, -wcap, wcap)
            self.var("wi", bid, n, -wcap, wcap)
            if (BRANCH, bid) in self.dmg_set:
                self.var("wfr", bid, n, 0.0, f.vmax ** 2)
                self.var("wto", bid, n, 0.0, t.vmax ** 2)
            for side in ("fr", "to"):
                self.var("p_" + side, bid, n, -scap, scap)
                self.var("q_" + side, bid, n, -scap, scap)
            if br.rate_a > 0.0:
                self.var("s_fr", bid, n, 0.0, br.rate_a)
                self.var("s_to", bid, n, 0.0, br.rate_a)
        if self.rop:
            for lid in self.live.loads:
                self.var("zd", lid, n, 0.0, 1.0)
            for sid in self.live.shunts:
                self.var("zs", sid, n, 0.0, 1.0)
            if self.soc:
                for sid in self.live.shunts:
                    bus = net.buses[net.shunts[sid].bus]
                    self.var("ws", sid, n, 0.0, bus.vmax ** 2)

    # -- DC rows ------------------------------------------------------------

    def _dc_rows(self, n: int):
        net, ix = self.net, self.ix
        for bid in self.live.branches:
            br = net.branches[bid]
            bp = dc_susceptance(br)
            p_fr = ix["p_fr", bid, n]
            va_f, va_t = ix["va", br.f_bus, n], ix["va", br.t_bus, n]
            law = {p_fr: 1.0, va_f: -bp, va_t: bp}
            rhs = -bp * br.shift
            spread = {va_f: 1.0, va_t: -1.0}
            zbr = self.z(BRANCH, bid, n)
            if zbr is None:
                self.row(law, EQ, rhs, "flow_law", bid, n)
                self.row(spread, LE, br.angmax, "angle_ub", bid, n)
                self.row(spread, GE, br.angmin, "angle_lb", bid, n)
                continue
            mp, cap = bigM_for_branch(br), dc_flow_cap(br)
            self.row({**law, zbr: mp}, LE, rhs + mp, "flow_law_ub", bid, n)
            self.row({**law, zbr: -mp}, GE, rhs - mp, "flow_law_lb", bid, n)
            self.row({p_fr: 1.0, zbr: -cap}, LE, 0.0, "thermal_ub", bid, n)
            self.row({p_fr: 1.0, zbr: cap}, GE, 0.0, "thermal_lb", bid, n)
            self.row({**spread, zbr: VA_SPAN - br.angmax}, LE, VA_SPAN,
                     "angle_ub", bid, n)
            self.row({**spread, zbr: -(br.angmin + VA_SPAN)}, GE, -VA_SPAN,
                     "angle_lb", bid, n)

    # -- SOC rows -----------------------------------------------------------

    def _soc_rows(self, n: int):
        net, ix = self.net, self.ix
        for bid in self.live.branches:
            br = net.branches[bid]
            g, b = _complex_admittance(br)
            tau = br.tap
            c, s = math.cos(br.shift), math.sin(br.shift)
            bc2 = br.b_charge / 2.0
            fb, tb = net.buses[br.f_bus], net.buses[br.t_bus]
            wr, wi = ix["wr", bid, n], ix["wi", bid, n]
            # branch-side squared voltages: W itself unless damaged
            wfr = ix.get(("wfr", bid, n), ix["w", br.f_bus, n])
            wto = ix.get(("wto", bid, n), ix["w", br.t_bus, n])
            p_fr, q_fr = ix["p_fr", bid, n], ix["q_fr", bid, n]
            p_to, q_to = ix["p_to", bid, n], ix["q_to", bid, n]

            # flow laws in W space (exact once the side copies collapse)
            self.row({p_fr: 1.0, wfr: -g / tau ** 2,
                      wr: (g * c - b * s) / tau,
                      wi: (g * s + b * c) / tau}, EQ, 0.0,
                     "flow_law_p_fr", bid, n)
            self.row({q_fr: 1.0, wfr: (b + bc2) / tau ** 2,
                      wr: -(g * s + b * c) / tau,
                      wi: (g * c - b * s) / tau}, EQ, 0.0,
                     "flow_law_q_fr", bid, n)
            self.row({p_to: 1.0, wto: -g,
                      wr: (g * c + b * s) / tau,
                      wi: (g * s - b * c) / tau}, EQ, 0.0,
                     "flow_law_p_to", bid, n)
            self.row({q_to: 1.0, wto: (b + bc2),
                      wr: (g * s - b * c) / tau,
                      wi: -(g * c + b * s) / tau}, EQ, 0.0,
                     "flow_law_q_to", bid, n)

            self.row({wi: 1.0, wr: -math.tan(br.angmax)}, LE, 0.0,
                     "angle_ub", bid, n)
            self.row({wi: 1.0, wr: -math.tan(br.angmin)}, GE, 0.0,
                     "angle_lb", bid, n)
            self.m.add_cone(wr, wi, wfr, wto, var_name("jabr", bid, n))

            zbr = self.z(BRANCH, bid, n)
            if zbr is not None:
                wcap = fb.vmax * tb.vmax
                for col in (wr, wi):
                    self.row({col: 1.0, zbr: -wcap}, LE, 0.0, "w_box_ub", col, n)
                    self.row({col: 1.0, zbr: wcap}, GE, 0.0, "w_box_lb", col, n)
                for side, wsd, bus in (("fr", wfr, fb), ("to", wto, tb)):
                    wb = ix["w", bus.id, n]
                    self.row({wsd: 1.0, zbr: -bus.vmax ** 2}, LE, 0.0,
                             f"w_{side}_on", bid, n)
                    self.row({wsd: 1.0, wb: -1.0, zbr: -bus.vmin ** 2},
                             LE, -bus.vmin ** 2, f"w_{side}_link_ub", bid, n)
                    self.row({wsd: 1.0, wb: -1.0, zbr: -bus.vmax ** 2},
                             GE, -bus.vmax ** 2, f"w_{side}_link_lb", bid, n)

            if br.rate_a > 0.0:
                s_fr, s_to = ix["s_fr", bid, n], ix["s_to", bid, n]
                self.m.add_cone(p_fr, q_fr, s_fr, s_fr,
                                var_name("thermal_fr", bid, n))
                self.m.add_cone(p_to, q_to, s_to, s_to,
                                var_name("thermal_to", bid, n))
                if zbr is not None:
                    self.row({s_fr: 1.0, zbr: -br.rate_a}, LE, 0.0,
                             "thermal_on_fr", bid, n)
                    self.row({s_to: 1.0, zbr: -br.rate_a}, LE, 0.0,
                             "thermal_on_to", bid, n)

        for b in self.live.buses:
            zb = self.z(BUS, b, n)
            if zb is not None:
                bus = net.buses[b]
                w = ix["w", b, n]
                self.row({w: 1.0, zb: -bus.vmax ** 2}, LE, 0.0, "w_on_ub", b, n)
                self.row({w: 1.0, zb: -bus.vmin ** 2}, GE, 0.0, "w_on_lb", b, n)

    # -- rows of both formulations ------------------------------------------

    def _gen_rows(self, n: int):
        for gid in self.live.gens:
            zg = self.z(GEN, gid, n)
            if zg is None:
                continue
            g = self.net.gens[gid]
            pg = self.ix["pg", gid, n]
            self.row({pg: 1.0, zg: -g.pmax}, LE, 0.0, "gen_on_p_ub", gid, n)
            self.row({pg: 1.0, zg: -g.pmin}, GE, 0.0, "gen_on_p_lb", gid, n)
            zb = self.z(BUS, g.bus, n)
            if zb is not None:
                self.row({zg: 1.0, zb: -1.0}, LE, 0.0, "gen_needs_bus", gid, n)
            if self.soc:
                qg = self.ix["qg", gid, n]
                self.row({qg: 1.0, zg: -g.qmax}, LE, 0.0, "gen_on_q_ub", gid, n)
                self.row({qg: 1.0, zg: -g.qmin}, GE, 0.0, "gen_on_q_lb", gid, n)

    def _branch_dependency_rows(self, n: int):
        for bid in self.live.branches:
            zbr = self.z(BRANCH, bid, n)
            if zbr is None:
                continue
            br = self.net.branches[bid]
            for end in (br.f_bus, br.t_bus):
                zb = self.z(BUS, end, n)
                if zb is not None:
                    self.row({zbr: 1.0, zb: -1.0}, LE, 0.0,
                             "branch_needs_bus", f"{bid},{end}", n)

    def _shunt_envelope_rows(self, n: int):
        """SOC ordering model: McCormick envelope of ws = zs * w."""
        ix = self.ix
        for sid in self.live.shunts:
            bus = self.net.buses[self.net.shunts[sid].bus]
            lo, hi = bus.vmin ** 2, bus.vmax ** 2
            ws, zs, w = ix["ws", sid, n], ix["zs", sid, n], ix["w", bus.id, n]
            self.row({ws: 1.0, zs: -lo}, GE, 0.0, "ws_a", sid, n)
            self.row({ws: 1.0, zs: -hi, w: -1.0}, GE, -hi, "ws_b", sid, n)
            self.row({ws: 1.0, zs: -hi}, LE, 0.0, "ws_c", sid, n)
            self.row({ws: 1.0, w: -1.0, zs: -lo}, LE, -lo, "ws_d", sid, n)

    def _balance_rows(self, n: int):
        """Power balance at each bus (P; Q too under SOC) from its incidence."""
        net, ix, soc = self.net, self.ix, self.soc
        for b in self.live.buses:
            gens, ends, loads, shunts = self.inc[b]
            p: dict[int, float] = {}
            q: dict[int, float] = {}
            p_rhs = q_rhs = 0.0
            for gid in gens:
                p[ix["pg", gid, n]] = 1.0
                if soc:
                    q[ix["qg", gid, n]] = 1.0
            for bid, side in ends:
                if soc:
                    p[ix["p_" + side, bid, n]] = -1.0
                    q[ix["q_" + side, bid, n]] = -1.0
                else:  # lossless: the to-end withdraws p_to = -p_fr
                    col = ix["p_fr", bid, n]
                    p[col] = p.get(col, 0.0) + (-1.0 if side == "fr" else 1.0)
            for lid in loads:
                ld = net.loads[lid]
                if not self.rop:
                    p_rhs += ld.pd
                    q_rhs += ld.qd
                elif soc:  # +0.0 for a zero load, -0.0 under DC; both pinned
                    zd = ix["zd", lid, n]
                    p[zd], q[zd] = 0.0 - ld.pd, 0.0 - ld.qd
                else:
                    p[ix["zd", lid, n]] = -ld.pd
            for sid in shunts:
                sh = net.shunts[sid]
                if soc:  # shunt power scales with W: ws, or w itself
                    col = ix["ws", sid, n] if self.rop else ix["w", b, n]
                    p[col] = p.get(col, 0.0) - sh.gs
                    q[col] = q.get(col, 0.0) + sh.bs
                elif self.rop:
                    p[ix["zs", sid, n]] = -sh.gs
                else:
                    p_rhs += sh.gs
            self.row(p, EQ, p_rhs, "balance_p", b, n)
            if soc:
                self.row(q, EQ, q_rhs, "balance_q", b, n)

    def _cardinality_row(self, n: int, budget: int):
        coeffs: dict[int, float] = {}
        for kind, cid in self.damaged:
            coeffs[self.z(kind, cid, n)] = 1.0
            coeffs[self.z(kind, cid, n - 1)] = -1.0
        if coeffs:
            self.m.add_row(coeffs, LE, budget, f"repair_budget@{n}")

    def _intertemporal_rows(self):
        for n in range(1, self.K + 1):
            for kind, cid in self.damaged:
                self.row({self.z(kind, cid, n): 1.0,
                          self.z(kind, cid, n - 1): -1.0},
                         GE, 0.0, "energized_" + kind, cid, n)
            for lid in self.live.loads:
                self.row({self.ix["zd", lid, n]: 1.0,
                          self.ix["zd", lid, n - 1]: -1.0},
                         GE, 0.0, "load_increasing", lid, n)

    # -- assembly -----------------------------------------------------------

    def build(self, budget: int | None = None) -> MipModel:
        for n in range(self.K + 1):
            self._period_vars(n)
        for n in range(self.K + 1):
            (self._soc_rows if self.soc else self._dc_rows)(n)
            self._gen_rows(n)
            self._branch_dependency_rows(n)
            if self.soc and self.rop:
                self._shunt_envelope_rows(n)
            self._balance_rows(n)
            if self.rop and n >= 1:
                self._cardinality_row(n, budget)
        if self.rop:
            self._intertemporal_rows()
            self.m.set_objective("max", {
                self.ix["zd", lid, n]: self.net.loads[lid].pd
                for n in range(self.K + 1) for lid in self.live.loads})
        else:
            self.m.set_objective("min", {
                self.z(kind, cid, 0): 1.0 for kind, cid in self.damaged})
        return self.m


def build_mrsp(net: Network, formulation: str = DC) -> MipModel:
    """Smallest-repair-set model: serve the full load, minimize repairs."""
    damaged = net.damaged_items()
    return _Builder(net, formulation, rop=False, periods=0,
                    damaged=damaged).build()


def build_rop(case: MultiPeriodCase, formulation: str = DC) -> MipModel:
    """Repair-ordering model over period states 0..K."""
    return _Builder(case.base, formulation, rop=True, periods=case.periods,
                    damaged=case.damaged_items()).build(case.repairs_per_period)


def mrsp_set(net: Network, model: MipModel,
             sol: MipSolution) -> dict[tuple[str, int], float]:
    """Indicator values of the damaged components in an MRSP solution."""
    out = {}
    for kind, cid in net.damaged_items():
        col = model.var_index(var_name("z_" + kind, cid, 0))
        out[(kind, cid)] = float(sol.values[col])
    return out


def decode_plan(case: MultiPeriodCase, model: MipModel, sol: MipSolution,
                formulation: str) -> RestorationPlan:
    """Turn an ROP solution into a validated restoration plan."""
    def values(name, cid):
        return [float(sol.values[model.var_index(var_name(name, cid, n))])
                for n in range(case.periods + 1)]

    status: dict[tuple[str, int], list[int]] = {}
    for kind, cid in case.damaged_items():
        status[(kind, cid)] = [indicator(v, f"{kind} {cid}@{n}")
                               for n, v in enumerate(values("z_" + kind, cid))]
    fractions = {lid: [min(1.0, max(0.0, v)) for v in values("zd", lid)]
                 for lid in case.base.live().loads}
    objective_mwh = sol.objective * case.base.base_mva * case.period_hours
    plan = RestorationPlan(
        periods=case.periods, period_hours=case.period_hours, status=status,
        load_fraction=fractions, objective_value=objective_mwh,
        formulation=formulation,
    )
    return plan.validate(case)


def estimated_ens_mwh(case: MultiPeriodCase, plan: RestorationPlan,
                      count_initial_period: bool = True) -> float:
    """Model-side energy not served over the horizon, in MWh: ``ens_mwh``
    of the power the plan's load fractions claim to serve."""
    net = case.base
    loads = net.live().loads
    served = [sum(plan.load_fraction[lid][n] * net.loads[lid].pd
                  for lid in loads) * net.base_mva
              for n in range(case.periods + 1)]
    return ens_mwh(case.total_load_mw(), served, case.period_hours,
                   count_initial_period)
