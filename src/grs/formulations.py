"""Compile repair-set (MRSP) and repair-order (ROP) instances to MIP models.

Two power-flow formulations are supported:

* ``dc`` -- active-power-only linear model: bus angles, branch flow law
  p_fr = b' (va_f - va_t - shift) with b' = 1/(x tap), switched on/off for
  damaged branches through big-M rows.
* ``soc`` -- the W-space second-order-cone relaxation: squared voltage
  magnitudes W_ii per bus, per-branch voltage products (wr, wi) tied by the
  rotated cone wr^2 + wi^2 <= wfr * wto, with on/off handled by big-M boxes
  on the branch-side W copies.  Thermal limits become cone rows
  p^2 + q^2 <= s*s with s <= rate * z.

Damaged components carry one binary indicator per period; undamaged
components are compiled as constants (indicator fixed to one), so model
size is an exact function of component and damage counts (see
``model_size``).  The restoration-order model replicates the period model
K+1 times and links periods with energization monotonicity, a repair
cardinality budget, and non-decreasing served-load fractions; period 0 is
pinned fully damaged and period K fully restored through variable bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import (BRANCH, BUS, GEN, Branch, GridError, MultiPeriodCase,
                   Network, NoRefBus, NonIntegralIndicator, RestorationPlan)
from .mip import BINARY, EQ, GE, LE, MipModel, MipSolution

VA_BOUND = 0.5236  # rad; default bus-angle box, span = 2 * VA_BOUND
VA_SPAN = 2 * VA_BOUND

DC = "dc"
SOC = "soc"


class FormulationError(GridError):
    pass


def dc_susceptance(br: Branch) -> float:
    return 1.0 / (br.x * br.tap)


def bigM_for_branch(br: Branch, va_span: float = VA_SPAN) -> float:
    """Activation constant for the on/off DC flow law.

    The largest the flow-law expression can get while the branch is off is
    |b'| times the reachable angle spread (plus the fixed shift), which is
    the minimal valid constant given the angle boxes.
    """
    return abs(dc_susceptance(br)) * (va_span + abs(br.shift))


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


@dataclass
class _Parts:
    """Deterministically ordered active component views of one network."""

    buses: list[int]
    branches: list[int]
    gens: list[int]
    loads: list[int]
    shunts: list[int]
    damaged: list[tuple[str, int]]

    @staticmethod
    def of(net: Network, damaged: list[tuple[str, int]]) -> "_Parts":
        alive = {b for b in net.buses if net.buses[b].bus_type != 4}
        branches = [
            i for i in sorted(net.branches)
            if net.branches[i].in_service
            and net.branches[i].f_bus in alive and net.branches[i].t_bus in alive
        ]
        gens = [i for i in sorted(net.gens)
                if net.gens[i].in_service and net.gens[i].bus in alive]
        loads = [i for i in sorted(net.loads) if net.loads[i].bus in alive]
        shunts = [i for i in sorted(net.shunts) if net.shunts[i].bus in alive]
        keep = set(branches), set(gens)
        dmg = [
            (k, i) for k, i in damaged
            if (k == BUS and i in alive) or (k == BRANCH and i in keep[0])
            or (k == GEN and i in keep[1])
        ]
        return _Parts(sorted(alive), branches, gens, loads, shunts, dmg)


class _Builder:
    def __init__(self, net: Network, formulation: str, rop: bool,
                 periods: int, damaged: list[tuple[str, int]]):
        if formulation not in (DC, SOC):
            raise FormulationError(f"unknown formulation {formulation!r}")
        if not any(net.buses[b].bus_type == 3 for b in net.buses):
            raise NoRefBus("network has no reference bus")
        self.net = net
        self.form = formulation
        self.rop = rop
        self.K = periods
        self.parts = _Parts.of(net, damaged)
        self.dmg_set = set(self.parts.damaged)
        self.m = MipModel()

    # -- variable helpers -------------------------------------------------

    def z(self, kind: str, cid: int, n: int) -> int | None:
        """Indicator var index for a damaged component, None if fixed to 1."""
        if (kind, cid) not in self.dmg_set:
            return None
        return self.m.var_index(f"z_{kind}[{cid}]@{n}")

    def _add_z_vars(self, n: int):
        for kind, cid in self.parts.damaged:
            lb, ub = 0.0, 1.0
            if self.rop:
                if n == 0:
                    lb = ub = 0.0  # initial state: damaged means off
                elif n == self.K:
                    lb = ub = 1.0  # everything restored by the final period
            self.m.add_var(f"z_{kind}[{cid}]@{n}", lb, ub, BINARY)

    # -- shared period pieces ---------------------------------------------

    def _add_load_shed_vars(self, n: int):
        for lid in self.parts.loads:
            self.m.add_var(f"zd[{lid}]@{n}", 0.0, 1.0)
        for sid in self.parts.shunts:
            self.m.add_var(f"zs[{sid}]@{n}", 0.0, 1.0)

    def _gen_rows(self, n: int):
        for gid in self.parts.gens:
            g = self.net.gens[gid]
            zg = self.z(GEN, gid, n)
            pg = self.m.var_index(f"pg[{gid}]@{n}")
            if zg is not None:
                self.m.add_row({pg: 1.0, zg: -g.pmax}, LE, 0.0,
                               f"gen_on_p_ub[{gid}]@{n}")
                self.m.add_row({pg: 1.0, zg: -g.pmin}, GE, 0.0,
                               f"gen_on_p_lb[{gid}]@{n}")
                zb = self.z(BUS, g.bus, n)
                if zb is not None:
                    self.m.add_row({zg: 1.0, zb: -1.0}, LE, 0.0,
                                   f"gen_needs_bus[{gid}]@{n}")
            if self.form == SOC:
                qg = self.m.var_index(f"qg[{gid}]@{n}")
                if zg is not None:
                    self.m.add_row({qg: 1.0, zg: -g.qmax}, LE, 0.0,
                                   f"gen_on_q_ub[{gid}]@{n}")
                    self.m.add_row({qg: 1.0, zg: -g.qmin}, GE, 0.0,
                                   f"gen_on_q_lb[{gid}]@{n}")

    def _branch_dependency_rows(self, n: int):
        for bid in self.parts.branches:
            br = self.net.branches[bid]
            zbr = self.z(BRANCH, bid, n)
            if zbr is None:
                continue
            for end in (br.f_bus, br.t_bus):
                zb = self.z(BUS, end, n)
                if zb is not None:
                    self.m.add_row({zbr: 1.0, zb: -1.0}, LE, 0.0,
                                   f"branch_needs_bus[{bid},{end}]@{n}")

    def _cardinality_row(self, n: int, budget: int):
        coeffs: dict[int, float] = {}
        for kind, cid in self.parts.damaged:
            coeffs[self.z(kind, cid, n)] = 1.0
            coeffs[self.z(kind, cid, n - 1)] = \
                coeffs.get(self.z(kind, cid, n - 1), 0.0) - 1.0
        if coeffs:
            self.m.add_row(coeffs, LE, float(budget), f"repair_budget@{n}")

    def _intertemporal_rows(self):
        for n in range(1, self.K + 1):
            for kind, cid in self.parts.damaged:
                self.m.add_row(
                    {self.z(kind, cid, n): 1.0, self.z(kind, cid, n - 1): -1.0},
                    GE, 0.0, f"energized_{kind}[{cid}]@{n}")
            for lid in self.parts.loads:
                self.m.add_row(
                    {self.m.var_index(f"zd[{lid}]@{n}"): 1.0,
                     self.m.var_index(f"zd[{lid}]@{n-1}"): -1.0},
                    GE, 0.0, f"load_increasing[{lid}]@{n}")

    # -- DC ---------------------------------------------------------------

    def _dc_period_vars(self, n: int):
        self._add_z_vars(n)
        for b in self.parts.buses:
            self.m.add_var(f"va[{b}]@{n}", -VA_BOUND, VA_BOUND)
        for gid in self.parts.gens:
            g = self.net.gens[gid]
            if (GEN, gid) in self.dmg_set:
                self.m.add_var(f"pg[{gid}]@{n}", min(g.pmin, 0.0), max(g.pmax, 0.0))
            else:
                self.m.add_var(f"pg[{gid}]@{n}", g.pmin, g.pmax)
        for bid in self.parts.branches:
            cap = dc_flow_cap(self.net.branches[bid])
            self.m.add_var(f"p_fr[{bid}]@{n}", -cap, cap)
            self.m.add_var(f"p_to[{bid}]@{n}", -cap, cap)
        if self.rop:
            self._add_load_shed_vars(n)

    def _dc_period_rows(self, n: int):
        net = self.net
        for b in self.parts.buses:
            if net.buses[b].bus_type == 3:
                self.m.add_row({self.m.var_index(f"va[{b}]@{n}"): 1.0}, EQ, 0.0,
                               f"ref_angle[{b}]@{n}")

        for bid in self.parts.branches:
            br = net.branches[bid]
            bp = dc_susceptance(br)
            p_fr = self.m.var_index(f"p_fr[{bid}]@{n}")
            p_to = self.m.var_index(f"p_to[{bid}]@{n}")
            va_f = self.m.var_index(f"va[{br.f_bus}]@{n}")
            va_t = self.m.var_index(f"va[{br.t_bus}]@{n}")
            self.m.add_row({p_fr: 1.0, p_to: 1.0}, EQ, 0.0, f"lossless[{bid}]@{n}")
            zbr = self.z(BRANCH, bid, n)
            law = {p_fr: 1.0, va_f: -bp, va_t: bp}
            rhs = -bp * br.shift
            if zbr is None:
                self.m.add_row(law, EQ, rhs, f"flow_law[{bid}]@{n}")
            else:
                mp = bigM_for_branch(br)
                up = dict(law)
                up[zbr] = mp
                self.m.add_row(up, LE, rhs + mp, f"flow_law_ub[{bid}]@{n}")
                dn = dict(law)
                dn[zbr] = -mp
                self.m.add_row(dn, GE, rhs - mp, f"flow_law_lb[{bid}]@{n}")
                cap = dc_flow_cap(br)
                self.m.add_row({p_fr: 1.0, zbr: -cap}, LE, 0.0,
                               f"thermal_ub[{bid}]@{n}")
                self.m.add_row({p_fr: 1.0, zbr: cap}, GE, 0.0,
                               f"thermal_lb[{bid}]@{n}")
            if zbr is None:
                self.m.add_row({va_f: 1.0, va_t: -1.0}, LE, br.angmax,
                               f"angle_ub[{bid}]@{n}")
                self.m.add_row({va_f: 1.0, va_t: -1.0}, GE, br.angmin,
                               f"angle_lb[{bid}]@{n}")
            else:
                self.m.add_row({va_f: 1.0, va_t: -1.0, zbr: VA_SPAN - br.angmax},
                               LE, VA_SPAN, f"angle_ub[{bid}]@{n}")
                self.m.add_row({va_f: 1.0, va_t: -1.0, zbr: -(br.angmin + VA_SPAN)},
                               GE, -VA_SPAN, f"angle_lb[{bid}]@{n}")

        self._gen_rows(n)
        self._branch_dependency_rows(n)

        for b in self.parts.buses:
            coeffs: dict[int, float] = {}
            rhs = 0.0
            for gid in self.parts.gens:
                if net.gens[gid].bus == b:
                    coeffs[self.m.var_index(f"pg[{gid}]@{n}")] = 1.0
            for bid in self.parts.branches:
                br = net.branches[bid]
                if br.f_bus == b:
                    coeffs[self.m.var_index(f"p_fr[{bid}]@{n}")] = -1.0
                if br.t_bus == b:
                    coeffs[self.m.var_index(f"p_to[{bid}]@{n}")] = -1.0
            for lid in self.parts.loads:
                if net.loads[lid].bus == b:
                    if self.rop:
                        coeffs[self.m.var_index(f"zd[{lid}]@{n}")] = -net.loads[lid].pd
                    else:
                        rhs += net.loads[lid].pd
            for sid in self.parts.shunts:
                if net.shunts[sid].bus == b:
                    if self.rop:
                        coeffs[self.m.var_index(f"zs[{sid}]@{n}")] = -net.shunts[sid].gs
                    else:
                        rhs += net.shunts[sid].gs
            self.m.add_row(coeffs, EQ, rhs, f"balance_p[{b}]@{n}")

    # -- SOC ---------------------------------------------------------------

    def _soc_period_vars(self, n: int):
        self._add_z_vars(n)
        net = self.net
        for b in self.parts.buses:
            bus = net.buses[b]
            if (BUS, b) in self.dmg_set:
                self.m.add_var(f"w[{b}]@{n}", 0.0, bus.vmax ** 2)
            else:
                self.m.add_var(f"w[{b}]@{n}", bus.vmin ** 2, bus.vmax ** 2)
        for gid in self.parts.gens:
            g = net.gens[gid]
            if (GEN, gid) in self.dmg_set:
                self.m.add_var(f"pg[{gid}]@{n}", min(g.pmin, 0.0), max(g.pmax, 0.0))
                self.m.add_var(f"qg[{gid}]@{n}", min(g.qmin, 0.0), max(g.qmax, 0.0))
            else:
                self.m.add_var(f"pg[{gid}]@{n}", g.pmin, g.pmax)
                self.m.add_var(f"qg[{gid}]@{n}", g.qmin, g.qmax)
        for bid in self.parts.branches:
            br = net.branches[bid]
            f, t = net.buses[br.f_bus], net.buses[br.t_bus]
            wcap = f.vmax * t.vmax
            scap = soc_flow_cap(br, f.vmax, t.vmax)
            self.m.add_var(f"wr[{bid}]@{n}", -wcap, wcap)
            self.m.add_var(f"wi[{bid}]@{n}", -wcap, wcap)
            if (BRANCH, bid) in self.dmg_set:
                self.m.add_var(f"wfr[{bid}]@{n}", 0.0, f.vmax ** 2)
                self.m.add_var(f"wto[{bid}]@{n}", 0.0, t.vmax ** 2)
            for side in ("fr", "to"):
                self.m.add_var(f"p_{side}[{bid}]@{n}", -scap, scap)
                self.m.add_var(f"q_{side}[{bid}]@{n}", -scap, scap)
            if br.rate_a > 0.0:
                self.m.add_var(f"s_fr[{bid}]@{n}", 0.0, br.rate_a)
                self.m.add_var(f"s_to[{bid}]@{n}", 0.0, br.rate_a)
        if self.rop:
            self._add_load_shed_vars(n)
            for sid in self.parts.shunts:
                bus = net.buses[net.shunts[sid].bus]
                self.m.add_var(f"ws[{sid}]@{n}", 0.0, bus.vmax ** 2)

    def _soc_w_side(self, bid: int, bus_id: int, side: str, n: int) -> int:
        """Branch-side squared-voltage column: alias of W unless damaged."""
        if (BRANCH, bid) in self.dmg_set:
            return self.m.var_index(f"w{side}[{bid}]@{n}")
        return self.m.var_index(f"w[{bus_id}]@{n}")

    def _soc_period_rows(self, n: int):
        net = self.net
        for bid in self.parts.branches:
            br = net.branches[bid]
            g, b = _complex_admittance(br)
            tau = br.tap
            c, s = math.cos(br.shift), math.sin(br.shift)
            bc2 = br.b_charge / 2.0
            fb, tb = net.buses[br.f_bus], net.buses[br.t_bus]
            wr = self.m.var_index(f"wr[{bid}]@{n}")
            wi = self.m.var_index(f"wi[{bid}]@{n}")
            wfr = self._soc_w_side(bid, br.f_bus, "fr", n)
            wto = self._soc_w_side(bid, br.t_bus, "to", n)
            p_fr = self.m.var_index(f"p_fr[{bid}]@{n}")
            q_fr = self.m.var_index(f"q_fr[{bid}]@{n}")
            p_to = self.m.var_index(f"p_to[{bid}]@{n}")
            q_to = self.m.var_index(f"q_to[{bid}]@{n}")

            # flow laws in W space (exact once the side copies collapse)
            self.m.add_row({p_fr: 1.0, wfr: -g / tau ** 2,
                            wr: (g * c - b * s) / tau,
                            wi: (g * s + b * c) / tau}, EQ, 0.0,
                           f"flow_law_p_fr[{bid}]@{n}")
            self.m.add_row({q_fr: 1.0, wfr: (b + bc2) / tau ** 2,
                            wr: -(g * s + b * c) / tau,
                            wi: (g * c - b * s) / tau}, EQ, 0.0,
                           f"flow_law_q_fr[{bid}]@{n}")
            self.m.add_row({p_to: 1.0, wto: -g,
                            wr: (g * c + b * s) / tau,
                            wi: (g * s - b * c) / tau}, EQ, 0.0,
                           f"flow_law_p_to[{bid}]@{n}")
            self.m.add_row({q_to: 1.0, wto: (b + bc2),
                            wr: (g * s - b * c) / tau,
                            wi: -(g * c + b * s) / tau}, EQ, 0.0,
                           f"flow_law_q_to[{bid}]@{n}")

            self.m.add_row({wi: 1.0, wr: -math.tan(br.angmax)}, LE, 0.0,
                           f"angle_ub[{bid}]@{n}")
            self.m.add_row({wi: 1.0, wr: -math.tan(br.angmin)}, GE, 0.0,
                           f"angle_lb[{bid}]@{n}")
            self.m.add_cone(wr, wi, wfr, wto, f"jabr[{bid}]@{n}")

            zbr = self.z(BRANCH, bid, n)
            if zbr is not None:
                wcap = fb.vmax * tb.vmax
                for col in (wr, wi):
                    self.m.add_row({col: 1.0, zbr: -wcap}, LE, 0.0,
                                   f"w_box_ub[{col}]@{n}")
                    self.m.add_row({col: 1.0, zbr: wcap}, GE, 0.0,
                                   f"w_box_lb[{col}]@{n}")
                for side, bus in (("fr", fb), ("to", tb)):
                    wsd = self.m.var_index(f"w{side}[{bid}]@{n}")
                    wb = self.m.var_index(f"w[{bus.id}]@{n}")
                    self.m.add_row({wsd: 1.0, zbr: -bus.vmax ** 2}, LE, 0.0,
                                   f"w_{side}_on[{bid}]@{n}")
                    self.m.add_row({wsd: 1.0, wb: -1.0, zbr: -bus.vmin ** 2},
                                   LE, -bus.vmin ** 2, f"w_{side}_link_ub[{bid}]@{n}")
                    self.m.add_row({wsd: 1.0, wb: -1.0, zbr: -bus.vmax ** 2},
                                   GE, -bus.vmax ** 2, f"w_{side}_link_lb[{bid}]@{n}")

            if br.rate_a > 0.0:
                s_fr = self.m.var_index(f"s_fr[{bid}]@{n}")
                s_to = self.m.var_index(f"s_to[{bid}]@{n}")
                self.m.add_cone(p_fr, q_fr, s_fr, s_fr, f"thermal_fr[{bid}]@{n}")
                self.m.add_cone(p_to, q_to, s_to, s_to, f"thermal_to[{bid}]@{n}")
                if zbr is not None:
                    self.m.add_row({s_fr: 1.0, zbr: -br.rate_a}, LE, 0.0,
                                   f"thermal_on_fr[{bid}]@{n}")
                    self.m.add_row({s_to: 1.0, zbr: -br.rate_a}, LE, 0.0,
                                   f"thermal_on_to[{bid}]@{n}")

        for b in self.parts.buses:
            zb = self.z(BUS, b, n)
            if zb is not None:
                bus = net.buses[b]
                w = self.m.var_index(f"w[{b}]@{n}")
                self.m.add_row({w: 1.0, zb: -bus.vmax ** 2}, LE, 0.0,
                               f"w_on_ub[{b}]@{n}")
                self.m.add_row({w: 1.0, zb: -bus.vmin ** 2}, GE, 0.0,
                               f"w_on_lb[{b}]@{n}")

        self._gen_rows(n)
        self._branch_dependency_rows(n)

        if self.rop:
            for sid in self.parts.shunts:
                # McCormick envelope of ws = zs * w
                bus = net.buses[net.shunts[sid].bus]
                lo, hi = bus.vmin ** 2, bus.vmax ** 2
                ws = self.m.var_index(f"ws[{sid}]@{n}")
                zs = self.m.var_index(f"zs[{sid}]@{n}")
                w = self.m.var_index(f"w[{bus.id}]@{n}")
                self.m.add_row({ws: 1.0, zs: -lo}, GE, 0.0, f"ws_a[{sid}]@{n}")
                self.m.add_row({ws: 1.0, zs: -hi, w: -1.0}, GE, -hi, f"ws_b[{sid}]@{n}")
                self.m.add_row({ws: 1.0, zs: -hi}, LE, 0.0, f"ws_c[{sid}]@{n}")
                self.m.add_row({ws: 1.0, w: -1.0, zs: -lo}, LE, -lo, f"ws_d[{sid}]@{n}")

        for b in self.parts.buses:
            p_coeffs: dict[int, float] = {}
            q_coeffs: dict[int, float] = {}
            p_rhs = q_rhs = 0.0
            for gid in self.parts.gens:
                if net.gens[gid].bus == b:
                    p_coeffs[self.m.var_index(f"pg[{gid}]@{n}")] = 1.0
                    q_coeffs[self.m.var_index(f"qg[{gid}]@{n}")] = 1.0
            for bid in self.parts.branches:
                br = net.branches[bid]
                if br.f_bus == b:
                    p_coeffs[self.m.var_index(f"p_fr[{bid}]@{n}")] = -1.0
                    q_coeffs[self.m.var_index(f"q_fr[{bid}]@{n}")] = -1.0
                if br.t_bus == b:
                    p_coeffs[self.m.var_index(f"p_to[{bid}]@{n}")] = -1.0
                    q_coeffs[self.m.var_index(f"q_to[{bid}]@{n}")] = -1.0
            for lid in self.parts.loads:
                ld = net.loads[lid]
                if ld.bus == b:
                    if self.rop:
                        zd = self.m.var_index(f"zd[{lid}]@{n}")
                        p_coeffs[zd] = p_coeffs.get(zd, 0.0) - ld.pd
                        q_coeffs[zd] = q_coeffs.get(zd, 0.0) - ld.qd
                    else:
                        p_rhs += ld.pd
                        q_rhs += ld.qd
            for sid in self.parts.shunts:
                sh = net.shunts[sid]
                if sh.bus == b:
                    col = (self.m.var_index(f"ws[{sid}]@{n}") if self.rop
                           else self.m.var_index(f"w[{b}]@{n}"))
                    p_coeffs[col] = p_coeffs.get(col, 0.0) - sh.gs
                    q_coeffs[col] = q_coeffs.get(col, 0.0) + sh.bs
            self.m.add_row(p_coeffs, EQ, p_rhs, f"balance_p[{b}]@{n}")
            self.m.add_row(q_coeffs, EQ, q_rhs, f"balance_q[{b}]@{n}")

    # -- assembly -----------------------------------------------------------

    def build(self, budget: int | None = None) -> MipModel:
        add_vars = self._dc_period_vars if self.form == DC else self._soc_period_vars
        add_rows = self._dc_period_rows if self.form == DC else self._soc_period_rows
        for n in range(self.K + 1):
            add_vars(n)
        for n in range(self.K + 1):
            add_rows(n)
            if self.rop and n >= 1:
                self._cardinality_row(n, budget)
        if self.rop:
            self._intertemporal_rows()
            obj = {}
            for n in range(self.K + 1):
                for lid in self.parts.loads:
                    obj[self.m.var_index(f"zd[{lid}]@{n}")] = self.net.loads[lid].pd
            self.m.set_objective("max", obj)
        else:
            obj = {self.z(kind, cid, 0): 1.0 for kind, cid in self.parts.damaged}
            self.m.set_objective("min", obj)
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


def mrsp_set(net: Network, model: MipModel, sol: MipSolution,
             int_tol: float = 1e-6) -> dict[tuple[str, int], float]:
    """Indicator values of the damaged components in an MRSP solution."""
    out = {}
    for kind, cid in net.damaged_items():
        out[(kind, cid)] = float(sol.values[model.var_index(f"z_{kind}[{cid}]@0")])
    return out


def decode_plan(case: MultiPeriodCase, model: MipModel, sol: MipSolution,
                formulation: str) -> RestorationPlan:
    """Turn an ROP solution into a validated restoration plan."""
    parts = _Parts.of(case.base, case.damaged_items())
    status: dict[tuple[str, int], list[int]] = {}
    for kind, cid in parts.damaged:
        zs = []
        for n in range(case.periods + 1):
            v = float(sol.values[model.var_index(f"z_{kind}[{cid}]@{n}")])
            if abs(v - round(v)) > 1e-6:
                raise NonIntegralIndicator(f"{kind} {cid}@{n}: indicator {v}")
            zs.append(int(round(v)))
        status[(kind, cid)] = zs
    fractions: dict[int, list[float]] = {}
    for lid in parts.loads:
        fr = []
        for n in range(case.periods + 1):
            v = float(sol.values[model.var_index(f"zd[{lid}]@{n}")])
            fr.append(min(1.0, max(0.0, v)))
        fractions[lid] = fr
    objective_mwh = sol.objective * case.base.base_mva * case.period_hours
    plan = RestorationPlan(
        periods=case.periods, period_hours=case.period_hours, status=status,
        load_fraction=fractions, objective_value=objective_mwh,
        formulation=formulation,
    )
    return plan.validate(case)


def estimated_ens_mwh(case: MultiPeriodCase, plan: RestorationPlan,
                      count_initial_period: bool = True) -> float:
    """Model-side energy not served over the horizon, in MWh."""
    net = case.base
    total = 0.0
    for n in range(case.periods + 1):
        if n == 0 and not count_initial_period:
            continue
        for lid, fr in plan.load_fraction.items():
            total += (1.0 - fr[n]) * net.loads[lid].pd
    return total * net.base_mva * case.period_hours


def model_size(net: Network, formulation: str, rop: bool, periods: int,
               damaged: list[tuple[str, int]]) -> tuple[int, int]:
    """Exact (variables, linear rows) the builders will produce.

    DC, per period: vars |bus| + |gen| + 2|branch| + |dmg| (+|load| + |shunt|
    for the ordering model); rows #ref + |bus| + |branch| (lossless link)
    + |branch| + |dmg branch| (flow law) + 2|branch| (angle) + 2|dmg branch|
    (activation) + 2|dmg gen| (on/off) + dependency rows + 1 cardinality
    (periods >= 1).  Inter-period: (|dmg| + |load|) * K rows.  SOC counts
    follow the same structure with the W-space variables and rows.
    """
    parts = _Parts.of(net, damaged)
    nb, nbr, ng = len(parts.buses), len(parts.branches), len(parts.gens)
    nl, ns, nd = len(parts.loads), len(parts.shunts), len(parts.damaged)
    dmg_br = sum(1 for k, _ in parts.damaged if k == BRANCH)
    dmg_g = sum(1 for k, _ in parts.damaged if k == GEN)
    dmg_bus = sum(1 for k, _ in parts.damaged if k == BUS)
    rated = sum(1 for i in parts.branches if net.branches[i].rate_a > 0.0)
    rated_dmg = sum(1 for i in parts.branches
                    if net.branches[i].rate_a > 0.0 and (BRANCH, i) in set(parts.damaged))
    nref = sum(1 for b in parts.buses if net.buses[b].bus_type == 3)
    dep = 0
    dmg_set = set(parts.damaged)
    for i in parts.branches:
        if (BRANCH, i) in dmg_set:
            br = net.branches[i]
            dep += sum(1 for e in (br.f_bus, br.t_bus) if (BUS, e) in dmg_set)
    for i in parts.gens:
        if (GEN, i) in dmg_set and (BUS, net.gens[i].bus) in dmg_set:
            dep += 1

    if formulation == DC:
        vars_pp = nb + ng + 2 * nbr + nd + (nl + ns if rop else 0)
        rows_pp = (nref + nb + nbr + (nbr + dmg_br) + 2 * nbr + 2 * dmg_br
                   + 2 * dmg_g + dep)
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
