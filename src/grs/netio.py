"""Matpower case parsing and JSON/CSV serialization.

Reads the Matpower .m subset needed by the DC/SOC/AC models: the baseMVA
scalar and the bus/gen/branch (and gencost) matrices.  Other sections, e.g.
storage, are skipped with a warning record.  Quantities are converted to
per-unit on the system base; angle columns from degrees to radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from io import StringIO

from .grid import (Branch, Bus, DamageScenario, DEFAULT_ANGLE_BOUND,
                   DuplicateBusId, EnsReport, Generator, Load, Network,
                   RestorationPlan, Shunt)


class NetioError(Exception):
    pass


class MalformedSection(NetioError):
    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class MissingSection(NetioError):
    pass


class NegativeDemand(NetioError):
    pass


class NonPositiveVoltageBounds(NetioError):
    pass


class MalformedDocument(NetioError):
    """A damage or plan JSON document that does not match its schema."""


KNOWN_SECTIONS = ("bus", "gen", "branch", "gencost")


@dataclass
class RawCase:
    base_mva: float
    name: str
    bus_rows: list[list[float]]
    gen_rows: list[list[float]]
    branch_rows: list[list[float]]
    gencost_rows: list[list[float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def check(self):
        if self.base_mva <= 0:
            raise MalformedSection("baseMVA must be positive")
        if not self.bus_rows:
            raise MissingSection("no bus rows")
        bus_ids = {int(r[0]) for r in self.bus_rows}
        for k, row in enumerate(self.gen_rows):
            if int(row[0]) not in bus_ids:
                raise MalformedSection(f"gen row {k + 1} references bus {int(row[0])}")
        for k, row in enumerate(self.branch_rows):
            if int(row[0]) not in bus_ids or int(row[1]) not in bus_ids:
                raise MalformedSection(f"branch row {k + 1} references unknown bus")
        return self


def _strip_comment(line: str) -> str:
    pos = line.find("%")
    return line if pos < 0 else line[:pos]


def parse_matpower(text: str) -> RawCase:
    """Parse Matpower .m text into raw numeric sections."""
    base_mva = None
    name = ""
    sections: dict[str, list[list[float]]] = {}
    warnings: list[str] = []

    lines = text.splitlines()
    i = 0
    nlines = len(lines)
    while i < nlines:
        raw = _strip_comment(lines[i]).strip()
        i += 1
        if not raw:
            continue
        if raw.startswith("function"):
            parts = raw.replace("=", " = ").split()
            if parts and parts[-1] != "=":
                name = parts[-1]
            continue
        if not raw.startswith("mpc."):
            continue
        head, _, rest = raw.partition("=")
        key = head.strip()[4:].strip()
        rest = rest.strip()
        if key == "baseMVA":
            tok = rest.rstrip(";").strip()
            try:
                base_mva = float(tok)
            except ValueError:
                raise MalformedSection(f"bad baseMVA {tok!r}", line=i)
            continue
        if key == "version":
            continue
        opener = rest[:1]
        if opener not in ("[", "{"):
            continue  # scalar assignment we do not use
        closer = "]" if opener == "[" else "}"
        start_line = i
        body = rest[1:]
        buf = [body]
        closed = closer + ";" in body.replace(" ", "") or body.strip().endswith(closer)
        while not closed:
            if i >= nlines:
                raise MalformedSection(f"section {key}: unbalanced {opener!r}",
                                       line=start_line)
            nxt = _strip_comment(lines[i])
            i += 1
            buf.append(nxt)
            stripped = nxt.replace(" ", "").rstrip()
            if closer + ";" in stripped or stripped.endswith(closer):
                closed = True
        block = "\n".join(buf)
        block = block[: block.rfind(closer)]
        if key not in KNOWN_SECTIONS or opener == "{":
            warnings.append(f"skipped section {key!r}")
            continue
        rows: list[list[float]] = []
        for lineno_off, chunk_line in enumerate(block.split("\n")):
            for chunk in chunk_line.split(";"):
                toks = chunk.split()
                if not toks:
                    continue
                try:
                    rows.append([float(t) for t in toks])
                except ValueError:
                    raise MalformedSection(
                        f"section {key}: non-numeric token in {chunk.strip()!r}",
                        line=start_line + lineno_off)
        sections[key] = rows

    if base_mva is None:
        raise MissingSection("no mpc.baseMVA")
    for needed in ("bus", "gen", "branch"):
        if needed not in sections:
            raise MissingSection(f"no mpc.{needed} section")
    return RawCase(
        base_mva=base_mva,
        name=name,
        bus_rows=sections["bus"],
        gen_rows=sections["gen"],
        branch_rows=sections["branch"],
        gencost_rows=sections.get("gencost", []),
        warnings=warnings,
    ).check()


def to_network(raw: RawCase) -> Network:
    """Convert raw Matpower rows to a validated per-unit Network."""
    base = raw.base_mva
    buses: dict[int, Bus] = {}
    loads: dict[int, Load] = {}
    shunts: dict[int, Shunt] = {}
    refs = set()
    for row in raw.bus_rows:
        if len(row) < 13:
            raise MalformedSection(f"bus row too short: {row}")
        bid = int(row[0])
        btype = int(row[1])
        if btype not in (1, 2, 3, 4):
            raise MalformedSection(f"bus {bid}: bad type {btype}")
        if bid in buses:
            raise DuplicateBusId(f"duplicate bus id {bid}")
        vmax, vmin = float(row[11]), float(row[12])
        if vmin <= 0 or vmax < vmin:
            raise NonPositiveVoltageBounds(f"bus {bid}: [{vmin}, {vmax}]")
        buses[bid] = Bus(id=bid, bus_type=btype, vmin=vmin, vmax=vmax)
        pd, qd = float(row[2]) / base, float(row[3]) / base
        if pd < 0:
            raise NegativeDemand(f"bus {bid}: negative demand {pd * base} MW")
        if pd != 0.0 or qd != 0.0:
            loads[bid] = Load(id=bid, bus=bid, pd=pd, qd=qd)
        gs, bs = float(row[4]) / base, float(row[5]) / base
        if gs != 0.0 or bs != 0.0:
            shunts[bid] = Shunt(id=bid, bus=bid, gs=gs, bs=bs)
        if btype == 3:
            refs.add(bid)

    gens: dict[int, Generator] = {}
    for k, row in enumerate(raw.gen_rows, start=1):
        if len(row) < 10:
            raise MalformedSection(f"gen row {k} too short")
        gens[k] = Generator(
            id=k, bus=int(row[0]),
            pmin=float(row[9]) / base, pmax=float(row[8]) / base,
            qmin=float(row[4]) / base, qmax=float(row[3]) / base,
            vg=float(row[5]),
            in_service=float(row[7]) > 0,
        )

    branches: dict[int, Branch] = {}
    for k, row in enumerate(raw.branch_rows, start=1):
        if len(row) < 13:
            raise MalformedSection(f"branch row {k} too short")
        angmin = math.radians(float(row[11]))
        angmax = math.radians(float(row[12]))
        if angmin == 0.0 and angmax == 0.0:
            angmin, angmax = -DEFAULT_ANGLE_BOUND, DEFAULT_ANGLE_BOUND
        tap = float(row[8])
        branches[k] = Branch(
            id=k, f_bus=int(row[0]), t_bus=int(row[1]),
            r=float(row[2]), x=float(row[3]), b_charge=float(row[4]),
            rate_a=float(row[5]) / base,
            tap=tap if tap != 0.0 else 1.0,
            shift=math.radians(float(row[9])),
            angmin=angmin, angmax=angmax,
            in_service=float(row[10]) > 0,
        )

    return Network(
        base_mva=base, buses=buses, branches=branches, gens=gens,
        loads=loads, shunts=shunts, ref_buses=frozenset(refs), name=raw.name,
    ).validate()


def load_case(path) -> Network:
    with open(path, encoding="utf-8") as f:
        return to_network(parse_matpower(f.read()))


# --- JSON serialization -------------------------------------------------

def network_to_dict(net: Network) -> dict:
    return {
        "name": net.name,
        "base_mva": net.base_mva,
        "buses": [vars(net.buses[i]).copy() for i in sorted(net.buses)],
        "branches": [vars(net.branches[i]).copy() for i in sorted(net.branches)],
        "gens": [vars(net.gens[i]).copy() for i in sorted(net.gens)],
        "loads": [vars(net.loads[i]).copy() for i in sorted(net.loads)],
        "shunts": [vars(net.shunts[i]).copy() for i in sorted(net.shunts)],
        "ref_buses": sorted(net.ref_buses),
    }


def damage_to_dict(dmg: DamageScenario) -> dict:
    return {"branch": dmg.ids("branch"), "gen": dmg.ids("gen"),
            "bus": dmg.ids("bus")}


def damage_from_dict(d: dict) -> DamageScenario:
    """An object whose only keys are branch, gen and bus, each (if present)
    a list of whole-number ids."""
    if not isinstance(d, dict):
        raise MalformedDocument(f"damage must be a JSON object, not {d!r}")
    for kind, ids in d.items():
        if kind not in ("branch", "gen", "bus"):
            raise MalformedDocument(f"unknown damage key {kind!r}")
        if not isinstance(ids, list) or not all(
                isinstance(i, int) and not isinstance(i, bool)
                or isinstance(i, float) and i.is_integer() for i in ids):
            raise MalformedDocument(f"damage {kind!r} must be a list of "
                                    f"whole-number ids, not {ids!r}")
    return DamageScenario.of(branches=d.get("branch", ()),
                             gens=d.get("gen", ()), buses=d.get("bus", ()))


def plan_to_dict(plan: RestorationPlan) -> dict:
    status = {}
    for kind in ("bus", "branch", "gen"):
        items = {str(cid): plan.status[(k, cid)]
                 for (k, cid) in sorted(plan.status) if k == kind}
        if items:
            status[kind] = items
    return {
        "formulation": plan.formulation,
        "periods": plan.periods,
        "period_hours": plan.period_hours,
        "objective_mwh": plan.objective_value,
        "status": status,
        "load_fraction": {str(i): [round(f, 9) for f in plan.load_fraction[i]]
                          for i in sorted(plan.load_fraction)},
    }


def plan_from_dict(d: dict) -> RestorationPlan:
    try:
        status = {}
        for kind, items in d.get("status", {}).items():
            for cid, zs in items.items():
                status[(kind, int(cid))] = [int(z) for z in zs]
        return RestorationPlan(
            periods=int(d["periods"]),
            period_hours=float(d["period_hours"]),
            status=status,
            load_fraction={int(i): [float(f) for f in fr]
                           for i, fr in d.get("load_fraction", {}).items()},
            objective_value=float(d["objective_mwh"]),
            formulation=d["formulation"],
        )
    except KeyError as exc:
        raise MalformedDocument(f"plan misses key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"malformed plan: {exc}") from None


def report_to_dict(report: EnsReport) -> dict:
    return {
        "period_hours": report.period_hours,
        "count_initial_period": report.count_initial_period,
        "periods": [
            {"period": r.period, "served_mw": r.served_mw,
             "shed_mw": r.shed_mw, "ens_mwh": r.ens_mwh}
            for r in report.rows
        ],
        "estimated_ens_mwh": report.estimated_ens_mwh,
        "true_ens_mwh": report.true_ens_mwh,
        "validation_warnings": report.validation_warnings,
    }


def write_report(report: EnsReport) -> bytes:
    """Render an EnsReport as CSV: one row per period, then the report's
    totals over the counted periods."""
    out = StringIO()
    out.write("period,served_mw,shed_mw,ens_mwh\n")
    for r in report.rows:
        out.write(f"{r.period},{r.served_mw:.3f},{r.shed_mw:.3f},{r.ens_mwh:.3f}\n")
    out.write(f"total,{report.served_mw_total:.3f},{report.shed_mw_total:.3f},"
              f"{report.true_ens_mwh:.3f}\n")
    return out.getvalue().encode()
