"""Matpower case parsing and JSON/CSV serialization.

Reads the Matpower .m subset needed by the DC/SOC/AC models: the baseMVA
scalar and the bus/gen/branch matrices, whose numbers must be finite.
Other sections, e.g. gencost or storage, are skipped with a warning record,
which ``load_case`` logs.
The reader checks only what reading needs; the network rules, bus
references among them, belong to ``to_network`` and ``Network.validate``.
Quantities are converted to per-unit on the system base; angle columns from
degrees to radians.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from io import StringIO

from .grid import (Branch, Bus, DamageScenario, DEFAULT_ANGLE_BOUND,
                   EnsReport, Generator, GridError, Load, Network,
                   RestorationPlan, Shunt)

log = logging.getLogger(__name__)


class MalformedSection(GridError):
    """A case-file row or statement the reader rejects; ``line``, when
    known, names where."""

    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


SECTIONS = ("bus", "gen", "branch")
# a function line or an ``mpc.<key> = <value>`` statement, at a line start
_STATEMENT = re.compile(r"^[ \t]*(?:function(.*)|mpc\.([^=\n]*)=[ \t]*(.*))",
                        re.M)


@dataclass
class RawCase:
    base_mva: float
    name: str
    bus_rows: list[list[float]]
    gen_rows: list[list[float]]
    branch_rows: list[list[float]]
    warnings: list[str] = field(default_factory=list)


def _number(tok: str, what: str, line: int) -> float:
    try:
        x = float(tok)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise MalformedSection(f"{what}: {tok!r} is not a finite number",
                               line=line)
    return x


def parse_matpower(text: str) -> RawCase:
    """Parse Matpower .m text into raw numeric sections, statement by
    statement: a ``[``/``{`` value runs to its closing bracket, after which
    only ``;`` and blanks may follow on that line."""
    text = re.sub(r"%[^\n]*", "", text)
    base_mva, name, sections, warnings, pos = None, "", {}, [], 0
    while m := _STATEMENT.search(text, pos):
        pos, line = m.end(), text.count("\n", 0, m.start()) + 1
        if m[2] is None:  # the case is named by the function line's last token
            parts = ("function" + m[1]).replace("=", " = ").split()
            name = name if parts[-1] == "=" else parts[-1]
            continue
        key, value = m[2].strip(), m[3]
        if key == "baseMVA":
            base_mva = _number(value.strip().rstrip(";").strip(), key, line)
            if base_mva <= 0:
                raise MalformedSection("baseMVA must be positive", line=line)
            continue
        if value[:1] not in ("[", "{"):
            continue  # a scalar assignment we do not use
        closer = "]" if value[0] == "[" else "}"
        end = text.find(closer, m.start(3))
        if end < 0:
            raise MalformedSection(f"section {key}: no closing {closer!r}",
                                   line=line)
        pos = text.find("\n", end)
        pos = len(text) if pos < 0 else pos
        if text[end + 1:pos].replace(";", "").strip():
            raise MalformedSection(f"section {key}: text after {closer!r}",
                                   line=text.count("\n", 0, end) + 1)
        if key not in SECTIONS or closer == "}":
            warnings.append(f"skipped section {key!r}")
            continue
        rows = sections[key] = []
        body = text[m.start(3) + 1:end].split("\n")
        for n, chunks in enumerate(body, start=line):
            rows += [[_number(t, f"section {key}", n) for t in chunk.split()]
                     for chunk in chunks.split(";") if chunk.strip()]
    if base_mva is None:
        raise GridError("no mpc.baseMVA")
    for needed in SECTIONS:
        if needed not in sections:
            raise GridError(f"no mpc.{needed} section")
    return RawCase(base_mva, name, sections["bus"], sections["gen"],
                   sections["branch"], warnings)


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
            raise GridError(f"duplicate bus id {bid}")
        buses[bid] = Bus(id=bid, bus_type=btype, vmin=float(row[12]),
                         vmax=float(row[11]))
        pd, qd = float(row[2]) / base, float(row[3]) / base
        if pd < 0:
            raise GridError(f"bus {bid}: negative demand {pd * base} MW")
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


def read_text(path) -> str:
    """The text of a UTF-8 input file; a file that does not decode is a
    ``GridError`` that names it."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise GridError(f"{path}: not UTF-8 ({exc.reason} at byte "
                            f"{exc.start})") from exc


def load_case(path) -> Network:
    """Read a case file; each section the reader skipped is logged at
    WARNING."""
    raw = parse_matpower(read_text(path))
    for warning in raw.warnings:
        log.warning("%s: %s", path, warning)
    return to_network(raw)


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


def _whole(v) -> bool:
    """A JSON whole number: an int that is not a bool, or an integral float."""
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and v.is_integer())


def damage_from_dict(d: dict) -> DamageScenario:
    """An object whose only keys are branch, gen and bus, each (if present)
    a list of whole-number ids."""
    if not isinstance(d, dict):
        raise GridError(f"damage must be a JSON object, not {d!r}")
    for kind, ids in d.items():
        if kind not in ("branch", "gen", "bus"):
            raise GridError(f"unknown damage key {kind!r}")
        if not isinstance(ids, list) or not all(_whole(i) for i in ids):
            raise GridError(f"damage {kind!r} must be a list of "
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
    """A plan object; its statuses and period count are whole numbers."""
    try:
        status = {}
        for kind, items in d.get("status", {}).items():
            for cid, zs in items.items():
                if not all(_whole(z) for z in zs):
                    raise GridError(f"plan status of {kind} {cid} must be "
                                    f"whole numbers, not {zs!r}")
                status[(kind, int(cid))] = [int(z) for z in zs]
        if not _whole(d["periods"]):
            raise GridError(f"plan periods must be a whole number, "
                            f"not {d['periods']!r}")
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
        raise GridError(f"plan misses key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise GridError(f"malformed plan: {exc}") from None


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
