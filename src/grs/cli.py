"""Command-line front end.

Subcommands: parse, mrsp, rop, redispatch, pipeline, heuristic, gen-damage.
All outputs are deterministic functions of (inputs, seed); wall-clock stage
timings are only written when --timings is passed, to a separate file.
Exit codes: 0 success, 1 infeasible (``PipelineInfeasible``), 2 input error
(``GridError``, or a file that cannot be read or decoded), 3 solver limit or
numerical failure (``MipError``).
Set GRS_LOG to a logging level name (e.g. DEBUG) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import random
import sys
from pathlib import Path

from . import acvalidate, formulations, netio, workflows
from .grid import GridError, apply_damage, replicate
from .mip import MipError, SolveLimits

log = logging.getLogger("grs")

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _limits_from(args) -> SolveLimits:
    return SolveLimits(
        gap=args.gap,
        nodes=args.node_limit,
        time_s=args.time_limit,
    )


def _read_damage(path):
    return netio.damage_from_dict(json.loads(netio.read_text(path)))


def _load_inputs(args, need_damage=True):
    net = netio.load_case(args.case)
    return net, _read_damage(args.damage) if need_damage else None


def _write(path, data: bytes | str):
    if isinstance(data, str):
        data = data.encode()
    if path == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(path).write_bytes(data)


def _dump_json(path, obj):
    _write(path, json.dumps(obj, indent=1) + "\n")


def cmd_parse(args):
    net = netio.load_case(args.case)
    _dump_json(args.out, netio.network_to_dict(net))
    log.info("parsed %s: %d buses, %d branches, %d gens, %d loads",
             args.case, len(net.buses), len(net.branches), len(net.gens),
             len(net.loads))
    return EXIT_OK


def _parse_bus_list(spec: str) -> set[int]:
    out: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            a, b = part.split("-", 1)
            out.update(range(int(a), int(b) + 1))
        else:
            out.add(int(part))
    return out


def cmd_gen_damage(args):
    if not math.isfinite(args.fraction):
        log.error("--fraction must be a finite number")
        return EXIT_INPUT
    net = netio.load_case(args.case)
    try:
        area = _parse_bus_list(args.area) if args.area else set(net.buses)
    except ValueError:
        log.error("--area %r is not a list of bus ids and ranges", args.area)
        return EXIT_INPUT
    kinds = {k.strip() for k in args.kinds.split(",") if k.strip()}
    bad = kinds - {"branch", "gen"}
    if bad:
        log.error("unknown damage kinds: %s", sorted(bad))
        return EXIT_INPUT
    live = net.live()
    branches = [i for i in live.branches
                if net.branches[i].f_bus in area and net.branches[i].t_bus in area]
    gens = [i for i in live.gens if net.gens[i].bus in area]
    rng = random.Random(args.seed)

    def pick(items, kind):
        if kind not in kinds or not items or args.fraction <= 0.0:
            return []
        count = max(1, round(args.fraction * len(items)))
        return sorted(rng.sample(items, min(count, len(items))))

    dmg = {"branch": pick(branches, "branch"), "gen": pick(gens, "gen"),
           "bus": []}
    _dump_json(args.out, dmg)
    log.info("damage scenario: %d branches, %d gens (seed %d)",
             len(dmg["branch"]), len(dmg["gen"]), args.seed)
    return EXIT_OK


def cmd_mrsp(args):
    net, dmg = _load_inputs(args)
    damaged = apply_damage(net, dmg)
    model = formulations.build_mrsp(damaged, args.formulation)
    if args.dump_lp:
        _write(args.dump_lp, model.to_lp_string())
    indicators, kept = workflows.solve_mrsp(damaged, model, _limits_from(args))
    out = {
        "formulation": args.formulation,
        "damaged": len(indicators),
        "repair_set_size": len(kept),
        "repair_set": netio.damage_to_dict(kept),
    }
    _dump_json(args.out, out)
    return EXIT_OK


def cmd_rop(args):
    net, dmg = _load_inputs(args)
    case = replicate(net, dmg, args.periods, args.period_hours)
    model = formulations.build_rop(case, args.formulation)
    if args.dump_lp:
        _write(args.dump_lp, model.to_lp_string())
    plan, _ = workflows.solve_rop(case, model, args.formulation,
                                  _limits_from(args))
    _dump_json(args.out, netio.plan_to_dict(plan))
    est = formulations.estimated_ens_mwh(case, plan, args.count_initial_period)
    log.info("rop: objective %.3f MWh served, estimated ENS %.3f MWh",
             plan.objective_value, est)
    return EXIT_OK


def cmd_redispatch(args):
    net, dmg = _load_inputs(args)
    case = replicate(net, dmg, args.periods, args.period_hours)
    plan = netio.plan_from_dict(json.loads(netio.read_text(args.plan)))
    report = acvalidate.redispatch_plan(case, plan, args.count_initial_period)
    _dump_json(args.out, netio.report_to_dict(report))
    if args.csv:
        _write(args.csv, netio.write_report(report))
    return EXIT_OK


def _run_pipeline(args, net, dmg):
    if args.mrsp:
        return workflows.run_mrsp_then_rop(
            net, dmg, args.periods, args.formulation, args.period_hours,
            args.count_initial_period, _limits_from(args))
    return workflows.run_rop_then_redispatch(
        net, dmg, args.periods, args.formulation, args.period_hours,
        args.count_initial_period, _limits_from(args))


def cmd_pipeline(args):
    if args.scenarios and not Path(args.scenarios).is_dir():
        log.error("--scenarios %s is not a directory", args.scenarios)
        return EXIT_INPUT
    net, dmg = _load_inputs(args, need_damage=not args.scenarios)
    if args.scenarios:
        outdir = Path(args.out_dir or ".")
        outdir.mkdir(exist_ok=True)
        for path in sorted(Path(args.scenarios).glob("*.json")):
            result = _run_pipeline(args, net, _read_damage(path))
            _dump_json(outdir / f"{path.stem}.result.json",
                       workflows.pipeline_result_to_dict(result))
            log.info("%s: estimated %.3f / true %.3f MWh", path.stem,
                     result.estimated_ens_mwh, result.true_ens_mwh)
        return EXIT_OK
    result = _run_pipeline(args, net, dmg)
    _dump_json(args.out, workflows.pipeline_result_to_dict(result))
    if args.csv:
        _write(args.csv, netio.write_report(result.report))
    if args.timings:
        _dump_json(args.timings,
                   {k: round(v, 3) for k, v in sorted(result.timings.items())})
    log.info("pipeline: estimated %.3f MWh, true %.3f MWh",
             result.estimated_ens_mwh, result.true_ens_mwh)
    return EXIT_OK


def cmd_heuristic(args):
    net, dmg = _load_inputs(args)
    plan, report = workflows.run_heuristic(net, dmg, args.periods,
                                           args.period_hours,
                                           args.count_initial_period)
    out = {
        "plan": netio.plan_to_dict(plan),
        "report": netio.report_to_dict(report),
    }
    _dump_json(args.out, out)
    if args.csv:
        _write(args.csv, netio.write_report(report))
    return EXIT_OK


def _unwritable_output(args) -> str | None:
    """Why the first output path of ``args`` cannot be written, or None.

    A file path needs a directory as its parent and must not be a
    directory; ``--out-dir`` needs a directory as its parent and must not
    be a file.  ``-`` is standard output.
    """
    for name in ("out", "csv", "timings", "dump_lp", "out_dir"):
        value = getattr(args, name, None)
        if value is None or value == "-":
            continue
        path = Path(value)
        flag = "--" + name.replace("_", "-")
        if not path.parent.is_dir():
            return f"{flag} {value}: {path.parent} is not a directory"
        if name == "out_dir" and path.exists() and not path.is_dir():
            return f"{flag} {value}: not a directory"
        if name != "out_dir" and path.is_dir():
            return f"{flag} {value}: is a directory"
    return None


def _add_common_solver_args(p):
    p.add_argument("--gap", type=float, default=1e-6,
                   help="relative MIP gap target (default 1e-6)")
    p.add_argument("--time-limit", type=float, default=None,
                   help="solver wall-clock limit in seconds")
    p.add_argument("--node-limit", type=int, default=None,
                   help="branch-and-bound node limit")


def _add_dump_lp_arg(p):
    p.add_argument("--dump-lp", default=None,
                   help="write the model in LP format, before the solve")


def _add_case_args(p, damage=True):
    p.add_argument("--case", required=True, help="Matpower .m case file")
    if damage:
        p.add_argument("--damage", help="damage scenario JSON "
                       '({"branch": [...], "gen": [...], "bus": [...]})')


def _add_period_args(p):
    p.add_argument("--periods", type=int, required=True,
                   help="number of restoration periods K (>= 1)")
    p.add_argument("--period-hours", type=float, default=1.0)
    p.add_argument("--count-initial-period", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="include the pre-restoration period in ENS totals")


def _add_formulation_arg(p):
    p.add_argument("--formulation", choices=("dc", "soc"), default="dc")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="grs",
        description="Grid restoration sequencing: repair-set and repair-order "
                    "optimization with AC validation.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a Matpower case to JSON")
    _add_case_args(p, damage=False)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("gen-damage", help="generate a seeded damage scenario")
    _add_case_args(p, damage=False)
    p.add_argument("--fraction", type=float, required=True,
                   help="fraction of eligible branches and gens to damage")
    p.add_argument("--area", default=None,
                   help="bus list like '1-23,25-32,113-115,117'; damage only "
                        "branches within and gens at these buses")
    p.add_argument("--kinds", default="branch,gen",
                   help="component classes to damage (default branch,gen)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen_damage)

    p = sub.add_parser("mrsp", help="minimum repair set for full load")
    _add_case_args(p)
    _add_formulation_arg(p)
    p.add_argument("--out", default="-")
    _add_common_solver_args(p)
    _add_dump_lp_arg(p)
    p.set_defaults(func=cmd_mrsp)

    p = sub.add_parser("rop", help="optimize the restoration order")
    _add_case_args(p)
    _add_period_args(p)
    _add_formulation_arg(p)
    p.add_argument("--out", default="-")
    _add_common_solver_args(p)
    _add_dump_lp_arg(p)
    p.set_defaults(func=cmd_rop)

    p = sub.add_parser("redispatch", help="AC-validate an existing plan")
    _add_case_args(p)
    _add_period_args(p)
    p.add_argument("--plan", required=True, help="plan JSON from 'rop'")
    p.add_argument("--out", default="-")
    p.add_argument("--csv", default=None, help="per-period ENS CSV")
    p.set_defaults(func=cmd_redispatch)

    p = sub.add_parser("pipeline", help="plan then AC-validate in one run")
    _add_case_args(p)
    _add_period_args(p)
    _add_formulation_arg(p)
    p.add_argument("--mrsp", action="store_true",
                   help="shrink the repair set before ordering")
    p.add_argument("--out", default="-")
    p.add_argument("--csv", default=None, help="per-period ENS CSV")
    p.add_argument("--timings", default=None,
                   help="write stage timings to a separate file")
    p.add_argument("--scenarios", default=None,
                   help="directory of damage JSONs to run in batch")
    p.add_argument("--out-dir", default=None, help="batch output directory")
    _add_common_solver_args(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("heuristic", help="largest-capability-first baseline")
    _add_case_args(p)
    _add_period_args(p)
    p.add_argument("--out", default="-")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_heuristic)

    return ap


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("GRS_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        if getattr(args, "periods", 1) < 1:
            log.error("--periods must be >= 1")
            return EXIT_INPUT
        if not 0 < getattr(args, "period_hours", 1.0) < math.inf:
            log.error("--period-hours must be a finite number > 0")
            return EXIT_INPUT
        if getattr(args, "damage", None) is None and args.command in (
                "mrsp", "rop", "redispatch", "heuristic"):
            log.error("--damage is required for %s", args.command)
            return EXIT_INPUT
        if args.command == "pipeline" and args.damage is None and not args.scenarios:
            log.error("pipeline needs --damage or --scenarios")
            return EXIT_INPUT
        if args.command == "pipeline" and args.scenarios:
            for flag, given in (("--out", args.out != "-"),
                                ("--csv", args.csv), ("--timings", args.timings)):
                if given:
                    log.error("%s cannot be used with --scenarios: each "
                              "scenario writes only its result to --out-dir",
                              flag)
                    return EXIT_INPUT
        bad = _unwritable_output(args)
        if bad:
            log.error("output path: %s", bad)
            return EXIT_INPUT
        return args.func(args)
    except (GridError, OSError, json.JSONDecodeError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT
    except workflows.PipelineInfeasible as exc:
        log.error("%s", exc)
        return EXIT_INFEASIBLE
    except MipError as exc:
        log.error("solver: %s", exc)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
