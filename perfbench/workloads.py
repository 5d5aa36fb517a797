"""The benchmark's workloads: their inputs, operations and output checks.

``setup(name, seed)`` parses the cases, generates the damage scenarios and
returns the workload's operations; everything it does counts as set-up.
Each operation is one pipeline.  Its ``run`` goes through the public grs
functions, looked up at call time so that traced runs see the wrappers;
``check`` runs the independent checks of ``checks.py`` on its output and on
the (model, limits, solution) triples captured from ``solve_mip``.

The damage scenarios are fixed: a restoration plan's ENS and run time
depend on which components a scenario damages (across area-1 scenarios of
``case118_smoke``, ENS ranges from 0 to 2 800 MWh and AC validation time by
a factor of four), so a seed-drawn scenario would swamp every change a
later commit makes.  The seed orders the operations of a round.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from grs import acvalidate, cli, grid, netio, workflows
from grs.grid import DamageScenario
from grs.mip import SolveLimits

HERE = Path(__file__).resolve().parent
CASES = HERE.parent / "cases"
OUT = HERE / "out"
CASE5 = CASES / "case5_restoration.m"
CASE118 = CASES / "case118_smoke.m"
AREA1 = "1-23,25-32,113-115,117"
DAMAGE118_SEED = 42  # gen-damage seed of the case118-dc-rop scenario
HEURISTIC_SEEDS = range(42, 46)  # gen-damage seeds of the heuristic panel


def area1_damage(seed: int) -> DamageScenario:
    """``grs gen-damage --fraction 0.35 --area <area 1>`` on case118."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"damage118_seed{seed}.json"
    rc = cli.main(["gen-damage", "--case", str(CASE118), "--fraction", "0.35",
                   "--area", AREA1, "--seed", str(seed), "--out", str(path)])
    if rc != 0:
        raise RuntimeError(f"gen-damage exited with {rc}")
    with open(path, encoding="utf-8") as f:
        return netio.damage_from_dict(json.load(f))


class PipelineOp:
    """One optimize-then-validate pipeline, plain or MRSP-first."""

    def __init__(self, name, case_path, net, dmg, periods, formulation,
                 limits: SolveLimits, mrsp=False, milp_optimum=False):
        self.name = name
        self.case_path = case_path
        self.net = net
        self.dmg = dmg
        self.periods = periods
        self.formulation = formulation
        self.limits = limits
        self.mrsp = mrsp
        self.milp_optimum = milp_optimum  # also compare with HiGHS's optimum

    def run(self):
        pipeline = (workflows.run_mrsp_then_rop if self.mrsp
                    else workflows.run_rop_then_redispatch)
        return pipeline(self.net, self.dmg, self.periods, self.formulation,
                        limits=self.limits)

    @staticmethod
    def true_ens(result) -> float:
        return result.true_ens_mwh

    @staticmethod
    def digest(result) -> str:
        return json.dumps(workflows.pipeline_result_to_dict(result),
                          sort_keys=True)

    def check(self, result, captured) -> list[str]:
        import checks

        data = checks.read_case(self.case_path)
        total = data.total_energy_mwh(self.periods)
        damaged = result.mrsp_set if self.mrsp else self.dmg.sorted_items()
        out = checks.plan_problems(result.plan, damaged, self.periods, total,
                                   result.true_ens_mwh)
        if len(captured) != (2 if self.mrsp else 1):
            return out + [f"{len(captured)} solves captured"]
        model, _, sol = captured[-1]
        scale = data.base_mva * result.plan.period_hours
        if self.formulation == "dc":
            out += checks.dc_rop_problems(
                model, result.plan, scale,
                self.limits.gap if self.milp_optimum else None)
        else:
            out += checks.cone_problems(model, sol.values,
                                        self.limits.cone_tol)
            out += checks.soc_ens_problems(result.estimated_ens_mwh,
                                           result.true_ens_mwh, total)
            out += checks.bound_problems(
                model, result.plan.objective_value / scale)
        if self.mrsp:
            out += checks.mrsp_problems(captured[0][0], result.mrsp_set, data,
                                        self.dmg.sorted_items())
        return out


class HeuristicOp:
    """``grs heuristic``: capability-first order, then the AC redispatch."""

    def __init__(self, name, net, dmg, periods):
        self.name = name
        self.net = net
        self.dmg = dmg
        self.periods = periods

    def run(self):
        case = grid.replicate(self.net, self.dmg, self.periods)
        plan = workflows.heuristic_order(self.net, self.dmg, self.periods)
        report = acvalidate.redispatch_plan(case, plan, True,
                                            estimated_ens=None)
        return plan, report

    @staticmethod
    def true_ens(out) -> float:
        return out[1].true_ens_mwh

    @staticmethod
    def digest(out) -> str:
        return json.dumps([netio.plan_to_dict(out[0]),
                           netio.report_to_dict(out[1])], sort_keys=True)

    def check(self, out, captured) -> list[str]:
        import checks

        plan, report = out
        data = checks.read_case(CASE118)
        total = data.total_energy_mwh(self.periods)
        return (checks.plan_problems(plan, self.dmg.sorted_items(),
                                     self.periods, total, report.true_ens_mwh)
                + checks.capability_order_problems(plan, data)
                + ([f"{len(captured)} solves captured"] if captured else []))


def _case118_dc_rop():
    net = netio.load_case(CASE118)
    dmg = area1_damage(DAMAGE118_SEED)
    return [PipelineOp("dc-rop", CASE118, net, dmg, 2, "dc",
                       SolveLimits(gap=0.01), milp_optimum=True)]


def _case5_all_damaged():
    net = netio.load_case(CASE5)
    with open(CASES / "damage5_all.json", encoding="utf-8") as f:
        return net, netio.damage_from_dict(json.load(f))


def _case5_dc_k5():
    net, dmg = _case5_all_damaged()
    return [PipelineOp("plain", CASE5, net, dmg, 5, "dc", SolveLimits(),
                       milp_optimum=True),
            PipelineOp("mrsp-first", CASE5, net, dmg, 5, "dc", SolveLimits(),
                       mrsp=True, milp_optimum=True)]


def _case5_soc_rop_k3():
    net, dmg = _case5_all_damaged()
    return [PipelineOp("soc-rop", CASE5, net, dmg, 3, "soc", SolveLimits())]


def _case118_heuristic():
    net = netio.load_case(CASE118)
    return [HeuristicOp(f"heuristic-seed{s}", net, area1_damage(s), 10)
            for s in HEURISTIC_SEEDS]


WORKLOADS = {
    "case118-dc-rop": _case118_dc_rop,
    "case5-dc-k5": _case5_dc_k5,
    "case5-soc-rop-k3": _case5_soc_rop_k3,
    "case118-heuristic": _case118_heuristic,
}


def setup(name: str, seed: int) -> list:
    """The workload's operations, in the order the seed gives them."""
    ops = WORKLOADS[name]()
    random.Random(seed).shuffle(ops)
    return ops
