"""End-to-end restoration pipelines and the capability-order baseline.

The pipeline plans with the chosen power-flow model (``solve_rop``, the
checked solve and plan decoding that ``grs rop`` shares), then validates
with the AC redispatch (``run_rop_then_redispatch``).  MRSP-first
(``run_mrsp_then_rop``) is the MRSP stage (``solve_mrsp``, then
``update_status``) followed by that same pipeline on the kept components;
it trades served-while-repairing energy for a much smaller ordering model.

The baseline orders repairs by component capability (generator pmax, branch
rating; unlimited ratings first) and scores service with the AC validator,
whose dispatches also give its ENS report (``run_heuristic``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import acvalidate, formulations, netio
from .grid import (BRANCH, GEN, DamageScenario, EnsReport, GridError,
                   MultiPeriodCase, Network, RestorationPlan, apply_damage,
                   ens_mwh, indicator, replicate, update_status)
from .mip import (GAP_LIMIT, INFEASIBLE, OPTIMAL, MipError, MipModel,
                  MipSolution, SolveLimits, solve_lp, solve_mip)


class PipelineInfeasible(Exception):
    """A planning stage whose model has no feasible point: exit code 1."""

    def __init__(self, stage, message=""):
        super().__init__(f"{stage}: {message or 'infeasible'}")
        self.stage = stage


class SolverLimit(MipError):
    """A solve stopped at a limit before the gap target."""

    def __init__(self, stage, sol: MipSolution):
        super().__init__(f"{stage}: stopped at {sol.status}, bound {sol.bound}")
        self.stage = stage
        self.solution = sol


@dataclass
class PipelineResult:
    formulation: str
    plan: RestorationPlan
    report: EnsReport
    estimated_ens_mwh: float
    true_ens_mwh: float
    timings: dict[str, float] = field(default_factory=dict)
    mrsp_set: list[tuple[str, int]] | None = None
    mip_gap: float = 0.0

    def check(self, total_energy_mwh: float):
        if self.formulation == formulations.SOC:
            slack = 1e-4 * max(total_energy_mwh, 1.0)
            if self.estimated_ens_mwh > self.true_ens_mwh + slack:
                raise GridError(
                    f"relaxation estimate {self.estimated_ens_mwh} exceeds "
                    f"true ENS {self.true_ens_mwh}")
        return self


def _checked(sol: MipSolution, stage: str) -> MipSolution:
    if sol.status == INFEASIBLE:
        raise PipelineInfeasible(stage)
    if sol.status in (OPTIMAL, GAP_LIMIT):
        return sol
    raise SolverLimit(stage, sol)


def run_rop_then_redispatch(net: Network, dmg: DamageScenario, periods: int,
                            formulation: str = formulations.DC,
                            period_hours: float = 1.0,
                            count_initial_period: bool = True,
                            limits: SolveLimits | None = None) -> PipelineResult:
    """Order repairs with the approximate model, then validate against AC."""
    timings: dict[str, float] = {}
    t_all = time.perf_counter()
    case = replicate(net, dmg, periods, period_hours)

    t0 = time.perf_counter()
    model = formulations.build_rop(case, formulation)
    timings["build_rop"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan, sol = solve_rop(case, model, formulation, limits)
    timings["solve_rop"] = time.perf_counter() - t0

    est = formulations.estimated_ens_mwh(case, plan, count_initial_period)

    t0 = time.perf_counter()
    report = acvalidate.redispatch_plan(case, plan, count_initial_period, est)
    timings["redispatch"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_all

    result = PipelineResult(formulation, plan, report, est,
                            report.true_ens_mwh, timings, None, sol.gap)
    # the demanded energy is the ENS of serving nothing
    return result.check(ens_mwh(case.total_load_mw(), [0.0] * (periods + 1),
                                period_hours, count_initial_period))


def solve_rop(case: MultiPeriodCase, model: MipModel, formulation: str,
              limits: SolveLimits | None = None):
    """Solve a built ROP model; returns its decoded plan and the solution.

    Infeasible raises ``PipelineInfeasible``, a solver limit ``SolverLimit``.
    """
    sol = _checked(solve_mip(model, limits), "rop")
    return formulations.decode_plan(case, model, sol, formulation), sol


def solve_mrsp(damaged: Network, model: MipModel,
               limits: SolveLimits | None = None):
    """Solve a built MRSP model; an infeasible one raises
    ``PipelineInfeasible``.

    Returns each damaged component's repair indicator and the components
    kept for repair.
    """
    try:
        sol = _checked(solve_mip(model, limits), "mrsp")
    except PipelineInfeasible as exc:
        raise PipelineInfeasible(
            "mrsp", "full load unreachable even with all repairs") from exc
    indicators = formulations.mrsp_set(damaged, model, sol)
    kept = frozenset((kind, cid) for (kind, cid), z in indicators.items()
                     if indicator(z, f"{kind} {cid}") == 1)
    return indicators, DamageScenario(kept)


def run_mrsp_then_rop(net: Network, dmg: DamageScenario, periods: int,
                      formulation: str = formulations.DC,
                      period_hours: float = 1.0,
                      count_initial_period: bool = True,
                      limits: SolveLimits | None = None) -> PipelineResult:
    """Shrink the repair set, then run the plain pipeline on the kept items."""
    t_all = time.perf_counter()
    damaged_net = apply_damage(net, dmg)

    t0 = time.perf_counter()
    mrsp_model = formulations.build_mrsp(damaged_net, formulation)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    indicators, kept = solve_mrsp(damaged_net, mrsp_model, limits)
    solve_s = time.perf_counter() - t0

    # update_status keeps the loads, so the inner relaxation check holds
    result = run_rop_then_redispatch(
        update_status(damaged_net, indicators), kept, periods, formulation,
        period_hours, count_initial_period, limits)
    result.mrsp_set = kept.sorted_items()
    timings = result.timings
    timings["build_mrsp"] = build_s
    timings["solve_mrsp"] = solve_s
    timings["optimize"] = (timings["build_mrsp"] + timings["solve_mrsp"]
                           + timings["build_rop"] + timings["solve_rop"])
    timings["total"] = time.perf_counter() - t_all
    return result


def capability(net: Network, kind: str, cid: int) -> float:
    if kind == GEN:
        return net.gens[cid].pmax
    if kind == BRANCH:
        rate = net.branches[cid].rate_a
        return float("inf") if rate == 0.0 else rate
    return float("inf")  # buses first: everything depends on them


def heuristic_order(net: Network, dmg: DamageScenario,
                    periods: int, period_hours: float = 1.0) -> RestorationPlan:
    """Largest-capability-first repair order, service scored by AC validation.

    Capability ties break by (id, kind name); the order is chunked into the
    same per-period budget the optimizing model would get.
    """
    return run_heuristic(net, dmg, periods, period_hours)[0]


def run_heuristic(net: Network, dmg: DamageScenario, periods: int,
                  period_hours: float = 1.0, count_initial_period: bool = True):
    """``heuristic_order``'s plan and its AC report, from one validation pass.

    The report equals ``redispatch_plan`` on the plan: it integrates the
    dispatches that scored the order.
    """
    case = replicate(net, dmg, periods, period_hours)
    periods = case.periods  # collapses to the single base state if undamaged
    items = sorted(case.damaged_items(),
                   key=lambda it: (-capability(net, it[0], it[1]), it[1], it[0]))
    budget = case.repairs_per_period
    status: dict[tuple[str, int], list[int]] = {it: [0] for it in items}
    for n in range(1, periods + 1):
        batch = set(items[(n - 1) * budget: n * budget])
        for it in items:
            status[it].append(1 if it in batch else status[it][n - 1])

    dispatches = acvalidate.plan_dispatches(case.base, status, periods)
    per_load = {lid: [fractions.get(lid, 0.0) for _, fractions in dispatches]
                for lid in case.base.live().loads}
    served_mwh = 0.0
    for dispatch, _ in dispatches:
        served_mwh += dispatch.served_mw * period_hours

    plan = RestorationPlan(periods=periods, period_hours=period_hours,
                           status=status, load_fraction=per_load,
                           objective_value=round(served_mwh, 3),
                           formulation="heuristic").validate(case)
    return plan, acvalidate.ens_report(case, plan, dispatches,
                                       count_initial_period)


def score_plan_dc(case: MultiPeriodCase, plan: RestorationPlan) -> float:
    """Served energy (MWh) the DC ordering model assigns to a fixed plan."""
    model = formulations.build_rop(case, formulations.DC)
    for item, zs in plan.status.items():
        kind, cid = item
        for n, z in enumerate(zs):
            idx = model.var_index(formulations.var_name("z_" + kind, cid, n))
            model.vars[idx].lb = model.vars[idx].ub = float(z)
    sol = _checked(solve_lp(model), "dc-score")
    return sol.objective * case.base.base_mva * case.period_hours


def pipeline_result_to_dict(result: PipelineResult) -> dict:
    out = {
        "formulation": result.formulation,
        "estimated_ens_mwh": round(result.estimated_ens_mwh, 3),
        "true_ens_mwh": round(result.true_ens_mwh, 3),
        "mip_gap": round(result.mip_gap, 9),
        "plan": netio.plan_to_dict(result.plan),
        "report": netio.report_to_dict(result.report),
    }
    if result.mrsp_set is not None:
        out["mrsp_set"] = netio.damage_to_dict(
            DamageScenario(frozenset(result.mrsp_set)))
    return out
