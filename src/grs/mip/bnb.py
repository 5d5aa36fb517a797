"""Branch and bound over the bounded-variable simplex, with cone cuts.

Node selection is best bound (ties broken by node id), branching picks the
fractional binary with the highest pseudocost product score (ties by lowest
variable index), and children warm start from the parent basis.  A child
whose LP ends optimal records its objective gain per unit of bound change
for its (variable, direction); a direction never seen for a variable takes
the mean over all observations of that direction (1.0 before any).

Rotated-cone rows x^2 + y^2 <= u*v are enforced by outer approximation:
when an LP solution violates a cone by more than cone_tol, the equivalent
standard-cone function f = sqrt(x^2 + y^2 + ((u-v)/2)^2) - (u+v)/2 is
linearized at that point and the gradient cut is added globally (cuts are
valid for the whole tree).  The pool only grows: each round's new cuts are
appended to the standard form as rows with their own slacks, and the form is
never rebuilt.  Cuts are separated only where they can change the search,
as in LP/NLP-based branch and bound (Quesada & Grossmann 1992): an LP
whose objective reaches the incumbent gets none (it is pruned, or its dive
ends); an LP whose binaries are fractional gets up to MAX_CONE_ROUNDS
rounds at the root, one at a dive step and none at any other node, which
branches anyway; an integral LP gets rounds until its cones hold, up to
MAX_CONE_ROUNDS.  Every bound stays an outer-approximation bound.

A deterministic fix-and-round dive runs at the root and every DIVE_EVERY
nodes to supply incumbents early; it fixes the most fractional binary
at each step, records no pseudocost, and changes no node's place in the
heap, only the incumbent and the global cut pool.  A dive ends once its
LP's objective reaches the incumbent, with or without cone rows: each
further fix can only raise it.  The solve's SolveStats count each
incumbent improvement by where it was found (a dive or a node), the LPs
the separation rule left with violated cones, the open nodes the
integral bound discarded, the root node's simplex iterations, and its
bound and end time.

A model whose objective is integral (an integer constant, and integer
costs on binary columns only, as MRSP's repair count) scores a whole
number at every integer point, so the best bound rounded up,
ceil(bound - INT_TOL), is a bound too (Achterberg 2007).  Once it
reaches the incumbent no open node can hold a better point: the heap is
cleared and the solve ends OPTIMAL at gap 0 with the incumbent it had.

``simplex.solve_lp_core`` decides how an LP starts and why it stopped;
the root, a cold retry and ``solve_lp`` give it no start.  A node whose
warm LP stops at the iteration cap is solved once more cold; a cap there
too is a NumericalFailure.  Each loop first checks the gap, then the
integral bound, then the limits, so a gap met when a limit is reached
ends as a success.  The time limit is a deadline that every LP also
reads; a node whose LP stops at it goes back on the heap, so the
reported bound stays valid.  A solve stopped short of the gap names its
limit: ``TIME_LIMIT``, ``NODE_LIMIT``, or ``CUT_LIMIT`` for a node that
is integral but whose cones the cuts could not close (the budget or the
rounds ran out, or no new cut trims them).
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .model import (BINARY, CUT_LIMIT, GAP_LIMIT, INF, INFEASIBLE,
                    ITERATION_LIMIT, LE, NODE_LIMIT, OPTIMAL, TIME_LIMIT,
                    UNBOUNDED, ConeRow, LinRow, MipModel, MipSolution,
                    NumericalFailure, SolveStats, cone_violation)
from .simplex import Basis, build_lp_data, solve_lp_core

INT_TOL = 1e-6
CONE_TOL = 1e-6
MAX_CONE_ROUNDS = 60  # cut rounds of the root LP or of an integral LP
CONE_CUT_BUDGET = 6000  # cuts in the global pool
DIVE_EVERY = 25  # nodes between dives

log = logging.getLogger("grs.mip")


@dataclass
class SolveLimits:
    gap: float = 1e-6
    nodes: int | None = None
    time_s: float | None = None
    cone_tol: ClassVar[float] = CONE_TOL


def cone_cut(cone: ConeRow, x: np.ndarray) -> LinRow:
    """Gradient cut of f = sqrt(x^2+y^2+((u-v)/2)^2) - (u+v)/2 at point x."""
    xh, yh, uh, vh = x[cone.x], x[cone.y], x[cone.u], x[cone.v]
    rho = math.sqrt(xh * xh + yh * yh + ((uh - vh) / 2.0) ** 2)
    f0 = rho - (uh + vh) / 2.0
    gx = xh / rho
    gy = yh / rho
    gu = (uh - vh) / (4.0 * rho) - 0.5
    gv = -(uh - vh) / (4.0 * rho) - 0.5
    rhs = gx * xh + gy * yh + gu * uh + gv * vh - f0
    coeffs = {}
    for idx, g in ((cone.x, gx), (cone.y, gy), (cone.u, gu), (cone.v, gv)):
        coeffs[idx] = coeffs.get(idx, 0.0) + g
    return LinRow(coeffs, LE, rhs, name=f"cut:{cone.name}")


class _LpContext:
    """Master standard-form data plus the growing global cut pool."""

    def __init__(self, model: MipModel):
        self.model = model
        self.cuts: list[LinRow] = []
        self.cut_signatures: set = set()
        self.binaries = model.binary_indices()
        self.lp = build_lp_data(model)

    def add_cut(self, cut: LinRow) -> bool:
        """Append a cut unless a nearly identical one is already pooled."""
        sig = (cut.name, tuple(sorted((j, round(c, 7))
                                      for j, c in cut.coeffs.items())),
               round(cut.rhs, 7))
        if sig in self.cut_signatures:
            return False
        self.cut_signatures.add(sig)
        self.cuts.append(cut)
        return True

    def rebuild(self):
        """Append the cuts pooled since the last build to the standard form."""
        self.lp = build_lp_data(self.model, self.cuts, prev=self.lp)

    def bounds_with(self, fixes: dict[int, tuple[float, float]]):
        lb = self.lp.lb.copy()
        ub = self.lp.ub.copy()
        for j, (lo, hi) in fixes.items():
            lb[j], ub[j] = lo, hi
        return lb, ub


def _solve_with_cones(ctx: _LpContext, fixes, start: Basis | None,
                      limits: SolveLimits, stats: SolveStats,
                      deadline: float | None = None,
                      frac_rounds: int = MAX_CONE_ROUNDS, cutoff: float = INF):
    """Solve the LP relaxation, adding cone cuts while they can change the
    search (module docstring).

    Returns (LpResult, cone_ok); the result's objective is a valid relaxation
    bound whatever cone_ok says (outer approximation).  The loop stops at
    the first of: the objective reaches ``cutoff`` (cone_ok False: the LP
    is pruned, or its dive ends); the cones hold, or the model has none
    (cone_ok True); the binaries are still fractional after
    ``frac_rounds`` rounds (cone_ok True: the point is branched on or
    fixed further anyway); the budget, MAX_CONE_ROUNDS or new cuts run out
    (cone_ok False).  The first and third count in ``unseparated_lps``
    when a cone is violated; the defaults are the root's, which has no
    incumbent yet.  The first LP starts from ``start`` (cold when None),
    each cut round's from the last basis; every LP gets ``deadline`` (see
    ``solve_lp_core``).
    """
    bas = start
    for rnd in range(MAX_CONE_ROUNDS + 1):
        lb, ub = ctx.bounds_with(fixes)
        res = solve_lp_core(ctx.lp.with_bounds(lb, ub), start=bas,
                            deadline=deadline)
        stats.add(res.stats)
        if res.status != OPTIMAL:
            return res, True
        violated = [
            cone for cone in ctx.model.cone_rows
            if cone_violation(cone, res.x) > limits.cone_tol
        ]
        if res.obj >= cutoff:
            stats.unseparated_lps += bool(violated)
            return res, False
        if not violated:
            return res, True
        if rnd >= frac_rounds and _fractional(ctx.binaries, res.x):
            stats.unseparated_lps += 1
            return res, True
        if len(ctx.cuts) >= CONE_CUT_BUDGET:
            return res, False
        added = 0
        for cone in violated:
            if ctx.add_cut(cone_cut(cone, res.x)):
                added += 1
                stats.cuts += 1
        if added == 0:
            # every useful linearization is already pooled; the remaining
            # violation is below what these cuts can trim
            return res, False
        ctx.rebuild()
        stats.cut_rounds += 1
        bas = res.basis
    return res, False


def _integral_objective(model: MipModel) -> bool:
    """Every integer point scores a whole number: an integer constant, and
    integer costs on binary columns only."""
    return float(model.obj_const).is_integer() and all(
        c == 0.0 or (float(c).is_integer() and model.vars[j].integrality
                     == BINARY) for j, c in model.obj.items())


def _fractional(binaries: list[int], x: np.ndarray) -> list[int]:
    return [j for j in binaries if abs(x[j] - round(x[j])) > INT_TOL]


def _most_fractional(frac_idx: list[int], x: np.ndarray) -> int:
    best = frac_idx[0]
    best_d = abs(x[best] - round(x[best]))
    for j in frac_idx[1:]:
        d = abs(x[j] - round(x[j]))
        if d > best_d + 1e-12:
            best, best_d = j, d
    return best


class _Pseudocosts:
    """Objective gain per unit of bound change, summed per (binary, direction).

    Direction 0 is the down child (distance x_j), 1 the up child (1 - x_j).
    """

    def __init__(self):
        self.sums: tuple[dict, dict] = ({}, {})
        self.counts: tuple[dict, dict] = ({}, {})

    def record(self, j: int, direction: int, distance: float, gain: float):
        s, c = self.sums[direction], self.counts[direction]
        s[j] = s.get(j, 0.0) + max(gain, 0.0) / distance
        c[j] = c.get(j, 0) + 1

    def select(self, frac_idx: list[int], x: np.ndarray) -> int:
        """The highest product score; ties go to the first (lowest) index."""
        means = [sum(s.values()) / sum(c.values()) if c else 1.0
                 for s, c in zip(self.sums, self.counts)]

        def pc(d, j):
            c = self.counts[d].get(j)
            return self.sums[d][j] / c if c else means[d]

        return max(frac_idx, key=lambda j: max(pc(0, j) * x[j], 1e-6)
                   * max(pc(1, j) * (1.0 - x[j]), 1e-6))


@dataclass(order=True)
class _Node:
    bound: float
    nid: int
    fixes: dict = field(compare=False)
    basis: Basis | None = field(compare=False, default=None)
    branch: tuple | None = field(compare=False, default=None)  # (j, dir, dist)


def solve_lp(model: MipModel) -> MipSolution:
    """Solve the LP relaxation: binaries relaxed, cone rows ignored."""
    t0 = time.perf_counter()
    stats = SolveStats()
    res = solve_lp_core(build_lp_data(model))
    stats.add(res.stats)
    stats.wall_s = time.perf_counter() - t0
    _log_summary("solve_lp", res.status, stats)
    return _lp_to_solution(model, res, stats)


def _log_summary(what: str, status: str, stats: SolveStats):
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s %s: %s", what, status, " ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in asdict(stats).items()))


def _lp_to_solution(model: MipModel, res, stats) -> MipSolution:
    sgn = 1.0 if model.sense == "min" else -1.0
    n = len(model.vars)
    if res.status == OPTIMAL:
        obj = sgn * res.obj + model.obj_const
        return MipSolution(OPTIMAL, res.x[:n].copy(), obj, obj, 0.0, stats)
    if res.status == INFEASIBLE:
        return MipSolution(INFEASIBLE, res.x[:n].copy(), math.nan, math.nan,
                           math.inf, stats, res.message)
    if res.status == UNBOUNDED:
        bad = -sgn * INF if model.sense == "max" else -INF
        return MipSolution(UNBOUNDED, res.x[:n].copy(), bad, bad, math.inf,
                           stats, res.message)
    raise NumericalFailure(res.message or "simplex did not terminate")


def solve_mip(model: MipModel, limits: SolveLimits | None = None) -> MipSolution:
    """Branch and bound; see module docstring for the search rules."""
    limits = limits or SolveLimits()
    t0 = time.perf_counter()
    deadline = None if limits.time_s is None else t0 + limits.time_s
    stats = SolveStats()
    ctx = _LpContext(model)
    sgn = 1.0 if model.sense == "min" else -1.0
    n = len(model.vars)
    binaries = ctx.binaries
    integral = _integral_objective(model)

    def external(v):  # internal minimization value -> reported objective
        return sgn * v + model.obj_const

    incumbent_x = None
    incumbent_obj = INF  # internal scale
    next_id = 0
    heap: list[_Node] = []
    pseudo = _Pseudocosts()

    def rel_gap():
        if incumbent_x is None:
            return math.inf
        a, b = external(incumbent_obj), external(best_bound())
        return abs(a - b) / max(1.0, abs(a))

    def best_bound():
        if heap:
            return min(heap[0].bound, incumbent_obj)
        return incumbent_obj if incumbent_x is not None else INF

    def finish(status):
        stats.wall_s = time.perf_counter() - t0
        _log_summary("solve_mip", status, stats)
        if incumbent_x is None:
            if status == INFEASIBLE:
                return MipSolution(INFEASIBLE, np.zeros(n), math.nan, math.nan,
                                   math.inf, stats)
            return MipSolution(status, np.zeros(n), math.nan,
                               external(best_bound()), math.inf, stats,
                               "no incumbent found")
        gap = rel_gap()
        return MipSolution(status, incumbent_x[:n].copy(),
                           external(incumbent_obj), external(best_bound()),
                           gap, stats)

    def cutoff():
        """An LP objective at or past this cannot improve the incumbent."""
        return incumbent_obj - 1e-12

    def try_incumbent(x, obj) -> bool:
        """Keep (x, obj) if it improves the incumbent; True if it did."""
        nonlocal incumbent_x, incumbent_obj
        if obj < cutoff():
            incumbent_x = x.copy()
            incumbent_obj = obj
            return True
        return False

    def dive(res, fixes):
        fixes = dict(fixes)
        for _ in range(len(binaries) + 2):
            frac = _fractional(binaries, res.x)
            if not frac:
                ok = all(cone_violation(c, res.x) <= limits.cone_tol
                         for c in model.cone_rows)
                if ok and try_incumbent(res.x, res.obj):
                    stats.dive_incumbents += 1
                return
            j = _most_fractional(frac, res.x)
            v = float(round(res.x[j]))
            fixes[j] = (v, v)
            res, cone_ok = _solve_with_cones(ctx, fixes, res.basis, limits,
                                             stats, deadline, 1, cutoff())
            if res.status != OPTIMAL or not cone_ok:
                return

    # root
    root = _Node(-INF, next_id, {}, None)
    next_id += 1
    heapq.heappush(heap, root)

    def solve_node(node, start):
        """The node's LP with its cut rounds (fractional ones at the root
        only); the root's iterations also count in root_iters, and its end
        sets root_time and root_bound."""
        before = stats.lp_iters
        out = _solve_with_cones(ctx, node.fixes, start, limits, stats,
                                deadline, MAX_CONE_ROUNDS if node is root
                                else 0, cutoff())
        if node is root:
            stats.root_iters += stats.lp_iters - before
            stats.root_time = time.perf_counter() - t0
            stats.root_bound = (external(out[0].obj) if out[0].status == OPTIMAL
                                else math.nan)
        return out

    while heap:
        # a met gap wins over a limit reached at the same time
        if incumbent_x is not None:
            g = rel_gap()
            if g <= 1e-6:
                return finish(OPTIMAL)
            if g <= limits.gap:
                return finish(GAP_LIMIT)
            # no open node can hold a whole number below the incumbent's
            bound = best_bound()
            if integral and math.isfinite(bound) and (
                    math.ceil(bound - INT_TOL) >= incumbent_obj - INT_TOL):
                stats.integral_prunes += len(heap)
                heap.clear()
                return finish(OPTIMAL)
        if deadline is not None and time.perf_counter() > deadline:
            return finish(TIME_LIMIT)
        if limits.nodes is not None and stats.nodes >= limits.nodes:
            return finish(NODE_LIMIT)

        node = heapq.heappop(heap)
        # warm from the parent's basis, then cold once after an iteration cap
        for start in (node.basis, None):
            res, cone_ok = solve_node(node, start)
            if res.status == TIME_LIMIT:
                # the node stays open, so the bound stays valid
                heapq.heappush(heap, node)
                return finish(TIME_LIMIT)
            if res.status != ITERATION_LIMIT:
                break
        else:
            raise NumericalFailure(res.message or "node LP failed")
        stats.nodes += 1

        if res.status == INFEASIBLE:
            continue
        if res.status == UNBOUNDED:
            return finish(UNBOUNDED)

        node_obj = res.obj
        if node.branch is not None:
            pseudo.record(*node.branch, node_obj - node.bound)
            stats.branch_obs += 1
        if incumbent_x is not None and node_obj >= cutoff():
            continue

        frac = _fractional(binaries, res.x)
        if not frac:
            if cone_ok:
                if try_incumbent(res.x, node_obj):
                    stats.node_incumbents += 1
                continue
            # integral but the cuts could not close the cones: the region
            # cannot be certified, give up honestly
            return finish(CUT_LIMIT)

        if stats.nodes == 1 or stats.nodes % DIVE_EVERY == 0:
            dive(res, node.fixes)

        j = pseudo.select(frac, res.x)
        xj = float(res.x[j])
        for v, dist in ((0.0, xj), (1.0, 1.0 - xj)):  # down child first
            fixes = dict(node.fixes)
            fixes[j] = (v, v)
            child = _Node(node_obj, next_id, fixes, res.basis,
                          (j, int(v), dist))
            next_id += 1
            heapq.heappush(heap, child)

    if incumbent_x is None:
        return finish(INFEASIBLE)
    return finish(OPTIMAL)
