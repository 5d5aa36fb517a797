"""Output checks that do not come from grs.

Each check returns a list of problems; an empty list means the output
passed.  The numbers they compare against are recomputed here: case data
from the Matpower file with a parser of our own, optima and bounds with
HiGHS (``scipy.optimize.milp``/``linprog``) on arrays built from the public
``MipModel`` fields, and cone rows with numpy at the returned values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

REL_TOL = 1e-6  # objective agreement with HiGHS, relative to max(1, |obj|)


@dataclass
class CaseData:
    """The columns of a Matpower case the checks need, in MW."""

    base_mva: float
    bus: np.ndarray
    gen: np.ndarray
    branch: np.ndarray

    @property
    def total_load_mw(self) -> float:
        return float(self.bus[:, 2].sum())

    def total_energy_mwh(self, periods: int, hours: float = 1.0) -> float:
        """Energy demanded over period states 0..K."""
        return self.total_load_mw * hours * (periods + 1)

    def capability(self, kind: str, cid: int) -> float:
        if kind == "gen":
            return float(self.gen[cid - 1, 8])
        if kind == "branch":
            rate = float(self.branch[cid - 1, 5])
            return math.inf if rate == 0.0 else rate
        return math.inf


def read_case(path) -> CaseData:
    """Numeric bus/gen/branch matrices and baseMVA of a Matpower file."""
    sections: dict[str, list[list[float]]] = {}
    base = None
    key = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("%", 1)[0].strip()
            if key is None:
                if line.startswith("mpc.baseMVA"):
                    base = float(line.split("=")[1].strip(" ;"))
                elif line.startswith("mpc.") and line.rstrip().endswith("["):
                    key = line[4:].split("=")[0].strip()
                    sections[key] = []
                continue
            if line.startswith("]"):
                key = None
                continue
            for chunk in line.split(";"):
                if chunk.split():
                    sections[key].append([float(t) for t in chunk.split()])
    return CaseData(base, np.array(sections["bus"]), np.array(sections["gen"]),
                    np.array(sections["branch"]))


# -- plan invariants --------------------------------------------------------

def plan_problems(plan, damaged, periods: int, total_energy: float,
                  true_ens: float) -> list[str]:
    """Invariants of a restoration plan, recomputed from its tables.

    Statuses of the damaged components never decrease and run from 0 at
    period 0 to 1 at period K; each period brings at most ceil(|damaged|/K)
    new repairs; load fractions never decrease and stay in [0, 1];
    0 <= true ENS <= total energy.
    """
    out = []
    budget = -(-len(damaged) // periods)
    if plan.periods != periods:
        out.append(f"plan has {plan.periods} periods, expected {periods}")
    for item in sorted(damaged):
        zs = plan.status.get(item)
        if zs is None or len(zs) != periods + 1:
            out.append(f"{item}: missing or wrong-length status")
            continue
        if any(b < a for a, b in zip(zs, zs[1:])):
            out.append(f"{item}: status decreases")
        if zs[0] != 0 or zs[-1] != 1:
            out.append(f"{item}: status runs {zs[0]}..{zs[-1]}, not 0..1")
    for n in range(1, periods + 1):
        new = sum(plan.status[it][n] - plan.status[it][n - 1]
                  for it in damaged if it in plan.status
                  and len(plan.status[it]) == periods + 1)
        if new > budget:
            out.append(f"period {n}: {new} repairs exceed budget {budget}")
    for lid, fr in sorted(plan.load_fraction.items()):
        if any(b < a - 1e-7 for a, b in zip(fr, fr[1:])):
            out.append(f"load {lid}: served fraction decreases")
        if min(fr) < -1e-9 or max(fr) > 1.0 + 1e-9:
            out.append(f"load {lid}: fraction outside [0, 1]")
    if not 0.0 <= true_ens <= total_energy + 1e-6:
        out.append(f"true ENS {true_ens} outside [0, {total_energy}]")
    return out


def capability_order_problems(plan, data: CaseData) -> list[str]:
    """A heuristic plan repairs in non-increasing capability order."""
    first = {it: zs.index(1) for it, zs in plan.status.items() if 1 in zs}
    out = []
    for a in first:
        for b in first:
            if first[a] < first[b] and (data.capability(*a)
                                        < data.capability(*b)):
                out.append(f"{a} (period {first[a]}) repaired before the "
                           f"more capable {b} (period {first[b]})")
    return out


# -- HiGHS on the public model fields -------------------------------------

def _arrays(model):
    n = len(model.vars)
    rows, cols, vals = [], [], []
    lo = np.full(len(model.lin_rows), -np.inf)
    hi = np.full(len(model.lin_rows), np.inf)
    for k, row in enumerate(model.lin_rows):
        for j, c in row.coeffs.items():
            rows.append(k)
            cols.append(j)
            vals.append(c)
        if row.sense in ("<=", "=="):
            hi[k] = row.rhs
        if row.sense in (">=", "=="):
            lo[k] = row.rhs
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(model.lin_rows), n))
    sgn = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n)
    for j, v in model.obj.items():
        c[j] = sgn * v
    lb = np.array([v.lb for v in model.vars])
    ub = np.array([v.ub for v in model.vars])
    integ = np.array([v.integrality == "binary" for v in model.vars], dtype=int)
    return c, A, lo, hi, lb, ub, integ, sgn


def highs_objective(model, integral: bool, fix: dict[int, float] | None = None,
                    time_limit: float = 600.0) -> float:
    """Optimum of the model's linear rows under HiGHS, in the model's sense.

    ``integral`` keeps the binaries; otherwise they are relaxed.  Cone rows
    are dropped, so for a cone model this is a relaxation bound.  ``fix``
    pins variables to values.  Returns nan when HiGHS finds no optimum.
    """
    c, A, lo, hi, lb, ub, integ, sgn = _arrays(model)
    for j, v in (fix or {}).items():
        lb[j] = ub[j] = v
    res = milp(c, constraints=LinearConstraint(A, lo, hi),
               bounds=Bounds(lb, ub),
               integrality=integ if integral else np.zeros_like(integ),
               options={"time_limit": time_limit})
    if res.status != 0:
        return math.nan
    return sgn * res.fun + model.obj_const


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def plan_binaries(model, plan) -> dict[int, float]:
    """The model's repair indicators z_<kind>[<id>]@<n> set from the plan."""
    return {model.var_index(f"z_{kind}[{cid}]@{n}"): float(z)
            for (kind, cid), zs in plan.status.items()
            for n, z in enumerate(zs)}


def dc_rop_problems(model, plan, scale: float,
                    milp_gap: float | None) -> list[str]:
    """HiGHS cross-checks of an ordering solve.

    With the plan's binaries fixed HiGHS reproduces the reported objective
    (``plan.objective_value`` is MWh, ``scale`` MWh per model unit), and the
    reported objective never beats the LP-relaxation bound.  Unless
    ``milp_gap`` is None, the objective is also within that relative gap
    (plus REL_TOL) of the HiGHS MILP optimum.
    """
    out = []
    reported = plan.objective_value / scale
    fixed = highs_objective(model, False, plan_binaries(model, plan))
    if not _close(reported, fixed):
        out.append(f"objective {reported} but HiGHS gives {fixed} "
                   "with the plan's binaries fixed")
    out += bound_problems(model, reported)
    if milp_gap is not None:
        opt = highs_objective(model, True)
        if not _close(reported, opt, milp_gap + REL_TOL):
            out.append(f"objective {reported} but the HiGHS optimum is {opt}")
    return out


def bound_problems(model, reported: float) -> list[str]:
    """The reported objective never beats HiGHS's LP-relaxation bound."""
    bound = highs_objective(model, False)
    slack = REL_TOL * max(1.0, abs(bound))
    beats = (reported > bound + slack if model.sense == "max"
             else reported < bound - slack)
    if math.isnan(bound) or beats:
        return [f"objective {reported} beats the LP-relaxation bound {bound}"]
    return []


def mrsp_problems(model, kept, data: CaseData, damaged) -> list[str]:
    """The repair set is as small as HiGHS's optimum and feeds full load."""
    out = []
    opt = highs_objective(model, True)
    if math.isnan(opt) or len(kept) != round(opt):
        out.append(f"repair set of {len(kept)} but the HiGHS optimum is {opt}")
    off = set(damaged) - set(kept)
    if not dc_full_load_feasible(data, off):
        out.append("the kept repair set cannot carry the full load under DC")
    return out


def dc_full_load_feasible(data: CaseData, off) -> bool:
    """Full load passes under a DC relaxation with the ``off`` items out.

    Power balance per bus, the DC flow law and thermal ratings; angle
    limits and generator minimums are left out, so this can only accept
    more than the model does.  Returns False when no dispatch exists.
    """
    bus_ids = [int(b) for b, t in zip(data.bus[:, 0], data.bus[:, 1]) if t != 4]
    pos = {b: i for i, b in enumerate(bus_ids)}
    gens = [k for k in range(1, len(data.gen) + 1)
            if data.gen[k - 1, 7] > 0 and ("gen", k) not in off
            and int(data.gen[k - 1, 0]) in pos]
    brs = [k for k in range(1, len(data.branch) + 1)
           if data.branch[k - 1, 10] > 0 and ("branch", k) not in off
           and int(data.branch[k - 1, 0]) in pos
           and int(data.branch[k - 1, 1]) in pos]
    ng, nf, nb = len(gens), len(brs), len(bus_ids)
    n = ng + nf + nb  # generation, flows, angles (all in MW / radians)
    rows, cols, vals = [], [], []
    b_eq = np.zeros(nb + nf)
    for i, k in enumerate(gens):
        rows.append(pos[int(data.gen[k - 1, 0])])
        cols.append(i)
        vals.append(1.0)
    for j, k in enumerate(brs):
        f, t = int(data.branch[k - 1, 0]), int(data.branch[k - 1, 1])
        rows += [pos[f], pos[t]]
        cols += [ng + j, ng + j]
        vals += [-1.0, 1.0]
        tap = data.branch[k - 1, 8] or 1.0
        bp = data.base_mva / (data.branch[k - 1, 3] * tap)  # MW per radian
        rows += [nb + j] * 3
        cols += [ng + j, ng + nf + pos[f], ng + nf + pos[t]]
        vals += [1.0, -bp, bp]
        b_eq[nb + j] = -bp * math.radians(data.branch[k - 1, 9])
    for row in data.bus:
        if int(row[0]) in pos:
            b_eq[pos[int(row[0])]] = row[2] + row[4]  # demand + shunt MW
    bounds = [(min(0.0, data.gen[k - 1, 9]), data.gen[k - 1, 8]) for k in gens]
    for k in brs:
        rate = data.branch[k - 1, 5]
        bounds.append((-rate, rate) if rate > 0 else (None, None))
    bounds += [(None, None)] * nb
    A = sp.csr_matrix((vals, (rows, cols)), shape=(nb + nf, n))
    res = linprog(np.zeros(n), A_eq=A, b_eq=b_eq, bounds=bounds,
                  method="highs")
    return res.status == 0


# -- SOC ------------------------------------------------------------------

def cone_problems(model, values, cone_tol: float) -> list[str]:
    """Every rotated-cone row x^2 + y^2 <= u*v holds within cone_tol."""
    if not model.cone_rows:
        return []
    idx = np.array([[c.x, c.y, c.u, c.v] for c in model.cone_rows])
    x, y, u, v = (values[idx[:, i]] for i in range(4))
    viol = x * x + y * y - u * v
    bad = np.flatnonzero(viol > cone_tol)
    return [f"cone row {model.cone_rows[k].name} violated by {viol[k]:.3g}"
            for k in bad[:5]] + ([f"... {len(bad) - 5} more"]
                                 if len(bad) > 5 else [])


def soc_ens_problems(estimated: float, true: float,
                     total_energy: float) -> list[str]:
    """A relaxation never promises more service than AC delivers."""
    if estimated > true + 1e-4 * total_energy:
        return [f"estimated ENS {estimated} exceeds true ENS {true}"]
    return []
