"""Bounded-variable mixed-integer linear model with optional rotated-cone rows.

A model holds variables with finite or infinite bounds, sparse linear rows,
and rotated second-order cone rows of the form x^2 + y^2 <= u*v (u, v >= 0).
Cone rows are enforced by the solver through dynamically generated linear
cuts, so a single LP kernel serves both pure MILPs and MISOCPs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

INF = math.inf

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
EQ = "=="
GE = ">="

# solution statuses
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap_limit"
ITERATION_LIMIT = "iteration_limit"  # an LP stopped at its iteration cap
# solve_mip stopped short of the gap (TIME_LIMIT: also an LP at its deadline)
TIME_LIMIT = "time_limit"
NODE_LIMIT = "node_limit"
CUT_LIMIT = "cut_limit"  # an integral node's cones the cuts cannot close


class MipError(Exception):
    """A model the solver rejects, or a solve it could not finish: exit
    code 3."""


class NumericalFailure(MipError):
    """Simplex could not make progress (tiny pivots / iteration cap)."""


@dataclass
class Var:
    name: str
    lb: float
    ub: float
    integrality: str = CONTINUOUS


@dataclass
class LinRow:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    name: str = ""


@dataclass
class ConeRow:
    """x^2 + y^2 <= u*v with u, v >= 0; fields are variable indices."""

    x: int
    y: int
    u: int
    v: int
    name: str = ""


@dataclass
class MipModel:
    sense: str = "min"  # objective sense: "min" or "max"
    vars: list[Var] = field(default_factory=list)
    lin_rows: list[LinRow] = field(default_factory=list)
    cone_rows: list[ConeRow] = field(default_factory=list)
    obj: dict[int, float] = field(default_factory=dict)
    obj_const: float = 0.0
    _index: dict[str, int] = field(default_factory=dict)

    def add_var(self, name, lb, ub, integrality=CONTINUOUS) -> int:
        if lb > ub:
            raise MipError(f"variable {name}: lb {lb} > ub {ub}")
        if integrality == BINARY and (lb < 0.0 or ub > 1.0):
            raise MipError(f"binary variable {name} bounds outside [0,1]")
        if name in self._index:
            raise MipError(f"duplicate variable name {name}")
        self.vars.append(Var(name, float(lb), float(ub), integrality))
        idx = len(self.vars) - 1
        self._index[name] = idx
        return idx

    def add_row(self, coeffs: dict[int, float], sense: str, rhs: float, name="") -> int:
        if sense not in (LE, EQ, GE):
            raise MipError(f"bad row sense {sense!r}")
        self.lin_rows.append(LinRow(dict(coeffs), sense, float(rhs), name))
        return len(self.lin_rows) - 1

    def add_cone(self, x: int, y: int, u: int, v: int, name="") -> int:
        for i in (u, v):
            if self.vars[i].lb < 0.0:
                raise MipError(f"cone variable {self.vars[i].name} needs lb >= 0")
        self.cone_rows.append(ConeRow(x, y, u, v, name))
        return len(self.cone_rows) - 1

    def set_objective(self, sense: str, coeffs: dict[int, float]):
        if sense not in ("min", "max"):
            raise MipError(f"bad objective sense {sense!r}")
        self.sense = sense
        self.obj = dict(coeffs)

    def var_index(self, name: str) -> int:
        return self._index[name]

    def binary_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.vars) if v.integrality == BINARY]

    def to_lp_string(self) -> str:
        """Dump in LP file format for cross-checks with external solvers.

        Cone rows have no LP-format equivalent and are emitted as comments.
        """
        out = []
        out.append("\\ generated by grs.mip")
        out.append("Minimize" if self.sense == "min" else "Maximize")
        terms = " ".join(
            f"{c:+.17g} {self.vars[i].name}" for i, c in sorted(self.obj.items())
        )
        out.append(f" obj: {terms if terms else '0 x_dummy'}")
        out.append("Subject To")
        for k, row in enumerate(self.lin_rows):
            terms = " ".join(
                f"{c:+.17g} {self.vars[i].name}" for i, c in sorted(row.coeffs.items())
            )
            op = {LE: "<=", EQ: "=", GE: ">="}[row.sense]
            out.append(f" r{k}: {terms} {op} {row.rhs:.17g}")
        for k, cone in enumerate(self.cone_rows):
            out.append(
                f"\\ cone{k}: {self.vars[cone.x].name}^2 + {self.vars[cone.y].name}^2"
                f" <= {self.vars[cone.u].name} * {self.vars[cone.v].name}"
            )
        out.append("Bounds")
        for v in self.vars:
            lo = "-inf" if v.lb == -INF else f"{v.lb:.17g}"
            hi = "+inf" if v.ub == INF else f"{v.ub:.17g}"
            out.append(f" {lo} <= {v.name} <= {hi}")
        bins = [v.name for v in self.vars if v.integrality == BINARY]
        if bins:
            out.append("Binary")
            out.append(" " + " ".join(bins))
        out.append("End")
        return "\n".join(out) + "\n"


_FIRST_SET = ("root_bound", "root_time")  # kept by SolveStats.add, not summed


@dataclass
class SolveStats:
    """The counters of one LP solve or one whole solve.

    Every field sums in ``add`` except the two root fields, which are NaN
    until set and keep the first value set.
    """

    nodes: int = 0  # branch-and-bound nodes processed
    lp_iters: int = 0  # simplex iterations
    phase1_iters: int = 0  # simplex iterations on the phase-1 objective
    phase_switches: int = 0  # phase changes between consecutive iterations
    refactors: int = 0  # periodic basis refactorizations
    basis_restarts: int = 0  # slack-basis restarts after a singular factor
    lu_order: int = 0  # summed order of the LUs factored (kernel or basis)
    crash_cols: int = 0  # structural columns in the start bases of cold LPs
    cuts: int = 0  # cone cuts added to the global pool
    cut_rounds: int = 0  # standard-form extensions by a round of cone cuts
    # LPs whose cut loop stopped at the incumbent or at fractional binaries
    # with a cone still violated
    unseparated_lps: int = 0
    # open nodes discarded because the integral objective's rounded-up bound
    # reached the incumbent
    integral_prunes: int = 0
    branch_obs: int = 0  # pseudocost observations recorded by B&B children
    root_iters: int = 0  # simplex iterations of the root node, cut rounds included
    dive_incumbents: int = 0  # incumbent improvements found by a dive
    node_incumbents: int = 0  # incumbent improvements found at a B&B node
    wall_s: float = 0.0  # perf_counter seconds of the whole solve
    # the root node's LP bound (objective units, cut rounds included) and the
    # perf_counter seconds from the solve's start until that LP ended
    root_bound: float = math.nan
    root_time: float = math.nan
    # simplex kernel seconds: factorization, ftran, btran, pricing, ratio test
    factor_s: float = 0.0
    ftran_s: float = 0.0
    btran_s: float = 0.0
    price_s: float = 0.0
    ratio_s: float = 0.0

    def add(self, other: "SolveStats") -> None:
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name in _FIRST_SET:
                setattr(self, f.name, theirs if math.isnan(mine) else mine)
            else:
                setattr(self, f.name, mine + theirs)


@dataclass
class MipSolution:
    status: str
    values: np.ndarray  # indexed by variable position in model.vars
    objective: float
    bound: float
    gap: float
    stats: SolveStats = field(default_factory=SolveStats)
    message: str = ""


def cone_violation(cone: ConeRow, x: np.ndarray) -> float:
    return float(x[cone.x] ** 2 + x[cone.y] ** 2 - x[cone.u] * x[cone.v])
