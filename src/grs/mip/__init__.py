"""Mixed-integer linear programming with rotated-cone rows via cuts."""

from .model import (BINARY, CONTINUOUS, CUT_LIMIT, EQ, GAP_LIMIT, GE, INF,
                    INFEASIBLE, ITERATION_LIMIT, LE, NODE_LIMIT, OPTIMAL,
                    TIME_LIMIT, UNBOUNDED, ConeRow, LinRow, MipError,
                    MipModel, MipSolution, NumericalFailure, SolveStats, Var,
                    cone_violation)
from .bnb import CONE_TOL, INT_TOL, SolveLimits, cone_cut, solve_lp, solve_mip

__all__ = [
    "BINARY", "CONTINUOUS", "EQ", "GE", "LE", "INF",
    "OPTIMAL", "INFEASIBLE", "UNBOUNDED", "GAP_LIMIT", "ITERATION_LIMIT",
    "TIME_LIMIT", "NODE_LIMIT", "CUT_LIMIT",
    "ConeRow", "LinRow", "Var", "MipModel", "MipSolution", "SolveStats",
    "MipError", "NumericalFailure",
    "SolveLimits", "solve_lp", "solve_mip", "cone_cut", "cone_violation",
    "CONE_TOL", "INT_TOL",
]
