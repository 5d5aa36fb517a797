"""Bounded-variable primal simplex with a product-form basis inverse.

Standard form: every linear row gets one slack column, so the constraint
matrix is [A | I] with slack bounds encoding the row sense
(<= : [0, inf), >= : (-inf, 0], == : [0, 0]).  Nonbasic variables rest at a
bound; feasibility is restored by a composite phase 1 that minimizes the sum
of bound violations of basic variables, which also makes warm starts from an
arbitrary (e.g. parent-node) basis cheap.

The basis inverse is kept as an LU factorization plus a list of eta vectors,
refactored every REFACTOR_EVERY pivots.  Pricing is Dantzig (most attractive
reduced cost, ties by lowest column index); Bland's rule takes over after
10*(rows+cols) degenerate pivots to guarantee termination.

The ratio test gives each basic variable one target bound and divides
only where that can block; pricing ranks one eligibility array.  Both
evaluate the same expressions on the same values as the per-case masks
they replace, so every pivot, and hence every basis and solution, is
bit-for-bit unchanged.  A singular factor restarts from the slack basis;
LpResult counts those restarts and the periodic refactors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import (GE, INF, INFEASIBLE, ITERATION_LIMIT, LE, OPTIMAL,
                    UNBOUNDED, MipModel, NumericalFailure)

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIV_TOL = 1e-9  # working ratio-test threshold; < 1e-10 counts as no pivot
DEGEN_TOL = 1e-9
REFACTOR_EVERY = 50

log = logging.getLogger("grs.mip")

BASIC = 0
AT_LB = 1
AT_UB = 2
FREE_NB = 3


@dataclass
class LpData:
    """Standard-form arrays for one model: structural columns then slacks."""

    A: sp.csc_matrix  # m x ncols
    AT: sp.csc_matrix  # transpose, cached for pricing
    b: np.ndarray
    c: np.ndarray  # phase-2 costs (internal minimization)
    lb: np.ndarray
    ub: np.ndarray
    nstruct: int

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def ncols(self) -> int:
        return self.A.shape[1]

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "LpData":
        return LpData(self.A, self.AT, self.b, self.c, lb, ub, self.nstruct)

    def column(self, j: int) -> np.ndarray:
        a = np.zeros(self.m)
        s, e = self.A.indptr[j], self.A.indptr[j + 1]
        a[self.A.indices[s:e]] = self.A.data[s:e]
        return a


def build_lp_data(model: MipModel, extra_rows=None,
                  prev: LpData | None = None) -> LpData:
    """Assemble [A | I] standard form; binaries are relaxed to their bounds.

    The rows are ``model.lin_rows`` followed by ``extra_rows``.  ``prev``, if
    given, was built from the same model and a prefix of ``extra_rows``; only
    the rows past that prefix are then appended to it.  A new row adds
    entries at the bottom of the structural columns and one slack column at
    the right, so it is appended to ``prev.AT`` (A's row-wise storage) and A
    comes from one conversion: the arrays equal those of a full build.
    """
    n = len(model.vars)
    if prev is None:
        rows = [*model.lin_rows, *(extra_rows or ())]
        m0 = 0
        at_data, at_indices, at_indptr = np.zeros(0), np.zeros(0, int), np.zeros(1, int)
        b0 = np.zeros(0)
        lb0 = np.array([v.lb for v in model.vars], dtype=float)
        ub0 = np.array([v.ub for v in model.vars], dtype=float)
        c0 = np.zeros(n)
        sgn = 1.0 if model.sense == "min" else -1.0
        for j, coef in model.obj.items():
            c0[j] = sgn * coef
    else:
        m0 = prev.m
        rows = extra_rows[m0 - len(model.lin_rows):]
        at_data, at_indices, at_indptr = prev.AT.data, prev.AT.indices, prev.AT.indptr
        b0, lb0, ub0, c0 = prev.b, prev.lb, prev.ub, prev.c

    k = len(rows)
    m = m0 + k
    cols, vals = [], []
    lens = np.empty(k, dtype=int)
    b = np.empty(k)
    slack_lb = np.zeros(k)
    slack_ub = np.zeros(k)
    for i, row in enumerate(rows):
        cols.extend(row.coeffs)
        vals.extend(row.coeffs.values())
        lens[i] = len(row.coeffs)
        b[i] = row.rhs
        if row.sense == LE:
            slack_ub[i] = INF
        elif row.sense == GE:
            slack_lb[i] = -INF
    # each new row in A.T.tocsc()'s layout: its nonzeros by column, then
    # its slack, which has the largest column index of the row
    row_of = np.concatenate([np.repeat(np.arange(k), lens), np.arange(k)])
    col = np.concatenate([np.asarray(cols, dtype=int), n + m0 + np.arange(k)])
    val = np.concatenate([np.asarray(vals, dtype=float), np.ones(k)])
    keep = val != 0.0
    row_of, col, val = row_of[keep], col[keep], val[keep]
    order = np.lexsort((col, row_of))
    AT = sp.csc_matrix(
        (np.concatenate([at_data, val[order]]),
         np.concatenate([at_indices, col[order]]),
         np.concatenate([at_indptr,
                         at_indptr[-1] + np.cumsum(np.bincount(row_of, minlength=k))])),
        shape=(n + m, m),
    )
    return LpData(A=AT.T.tocsc(), AT=AT, b=np.concatenate([b0, b]),
                  c=np.concatenate([c0, np.zeros(k)]),
                  lb=np.concatenate([lb0, slack_lb]),
                  ub=np.concatenate([ub0, slack_ub]), nstruct=n)


@dataclass
class Basis:
    basis: np.ndarray  # column index per row
    vstat: np.ndarray  # status per column

    def copy(self) -> "Basis":
        return Basis(self.basis.copy(), self.vstat.copy())


@dataclass
class LpResult:
    status: str
    x: np.ndarray  # full column values (structural + slacks)
    obj: float  # internal (minimization) objective
    basis: Basis | None
    iters: int
    message: str = ""
    refactors: int = 0  # periodic refactorizations
    restarts: int = 0  # resets to the slack basis after a singular factor


class _Factors:
    """B = LU * E_1 * ... * E_k; solves B d = a (ftran) and B^T y = c (btran)."""

    def __init__(self, A: sp.csc_matrix, basis: np.ndarray):
        self.lu = spla.splu(A[:, basis].tocsc())
        self.etas: list[tuple[int, np.ndarray]] = []

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        w = self.lu.solve(rhs)
        for r, d in self.etas:
            wr = w[r] / d[r]
            if wr != 0.0:
                w -= wr * d
            w[r] = wr
        return w

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        y = rhs.astype(float, copy=True)
        for r, d in reversed(self.etas):
            yr = y[r]
            s = d @ y - d[r] * yr
            y[r] = (yr - s) / d[r]
        return self.lu.solve(y, trans="T")

    def push_eta(self, r: int, d: np.ndarray):
        # d is ftran's fresh result, which the caller does not write to again
        self.etas.append((r, d))


def _nonbasic_value(j, vstat, lb, ub):
    s = vstat[j]
    if s == AT_LB:
        return lb[j]
    if s == AT_UB:
        return ub[j]
    return 0.0  # free at zero


def _nonbasic_vector(lp: LpData, bas: Basis) -> np.ndarray:
    """Full-length vector of nonbasic resting values (zeros at basic slots)."""
    x = np.zeros(lp.ncols)
    at_lb = bas.vstat == AT_LB
    at_ub = bas.vstat == AT_UB
    x[at_lb] = lp.lb[at_lb]
    x[at_ub] = lp.ub[at_ub]
    return x


def _full_x(lp: LpData, bas: Basis, x_b: np.ndarray) -> np.ndarray:
    x = _nonbasic_vector(lp, bas)
    x[bas.basis] = x_b
    return x


def default_basis(lp: LpData) -> Basis:
    """All-slack basis; structural columns at the bound nearest zero."""
    vstat = np.empty(lp.ncols, dtype=np.int8)
    finite_lb = lp.lb[: lp.nstruct] > -INF
    finite_ub = lp.ub[: lp.nstruct] < INF
    vstat[: lp.nstruct] = np.where(finite_lb, AT_LB, np.where(finite_ub, AT_UB, FREE_NB))
    vstat[lp.nstruct:] = BASIC
    basis = np.arange(lp.nstruct, lp.ncols, dtype=np.int64)
    return Basis(basis, vstat)


def solve_lp_core(lp: LpData, start: Basis | None = None) -> LpResult:
    m, ncols = lp.m, lp.ncols
    if m == 0:
        return _solve_unconstrained(lp)
    max_iters = 20000 + 40 * (m + ncols)

    bas = start.copy() if start is not None else default_basis(lp)
    refactors = restarts = 0

    def factor():
        nonlocal bas, restarts
        try:
            return _Factors(lp.A, bas.basis)
        except RuntimeError:
            # numerically singular basis: restart from the slack basis
            restarts += 1
            log.debug("singular basis factor after %d iterations: "
                      "restarting from the slack basis", iters)
            bas = default_basis(lp)
            return _Factors(lp.A, bas.basis)

    def result(status, obj=None, message=""):
        return LpResult(status, _full_x(lp, bas, x_b),
                        _struct_obj(lp, bas, x_b) if obj is None else obj,
                        bas, iters, message, refactors, restarts)

    iters = 0
    fact = factor()
    fixed = lp.lb == lp.ub

    def compute_xb():
        xn = _nonbasic_vector(lp, bas)
        return fact.ftran(lp.b - lp.A @ xn)

    x_b = compute_xb()
    lb_b = lp.lb[bas.basis]
    ub_b = lp.ub[bas.basis]

    degen_count = 0
    bland_threshold = 10 * (m + ncols)
    pivots_since_refactor = 0

    while True:
        if iters >= max_iters:
            return result(ITERATION_LIMIT, message="simplex iteration limit")
        iters += 1
        if pivots_since_refactor >= REFACTOR_EVERY:
            refactors += 1
            fact = None  # free the old LU and etas before SuperLU's workspace
            fact = factor()
            x_b = compute_xb()
            lb_b = lp.lb[bas.basis]
            ub_b = lp.ub[bas.basis]
            pivots_since_refactor = 0

        below = x_b < lb_b - FEAS_TOL
        above = x_b > ub_b + FEAS_TOL
        phase1 = bool(below.any() or above.any())
        if phase1:
            d_b = np.where(below, -1.0, np.where(above, 1.0, 0.0))
            y = fact.btran(d_b)
            red = -(lp.AT @ y)
        else:
            y = fact.btran(lp.c[bas.basis])
            red = lp.c - lp.AT @ y

        j = _price(red, bas.vstat, fixed, degen_count > bland_threshold)
        if j < 0:
            if phase1:
                return result(INFEASIBLE, message="phase 1 optimum is infeasible")
            return result(OPTIMAL)
        direction = 1.0 if red[j] < 0.0 else -1.0

        d_col = fact.ftran(lp.column(j))
        delta = -direction * d_col  # basic motion per unit entering step

        t, blocking, block_bound = _ratio_test(delta, x_b, lb_b, ub_b)

        t_flip = INF
        if lp.lb[j] > -INF and lp.ub[j] < INF:
            t_flip = lp.ub[j] - lp.lb[j]

        if t == INF and t_flip == INF:
            if phase1:
                raise NumericalFailure("unblocked phase-1 direction")
            return result(UNBOUNDED, -INF, "unbounded direction")

        if t_flip <= t:
            x_b += t_flip * delta
            bas.vstat[j] = AT_UB if bas.vstat[j] == AT_LB else AT_LB
            if t_flip <= DEGEN_TOL:
                degen_count += 1
            pivots_since_refactor += 1
            continue

        if t <= DEGEN_TOL:
            degen_count += 1
        leave = int(bas.basis[blocking])
        enter_val = _nonbasic_value(j, bas.vstat, lp.lb, lp.ub) + direction * t
        x_b += t * delta
        x_b[blocking] = enter_val
        bas.vstat[leave] = AT_LB if fixed[leave] else block_bound
        bas.vstat[j] = BASIC
        bas.basis[blocking] = j
        lb_b[blocking] = lp.lb[j]
        ub_b[blocking] = lp.ub[j]
        fact.push_eta(blocking, d_col)
        pivots_since_refactor += 1


# pricing sign by column status: BASIC, AT_LB, AT_UB, FREE_NB
_PRICE_SIGN = np.array([0.0, -1.0, 1.0, 0.0])


def _price(red, vstat, fixed, bland):
    """Entering column, or -1 when no reduced cost is attractive.

    One eligibility array: -red at AT_LB, red at AT_UB, |red| at FREE_NB and
    -1 at BASIC and fixed columns.  A column is a candidate when its
    eligibility exceeds OPT_TOL and enters upward iff red < 0.  Dantzig picks
    the largest eligibility (lowest index on ties); Bland the lowest index.
    """
    elig = red * _PRICE_SIGN[vstat]
    free = vstat == FREE_NB
    if free.any():
        elig[free] = np.abs(red[free])
    elig[(vstat == BASIC) | fixed] = -1.0
    cand = elig > OPT_TOL
    if not cand.any():
        return -1
    if bland:
        return int(np.argmax(cand))
    return int(np.argmax(np.where(cand, elig, -1.0)))


def _ratio_test(delta, x_b, lb_b, ub_b):
    """Two-pass (Harris) ratio test, phase aware.

    Basic variables outside their bounds block at the bound they are moving
    toward (restoring feasibility); moving further away never blocks.  The
    first pass finds the smallest step with bounds relaxed by FEAS_TOL, the
    second picks the largest pivot among blockers within that step, which
    keeps the eta updates well conditioned.

    Each position gets one target bound: a decreasing variable above
    ub + FEAS_TOL targets ub, any other decreasing one lb (mirrored for
    increasing ones).  The step is divided out only where |delta| > PIV_TOL
    and the variable is not moving away from a violated bound; elsewhere it
    stays infinite, as it does toward an infinite bound.  The arrays stay
    full length: compressing to the moving positions gives arrays of a new
    size each call, and numpy keeps up to seven freed buffers of every size
    under 1 KB, which raised peak memory by about 2 MB on case5 SOC.
    Returns (step, blocking position or -1, bound status the leaver takes).
    """
    adelta = np.abs(delta)
    dec = delta < 0.0
    above = x_b > ub_b + FEAS_TOL
    below = x_b < lb_b - FEAS_TOL  # never with above, as lb <= ub
    to_ub = np.where(dec, above, ~below)
    ti = np.full(delta.shape, INF)
    np.divide(np.where(to_ub, ub_b, lb_b) - x_b, delta, out=ti,
              where=(adelta > PIV_TOL) & ~np.where(dec, below, above))
    np.maximum(ti, 0.0, out=ti)
    blockable = ti < INF
    if not blockable.any():
        return INF, -1, 0
    # pass 1: relaxed step, letting each blocker overshoot by FEAS_TOL
    t_rel = np.min(np.where(blockable, ti + FEAS_TOL / np.maximum(adelta, PIV_TOL),
                            INF))
    # pass 2: largest pivot among blockers within the relaxed step
    k = int(np.argmax(np.where(blockable & (ti <= t_rel), adelta, -1.0)))
    return float(ti[k]), k, AT_UB if to_ub[k] else AT_LB


def _struct_obj(lp: LpData, bas: Basis, x_b: np.ndarray) -> float:
    return float(lp.c @ _full_x(lp, bas, x_b))


def _solve_unconstrained(lp: LpData) -> LpResult:
    x = np.zeros(lp.ncols)
    for j in range(lp.ncols):
        cj = lp.c[j]
        if cj > 0.0:
            if lp.lb[j] == -INF:
                return LpResult(UNBOUNDED, x, -INF, None, 0, "unbounded variable")
            x[j] = lp.lb[j]
        elif cj < 0.0:
            if lp.ub[j] == INF:
                return LpResult(UNBOUNDED, x, -INF, None, 0, "unbounded variable")
            x[j] = lp.ub[j]
        else:
            x[j] = lp.lb[j] if lp.lb[j] > -INF else min(lp.ub[j], 0.0)
            if math.isinf(x[j]):
                x[j] = 0.0
    return LpResult(OPTIMAL, x, float(lp.c @ x), None, 0)
