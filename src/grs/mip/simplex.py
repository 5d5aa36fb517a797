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

Per-iteration bookkeeping is kept across pivots instead of rebuilt from
the column statuses: a pricing weight per column (-1 at its lower bound,
+1 at its upper, 0 when basic, free or fixed) and the short list of free
nonbasic columns, both updated by each pivot and bound flip and rebuilt
after a slack-basis restart; the basics' bounds and their FEAS_TOL bands;
and each eta's pivot element.  The infeasibility masks that choose the
phase are computed once per iteration and shared with the ratio test,
which gives each basic variable one target bound and divides only where
that can block.

Invariant: all of this evaluates the same floating-point expressions on
the same values as the plain per-iteration masks (kept as a frozen loop
in tests/test_mip.py), so every pivot, iteration count, refactor,
restart, final basis and solution is bit-for-bit the same.  NaN or
infinite reduced costs, steps and basic values are never chosen and
never block.

The start basis.  ``solve_lp_core`` starts from the all-slack basis
unless given one.  ``initial_basis(lp)`` chooses the start of a cold LP:
it counts the rows whose slack at the all-slack start (b - A x_N, one
mat-vec) lies outside its bounds by more than FEAS_TOL, and when there
are at least CRASH_MIN_BAD_ROWS of them it returns ``crash_basis(lp)``, a
lower-triangular basis that puts structural columns in equality rows
(Bixby 1992; Maros 2003, ch. 9), and otherwise the slack basis itself.
Small models therefore keep their pivots exactly, while a large DC model
skips most of phase 1: the case118 DC ordering model at K=2 has 2 504
rows, 311 or more of them infeasible at the slack start, against at most
134 on the case5 and case10 models.  ``grs.mip.bnb`` asks for it only on
models without cone rows.

A start basis taken before rows were appended gets a basic slack for
each new row.  One site at the top of the loop makes the first
factorization and every refactor; a singular factor restarts from the
slack basis.  The refactor site also reads the caller's deadline, if
any: an LP past it stops there with ITERATION_LIMIT.  The loop keeps its
counters in the SolveStats its LpResult returns: iterations, phase-1
iterations, phase switches, periodic refactors and restarts, and the
kernels' perf_counter times.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import (GE, INF, INFEASIBLE, ITERATION_LIMIT, LE, OPTIMAL,
                    UNBOUNDED, MipModel, NumericalFailure, SolveStats)

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIV_TOL = 1e-9  # working ratio-test threshold; < 1e-10 counts as no pivot
DEGEN_TOL = 1e-9
REFACTOR_EVERY = 50
CRASH_MIN_BAD_ROWS = 200  # rows out of bounds at the slack start that crash

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
    message: str = ""
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def iters(self) -> int:
        return self.stats.lp_iters


class _Factors:
    """B = LU * E_1 * ... * E_k; solves B d = a (ftran) and B^T y = c (btran)."""

    def __init__(self, A: sp.csc_matrix, basis: np.ndarray):
        self.lu = spla.splu(A[:, basis].tocsc())
        self.etas: list[tuple[int, float, np.ndarray]] = []  # (r, d[r], d)

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        w = self.lu.solve(rhs)
        for r, piv, d in self.etas:
            wr = w.item(r) / piv
            if wr != 0.0:
                w -= wr * d
            w[r] = wr
        return w

    def btran(self, y: np.ndarray) -> np.ndarray:
        """Solves in place: y is a fresh float array the caller gives up."""
        for r, piv, d in reversed(self.etas):
            yr = y.item(r)
            y[r] = (yr - (float(d.dot(y)) - piv * yr)) / piv
        return self.lu.solve(y, trans="T")

    def push_eta(self, r: int, d: np.ndarray):
        # d is ftran's fresh result, which the caller does not write to again
        self.etas.append((r, d.item(r), d))


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


def initial_basis(lp: LpData) -> Basis:
    """The start basis of a cold LP: ``crash_basis(lp)`` when the slack
    start leaves at least CRASH_MIN_BAD_ROWS rows outside their slack
    bounds (with FEAS_TOL), else ``default_basis(lp)``."""
    bas = default_basis(lp)
    s = lp.b - lp.A @ _nonbasic_vector(lp, bas)  # the slacks' start values
    lo, hi = lp.lb[lp.nstruct:] - FEAS_TOL, lp.ub[lp.nstruct:] + FEAS_TOL
    if np.count_nonzero((s < lo) | (s > hi)) >= CRASH_MIN_BAD_ROWS:
        return crash_basis(lp)
    return bas


def crash_basis(lp: LpData) -> Basis:
    """A lower-triangular start basis of structural columns in equality rows.

    The non-fixed structural columns are ranked free first, then those with
    one infinite bound, then by the widest box, ties to the lower index.  A
    column is taken when none of its nonzeros lies in a row already pivoted
    and it has an entry in an equality row within 0.9 of its largest |a|.
    It goes basic in the equality row of its largest such entry, whose
    fixed slack goes nonbasic AT_LB; the other slacks stay basic.  Each
    taken column is zero in every row pivoted before it, so the basis is
    triangular with a nonzero diagonal: nonsingular.
    """
    bas = default_basis(lp)
    n, A = lp.nstruct, lp.A
    lb, ub = lp.lb[:n], lp.ub[:n]
    width = ub - lb
    infinite = np.isinf(lb).astype(int) + np.isinf(ub)
    cand = np.flatnonzero(width > 0.0)
    order = cand[np.lexsort((cand, -width[cand], -infinite[cand]))]
    eq = lp.lb[n:] == lp.ub[n:]
    pivoted = np.zeros(lp.m, dtype=bool)
    for j in order:
        rows = A.indices[A.indptr[j]:A.indptr[j + 1]]
        if not len(rows) or pivoted[rows].any():
            continue
        mag = np.abs(A.data[A.indptr[j]:A.indptr[j + 1]])
        ok = eq[rows] & (mag >= 0.9 * mag.max())
        if ok.any():
            r = rows[np.argmax(np.where(ok, mag, -1.0))]
            pivoted[r] = True
            bas.basis[r] = j
            bas.vstat[j] = BASIC
            bas.vstat[n + r] = AT_LB
    return bas


def _extended(start: Basis, lp: LpData) -> Basis:
    """A copy of start, taken before lp's last rows were appended, with
    each new row's slack (a column at the end) basic."""
    have = len(start.basis)
    return Basis(
        np.concatenate([start.basis, np.arange(lp.nstruct + have, lp.ncols)]),
        np.concatenate([start.vstat, np.full(lp.m - have, BASIC, np.int8)]))


def solve_lp_core(lp: LpData, start: Basis | None = None,
                  deadline: float | None = None) -> LpResult:
    """Solve lp from start (the slack basis when None).

    ``deadline`` is a ``time.perf_counter()`` value; it is read at each
    periodic refactor, and an LP past it stops there with ITERATION_LIMIT.
    """
    m, ncols = lp.m, lp.ncols
    if m == 0:
        return _solve_unconstrained(lp)
    max_iters = 20000 + 40 * (m + ncols)
    clock = time.perf_counter

    st = SolveStats()
    bas = default_basis(lp) if start is None else _extended(start, lp)
    fixed = lp.lb == lp.ub
    psign, free = _pricing_weights(bas.vstat, fixed)
    fact = None
    degen_count = 0
    bland_threshold = 10 * (m + ncols)
    pivots_since_refactor = 0
    was_phase1 = None

    def result(status, obj=None, message=""):
        return LpResult(status, _full_x(lp, bas, x_b),
                        _struct_obj(lp, bas, x_b) if obj is None else obj,
                        bas, message, st)

    while True:
        if st.lp_iters >= max_iters:
            return result(ITERATION_LIMIT, message="simplex iteration limit")
        if fact is None or pivots_since_refactor >= REFACTOR_EVERY:
            if fact is not None:
                if deadline is not None and clock() > deadline:
                    return result(ITERATION_LIMIT, message="time limit")
                st.refactors += 1
                fact = None  # free the old LU and etas before SuperLU's workspace
            t0 = clock()
            try:
                fact = _Factors(lp.A, bas.basis)
            except RuntimeError:
                # numerically singular basis: restart from the slack basis
                st.basis_restarts += 1
                log.debug("singular basis factor after %d iterations: "
                          "restarting from the slack basis", st.lp_iters)
                bas = default_basis(lp)
                psign, free = _pricing_weights(bas.vstat, fixed)
                fact = _Factors(lp.A, bas.basis)
            st.factor_s += clock() - t0
            x_b = fact.ftran(lp.b - lp.A @ _nonbasic_vector(lp, bas))
            # the basics' bounds and their FEAS_TOL bands, kept per pivot
            lb_b, ub_b = lp.lb[bas.basis], lp.ub[bas.basis]
            lo_b, hi_b = lb_b - FEAS_TOL, ub_b + FEAS_TOL
            pivots_since_refactor = 0
        st.lp_iters += 1

        below = x_b < lo_b
        above = x_b > hi_b
        phase1 = bool(below.any() or above.any())
        st.phase1_iters += phase1
        st.phase_switches += was_phase1 is not None and phase1 != was_phase1
        was_phase1 = phase1
        t0 = clock()
        if phase1:
            y = fact.btran(np.subtract(above, below, dtype=float))
            t1 = clock()
            red = lp.AT @ y
            red *= -1.0
        else:
            y = fact.btran(lp.c[bas.basis])
            t1 = clock()
            red = lp.AT @ y
            np.subtract(lp.c, red, out=red)
        j = _price(red, psign, free, degen_count > bland_threshold)
        t2 = clock()
        st.btran_s += t1 - t0
        st.price_s += t2 - t1
        if j < 0:
            if phase1:
                return result(INFEASIBLE, message="phase 1 optimum is infeasible")
            return result(OPTIMAL)
        direction = 1.0 if red[j] < 0.0 else -1.0

        d_col = fact.ftran(lp.column(j))
        delta = -direction * d_col  # basic motion per unit entering step
        t3 = clock()
        t, blocking, block_bound = _ratio_test(delta, x_b, lb_b, ub_b,
                                               below, above)
        st.ftran_s += t3 - t2
        st.ratio_s += clock() - t3

        t_flip = INF
        if lp.lb[j] > -INF and lp.ub[j] < INF:
            t_flip = lp.ub[j] - lp.lb[j]

        if t == INF and t_flip == INF:
            if phase1:
                raise NumericalFailure("unblocked phase-1 direction")
            return result(UNBOUNDED, -INF, "unbounded direction")

        if bas.vstat[j] == FREE_NB:
            free = free[free != j]
        if t_flip <= t:
            x_b += t_flip * delta
            bas.vstat[j] = AT_UB if bas.vstat[j] == AT_LB else AT_LB
            psign[j] = _PRICE_SIGN[bas.vstat[j]]
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
        if fixed[leave]:
            bas.vstat[leave] = AT_LB
            psign[leave] = 0.0
        else:
            bas.vstat[leave] = block_bound
            psign[leave] = _PRICE_SIGN[block_bound]
        bas.vstat[j] = BASIC
        psign[j] = 0.0
        bas.basis[blocking] = j
        lb_b[blocking] = lp.lb[j]
        ub_b[blocking] = lp.ub[j]
        lo_b[blocking] = lp.lb[j] - FEAS_TOL
        hi_b[blocking] = lp.ub[j] + FEAS_TOL
        fact.push_eta(blocking, d_col)
        pivots_since_refactor += 1


# pricing sign by column status: BASIC, AT_LB, AT_UB, FREE_NB
_PRICE_SIGN = np.array([0.0, -1.0, 1.0, 0.0])


def _pricing_weights(vstat, fixed):
    """(psign, free): per column, the sign by which its reduced cost is
    attractive (-1 at AT_LB, +1 at AT_UB, 0 at BASIC, FREE_NB and fixed
    columns), and the indices of the free nonbasic columns, priced by |red|."""
    psign = _PRICE_SIGN[vstat]
    psign[fixed] = 0.0
    return psign, np.flatnonzero((vstat == FREE_NB) & ~fixed)


def _price(red, psign, free, bland):
    """Entering column, or -1 when no reduced cost is attractive.

    Eligibility is red * psign, |red| at the free columns, and 0 where that
    is NaN.  A column is a candidate when its eligibility exceeds OPT_TOL
    and enters upward iff red < 0.  Dantzig picks the largest eligibility
    (lowest index on ties); Bland the lowest index.
    """
    elig = red * psign
    if len(free):
        elig[free] = np.abs(red[free])
    np.fmax(elig, 0.0, out=elig)  # 0 * inf and NaN never enter
    j = int(np.argmax(elig > OPT_TOL if bland else elig))
    return j if elig[j] > OPT_TOL else -1


def _ratio_test(delta, x_b, lb_b, ub_b, below, above):
    """Two-pass (Harris) ratio test, phase aware.

    Basic variables outside their bounds block at the bound they are moving
    toward (restoring feasibility); moving further away never blocks.  The
    first pass finds the smallest step with bounds relaxed by FEAS_TOL, the
    second picks the largest pivot among blockers within that step, which
    keeps the eta updates well conditioned.  ``below`` and ``above`` are the
    caller's masks of x_b outside lb_b - FEAS_TOL and ub_b + FEAS_TOL.

    Each position gets one target bound: a decreasing variable above
    ub + FEAS_TOL targets ub, any other decreasing one lb (mirrored for
    increasing ones).  The step is divided out only where |delta| > PIV_TOL
    and the variable is not moving away from a violated bound; elsewhere it
    stays infinite, as it does toward an infinite bound, and a NaN step
    never blocks.  The arrays stay full length: compressing to the moving
    positions gives arrays of a new size each call, and numpy keeps up to
    seven freed buffers of every size under 1 KB, which raised peak memory
    by about 2 MB on case5 SOC.
    Returns (step, blocking position or -1, bound status the leaver takes).
    """
    adelta = np.abs(delta)
    dec = delta < 0.0
    # dec ? above : ~below and dec ? below : above, as bit operations,
    # which numpy runs faster than np.where on booleans
    to_ub = (dec & above) | ~(dec | below)
    away = (dec & below) | (above & ~dec)
    ti = np.full(delta.shape, INF)
    np.divide(np.where(to_ub, ub_b, lb_b) - x_b, delta, out=ti,
              where=(adelta > PIV_TOL) & ~away)
    np.maximum(ti, 0.0, out=ti)
    # pass 1: relaxed step, letting each blocker overshoot by FEAS_TOL; a
    # non-blocker's INF stays INF and fmin skips NaN
    t_rel = np.fmin.reduce(ti + FEAS_TOL / np.fmax(adelta, PIV_TOL))
    if not t_rel < INF:
        return INF, -1, 0
    # pass 2: largest pivot among blockers within the relaxed step
    k = int(np.argmax(np.where(ti <= t_rel, adelta, -1.0)))
    return float(ti[k]), k, AT_UB if to_ub[k] else AT_LB


def _struct_obj(lp: LpData, bas: Basis, x_b: np.ndarray) -> float:
    return float(lp.c @ _full_x(lp, bas, x_b))


def _solve_unconstrained(lp: LpData) -> LpResult:
    x = np.zeros(lp.ncols)
    for j in range(lp.ncols):
        cj = lp.c[j]
        if cj > 0.0:
            if lp.lb[j] == -INF:
                return LpResult(UNBOUNDED, x, -INF, None, "unbounded variable")
            x[j] = lp.lb[j]
        elif cj < 0.0:
            if lp.ub[j] == INF:
                return LpResult(UNBOUNDED, x, -INF, None, "unbounded variable")
            x[j] = lp.ub[j]
        else:
            x[j] = lp.lb[j] if lp.lb[j] > -INF else min(lp.ub[j], 0.0)
            if math.isinf(x[j]):
                x[j] = 0.0
    return LpResult(OPTIMAL, x, float(lp.c @ x), None)
