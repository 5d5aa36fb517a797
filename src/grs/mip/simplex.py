"""Bounded-variable primal simplex with a product-form basis inverse.

Standard form: every linear row gets one slack column, so the constraint
matrix is [A | I] with slack bounds encoding the row sense
(<= : [0, inf), >= : (-inf, 0], == : [0, 0]).  Nonbasic variables rest at a
bound; feasibility is restored by a composite phase 1 that minimizes the sum
of bound violations of basic variables, which also makes warm starts from an
arbitrary (e.g. parent-node) basis cheap.

The basis inverse is kept as an LU factorization plus a list of eta vectors,
refactored once REFACTOR_EVERY pivots and bound flips have been made since
the last factorization (a bound flip adds no eta, but counts).  On an LP
whose ``crash`` or ``cones`` flag is set (below) the LU is of the basis
kernel only, the basic structural columns in the rows whose slack is
nonbasic, and the basic slacks follow by substitution (``_Factors``).  Pricing is Dantzig (most
attractive reduced cost, ties by lowest column index).  The ratio test is
Harris's two passes (Harris 1973): a basic variable already inside its
FEAS_TOL band but past its bound blocks at a relaxed step measured from
where it is, so no step carries it out of the band, which would make the
next iteration a phase-1 one that undoes the step.  Once an LP has made
10*(rows+cols) degenerate pivots in all, the entering column is the
lowest-index attractive one instead; the ratio test still picks the
leaving row by the largest |delta|, so this is not Bland's rule and does
not guarantee termination.

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
never block.  Phase 2, where no basic is outside its band, skips the
masks in the ratio test: they select the same bounds there.

The loop's sparse products skip scipy's per-call glue, under the same
rule.  A^T y (pricing), A x_N (each refactor) and the kernel's R w_C and
R^T y_L are ``_matvec`` calls: scipy's compiled ``csc_matvec`` and
``csr_matvec``, the kernels its ``@`` reaches, on the same arrays and
into the same zeroed output, so the sums run in the same order.  The
basis columns are gathered by index ranges (``_gather``), giving SuperLU
the arrays that ``A[:, basis]`` would.  A new kernel here must keep every
operand, expression and summation order of the one it replaces;
tests/test_mip.py checks ``_matvec`` against ``@`` bit for bit.

The start basis.  Given none, ``solve_lp_core`` starts cold from
``initial_basis(lp)`` and counts its structural columns in
``SolveStats.crash_cols``.  ``build_lp_data`` sets ``LpData.crash`` once
per model: when the model has no cone rows and at least
CRASH_MIN_BAD_ROWS rows have their slack at the all-slack start
(b - A x_N, one mat-vec) outside its bounds by more than FEAS_TOL.
``initial_basis`` is then ``crash_basis``, else the slack basis.  The
crash is a lower-triangular basis that puts structural columns in the
rows the slack start cannot hold, the equality rows and the violated
inequality rows, each of whose slacks goes nonbasic at the bound it
violates (Bixby 1992; Maros 2003, ch. 9).  Small models
therefore keep their pivots exactly, while a large DC model skips most of
phase 1: the case118 DC ordering model at K=2 has 2 504 rows, 934 of them
infeasible at the slack start (70 of those inequality rows), and the
crash start leaves 29 basics out of bounds, against at most 134
infeasible rows on the case5 and case10 models.

The kernel LU serves the crash models and every model with cone rows
(``LpData.cones``, also set by ``build_lp_data``).  Restoration models
are built from big-M on/off rows, so most rows keep their slack basic:
the case118 K=2 bases have 685-1 107 structural columns among 2 504, and
per basis of one round the kernel takes 1.6 ms to factor against the
whole basis's 2.9, and 56 and 45 us to solve (ftran, btran) against 95
and 65.  The case5 SOC bases are 78-85% slack, and there the kernel takes
the K=3 ordering solve from 11 900 iterations to 9 090.  On the small DC
models the kernel's different rounding moved pivot paths for the worse
(case5 DC K=5: 64 -> 94 nodes in the plain ordering solve), so they keep
the whole LU and their pivots bit for bit.

A start basis taken before rows were appended gets a basic slack for
each new row.  One site at the top of the loop makes the first
factorization and every refactor; a singular factor restarts from the
slack basis.  The refactor site also reads the caller's deadline, if
any: an LP past it stops there with TIME_LIMIT, so ITERATION_LIMIT means
the iteration cap alone.  The loop keeps its counters in the SolveStats
its LpResult returns: iterations, phase-1 iterations, phase switches,
periodic refactors and restarts, the summed order of the LUs, and the
perf_counter times of factorization, ftran, btran, pricing and the ratio
test.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from .model import (GE, INF, INFEASIBLE, ITERATION_LIMIT, LE, OPTIMAL,
                    TIME_LIMIT, UNBOUNDED, MipModel, NumericalFailure,
                    SolveStats)

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
    # the crash rule: no cone rows, and at least CRASH_MIN_BAD_ROWS rows out
    # of bounds at the slack start; such an LP's cold start crashes (set by
    # build_lp_data)
    crash: bool = False
    # the model has cone rows (set by build_lp_data); the bases of a crash
    # or cone LP are factored by their kernel
    cones: bool = False

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def ncols(self) -> int:
        return self.A.shape[1]

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "LpData":
        return replace(self, lb=lb, ub=ub)

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
    ``crash`` is decided on the full build and kept by the appended ones.
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
    lp = LpData(A=AT.T.tocsc(), AT=AT, b=np.concatenate([b0, b]),
                c=np.concatenate([c0, np.zeros(k)]),
                lb=np.concatenate([lb0, slack_lb]),
                ub=np.concatenate([ub0, slack_ub]), nstruct=n)
    if prev is not None:
        lp.crash, lp.cones = prev.crash, prev.cones
    elif model.cone_rows:
        lp.cones = True
    else:
        below, above = _violated(lp, default_basis(lp))
        bad = np.count_nonzero(below | above)
        lp.crash = bool(bad >= CRASH_MIN_BAD_ROWS)
    return lp


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


def _matvec(M: tuple, x: np.ndarray, trans: bool = False) -> np.ndarray:
    """M @ x, or M.T @ x with ``trans``, for M = (nrows, ncols, indptr,
    indices, data) the arrays of a CSC matrix.

    These are the compiled ``csc_matvec`` and ``csr_matvec`` (M.T is the
    CSR matrix on M's arrays) that scipy's ``@`` calls for a float vector,
    into the same zeroed output, without its per-call argument checks; the
    result is the same bit for bit, signs of zeros included.  x must be a
    float64 array of the right length: nothing here checks it.
    """
    nrows, ncols, indptr, indices, data = M
    if trans:
        y = np.zeros(ncols)
        _sparsetools.csr_matvec(ncols, nrows, indptr, indices, data, x, y)
    else:
        y = np.zeros(nrows)
        _sparsetools.csc_matvec(nrows, ncols, indptr, indices, data, x, y)
    return y


def _csc(M: sp.csc_matrix) -> tuple:
    """The arrays of a CSC matrix, as ``_matvec`` takes them."""
    return (*M.shape, M.indptr, M.indices, M.data)


def _gather(A: sp.csc_matrix, cols: np.ndarray):
    """(indptr, indices, data) of A[:, cols], taken by index ranges: the
    arrays scipy's A[:, cols] builds, without its indexing machinery."""
    start = A.indptr[cols]
    lens = A.indptr[cols + 1] - start
    ptr = np.zeros(len(cols) + 1, dtype=A.indptr.dtype)
    np.cumsum(lens, out=ptr[1:])
    take = np.arange(ptr[-1]) + np.repeat(start - ptr[:-1], lens)
    return ptr, A.indices[take], A.data[take]


class _Factors:
    """B = LU * E_1 * ... * E_k; solves B d = a (ftran) and B^T y = c (btran).

    Without ``nstruct`` the LU is of the whole basis.  Given ``nstruct``,
    the columns from nstruct on are the slacks of [A | I], and the LU is
    of the basis kernel only (Suhl & Suhl 1990): S = A[K, C], the basic
    structural columns C in the rows K whose slack is nonbasic, square
    because each basic slack covers its own row (78-85% of the rows on the
    case5 SOC bases, which ``_factor`` therefore factors this way).  With
    R = A[L, C], the same columns in the rows L of the basic slacks,
    B w = a is w_C = S^-1 a_K, then w_L = a_L - R w_C; B^T y = c is
    y_L = c_L, then y_K = S^-T (c_C - R^T y_L).  A kernel of order 0 has
    no LU.  ``order`` is the order of the LU.

    Both paths gather their basis columns by index ranges (``_gather``);
    only the matrix SuperLU factors is a scipy object.  R is kept as its
    CSC arrays, and R w_C and R^T y_L are ``_matvec`` calls on them.

    S keeps its columns in basis position order (SuperLU's NATURAL column
    order; rows are still pivoted), where a crash column sits in the row it
    was pivoted in.  On the case118 K=2 round's kernels that factored in
    1.4 ms against COLAMD's 2.4, and solved in 67 and 46 us (transposed)
    against 103 and 74.
    """

    def __init__(self, A: sp.csc_matrix, basis: np.ndarray,
                 nstruct: int | None = None):
        self.etas: list[tuple[int, float, np.ndarray]] = []  # (r, d[r], d)
        self.kernel = nstruct is not None
        m = len(basis)
        if not self.kernel:
            ptr, rows, vals = _gather(A, basis)
            self.lu = spla.splu(sp.csc_matrix((vals, rows, ptr), shape=(m, m)))
            self.order = m
            return
        struct = basis < nstruct
        self.pos_c = np.flatnonzero(struct)  # basis positions of C
        self.pos_l = np.flatnonzero(~struct)  # basis positions of the slacks
        self.rows_l = basis[self.pos_l] - nstruct
        slack_row = np.zeros(m, dtype=bool)
        slack_row[self.rows_l] = True
        self.rows_k = np.flatnonzero(~slack_row)
        k = self.order = len(self.pos_c)
        if len(self.rows_k) != k:  # a slack twice in the basis
            raise RuntimeError("Factor is exactly singular")
        # row -> its place in K or in L
        place = np.empty(m, dtype=A.indices.dtype)
        place[self.rows_k] = np.arange(k)
        place[self.rows_l] = np.arange(m - k)
        ptr, rows, vals = _gather(A, basis[self.pos_c])
        in_l = slack_row[rows]
        # the entries in L before each column of C: R's column pointers
        ptr_l = np.zeros(len(in_l) + 1, dtype=ptr.dtype)
        np.cumsum(in_l, out=ptr_l[1:])
        ptr_l = ptr_l[ptr]
        self.R = (m - k, k, ptr_l, place[rows[in_l]], vals[in_l])
        in_k = ~in_l
        self.lu = (spla.splu(sp.csc_matrix(
            (vals[in_k], place[rows[in_k]], ptr - ptr_l), shape=(k, k)),
            permc_spec="NATURAL") if k else None)

    def _solve(self, a: np.ndarray) -> np.ndarray:
        """B w = a for the factored basis, before the etas."""
        if not self.kernel:
            return self.lu.solve(a)
        w = np.empty(len(a))
        w_c = self.lu.solve(a[self.rows_k]) if self.order else np.zeros(0)
        w[self.pos_c] = w_c
        w[self.pos_l] = a[self.rows_l] - _matvec(self.R, w_c)
        return w

    def _solve_t(self, c: np.ndarray) -> np.ndarray:
        """B^T y = c for the factored basis, after the etas."""
        if not self.kernel:
            return self.lu.solve(c, trans="T")
        y = np.empty(len(c))
        y_l = c[self.pos_l]
        y[self.rows_l] = y_l
        if self.order:
            y[self.rows_k] = self.lu.solve(
                c[self.pos_c] - _matvec(self.R, y_l, trans=True), trans="T")
        return y

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        w = self._solve(rhs)
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
        return self._solve_t(y)

    def push_eta(self, r: int, d: np.ndarray):
        # d is ftran's fresh result, which the caller does not write to again
        self.etas.append((r, d.item(r), d))


def _factor(lp: LpData, basis: np.ndarray) -> _Factors:
    """The factors of basis: its kernel's when ``lp.crash`` or ``lp.cones``,
    else whole."""
    return _Factors(lp.A, basis, lp.nstruct if lp.crash or lp.cones else None)


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
    """The start basis of a cold LP: ``crash_basis`` when ``lp.crash``,
    else ``default_basis(lp)``."""
    return crash_basis(lp) if lp.crash else default_basis(lp)


def _violated(lp: LpData, bas: Basis) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rows whose slack at the all-slack basis bas, b - A x_N,
    lies below and above its bounds by more than FEAS_TOL."""
    s = lp.b - lp.A @ _nonbasic_vector(lp, bas)
    return s < lp.lb[lp.nstruct:] - FEAS_TOL, s > lp.ub[lp.nstruct:] + FEAS_TOL


def crash_basis(lp: LpData) -> Basis:
    """A lower-triangular start basis of structural columns in the rows the
    slack start cannot hold: equality rows and the rows whose slack lies
    outside its bounds at the slack start (the masks of ``_violated``).

    The non-fixed structural columns are ranked free first, then those with
    one infinite bound, then by the widest box, ties to the lower index.  A
    column is taken when none of its nonzeros lies in a row already pivoted
    and it has an entry in a candidate row within 0.9 of its largest |a|.
    It goes basic in the candidate row of its largest such entry, whose
    slack goes nonbasic at the bound it violates: AT_LB for an equality row
    or a slack below its lower bound, AT_UB for one above its upper bound.
    The other slacks stay basic.  Each taken column is zero in every row
    pivoted before it, so the basis is triangular with a nonzero diagonal:
    nonsingular.
    """
    bas = default_basis(lp)
    below, above = _violated(lp, bas)
    n, A = lp.nstruct, lp.A
    lb, ub = lp.lb[:n], lp.ub[:n]
    width = ub - lb
    infinite = np.isinf(lb).astype(int) + np.isinf(ub)
    cand = np.flatnonzero(width > 0.0)
    order = cand[np.lexsort((cand, -width[cand], -infinite[cand]))]
    eq = lp.lb[n:] == lp.ub[n:]
    up = above & ~eq  # rows whose slack goes nonbasic AT_UB
    row_ok = eq | below | above
    pivoted = np.zeros(lp.m, dtype=bool)
    for j in order:
        rows = A.indices[A.indptr[j]:A.indptr[j + 1]]
        if not len(rows) or pivoted[rows].any():
            continue
        mag = np.abs(A.data[A.indptr[j]:A.indptr[j + 1]])
        ok = row_ok[rows] & (mag >= 0.9 * mag.max())
        if ok.any():
            r = rows[np.argmax(np.where(ok, mag, -1.0))]
            pivoted[r] = True
            bas.basis[r] = j
            bas.vstat[j] = BASIC
            bas.vstat[n + r] = AT_UB if up[r] else AT_LB
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
    """Solve lp from start, or cold from ``initial_basis(lp)`` when None.

    ``deadline`` is a ``time.perf_counter()`` value; it is read at each
    periodic refactor, and an LP past it stops there with TIME_LIMIT.
    """
    m, ncols = lp.m, lp.ncols
    if m == 0:
        return _solve_unconstrained(lp)
    max_iters = 20000 + 40 * (m + ncols)
    clock = time.perf_counter

    st = SolveStats()
    A, AT = _csc(lp.A), _csc(lp.AT)
    bas = initial_basis(lp) if start is None else _extended(start, lp)
    if start is None:
        st.crash_cols = int(np.count_nonzero(bas.basis < lp.nstruct))
    fixed = lp.lb == lp.ub
    psign, free = _pricing_weights(bas.vstat, fixed)
    fact = None
    degen_count = 0
    lowest_after = 10 * (m + ncols)  # degenerate pivots
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
                    return result(TIME_LIMIT, message="time limit")
                st.refactors += 1
                fact = None  # free the old LU and etas before SuperLU's workspace
            t0 = clock()
            try:
                fact = _factor(lp, bas.basis)
            except RuntimeError:
                # numerically singular basis: restart from the slack basis
                st.basis_restarts += 1
                log.debug("singular basis factor after %d iterations: "
                          "restarting from the slack basis", st.lp_iters)
                bas = default_basis(lp)
                psign, free = _pricing_weights(bas.vstat, fixed)
                fact = _factor(lp, bas.basis)
            st.factor_s += clock() - t0
            st.lu_order += fact.order
            x_b = fact.ftran(lp.b - _matvec(A, _nonbasic_vector(lp, bas)))
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
            red = _matvec(AT, y)
            red *= -1.0
        else:
            y = fact.btran(lp.c[bas.basis])
            t1 = clock()
            red = _matvec(AT, y)
            np.subtract(lp.c, red, out=red)
        j = _price(red, psign, free, degen_count > lowest_after)
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
        t, blocking, block_bound = (
            _ratio_test(delta, x_b, lb_b, ub_b, below, above) if phase1
            else _ratio_test(delta, x_b, lb_b, ub_b))
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


def _price(red, psign, free, lowest):
    """Entering column, or -1 when no reduced cost is attractive.

    Eligibility is red * psign, |red| at the free columns, and 0 where that
    is NaN.  A column is a candidate when its eligibility exceeds OPT_TOL
    and enters upward iff red < 0.  Dantzig picks the largest eligibility
    (lowest index on ties); with ``lowest``, the lowest-index candidate.
    """
    elig = red * psign
    if len(free):
        elig[free] = np.abs(red[free])
    np.fmax(elig, 0.0, out=elig)  # 0 * inf and NaN never enter
    j = int((elig > OPT_TOL if lowest else elig).argmax())
    return j if elig[j] > OPT_TOL else -1


def _ratio_test(delta, x_b, lb_b, ub_b, below=None, above=None):
    """Two-pass (Harris) ratio test, phase aware.

    Basic variables outside their bounds block at the bound they are moving
    toward (restoring feasibility); moving further away never blocks.  The
    first pass finds the smallest step with bounds relaxed by FEAS_TOL, the
    second picks the largest pivot among blockers within that step, which
    keeps the eta updates well conditioned.  ``below`` and ``above`` are the
    caller's masks of x_b outside lb_b - FEAS_TOL and ub_b + FEAS_TOL; phase
    2 leaves them None, as no basic is outside its band.  The masks below
    then reduce to to_ub = ~dec and no ``away``, which that branch computes
    directly: the same selections, so the same steps bit for bit.

    A variable inside its band but past its bound has a negative distance
    to that bound.  Pass 1 relaxes that distance as it is, so the relaxed
    step moves the variable at most to the edge of its band; only the step
    returned is clamped at 0 (Harris 1973; Gill, Murray, Saunders & Wright
    1989).  Clamping each ratio first instead would let such a variable
    overshoot by a further FEAS_TOL, out of the band, and the next
    iteration's phase 1 would undo the step: a loop that ran for minutes
    on the case5 SOC ordering model with K=2.

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
    ti = np.full(delta.shape, INF)
    if below is None:  # phase 2
        to_ub = ~dec
        np.divide(np.where(dec, lb_b, ub_b) - x_b, delta, out=ti,
                  where=adelta > PIV_TOL)
    else:
        # dec ? above : ~below and dec ? below : above, as bit operations,
        # which numpy runs faster than np.where on booleans
        to_ub = (dec & above) | ~(dec | below)
        away = (dec & below) | (above & ~dec)
        np.divide(np.where(to_ub, ub_b, lb_b) - x_b, delta, out=ti,
                  where=(adelta > PIV_TOL) & ~away)
    # pass 1: relaxed step, letting each blocker overshoot by FEAS_TOL; a
    # non-blocker's INF stays INF and fmin skips NaN
    t_rel = np.fmin.reduce(ti + FEAS_TOL / np.fmax(adelta, PIV_TOL))
    if not t_rel < INF:
        return INF, -1, 0
    # pass 2: largest pivot among blockers within the relaxed step
    k = int(np.where(ti <= t_rel, adelta, -1.0).argmax())
    return max(float(ti[k]), 0.0), k, AT_UB if to_ub[k] else AT_LB


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
