import math
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from grs.mip import (BINARY, CUT_LIMIT, EQ, GAP_LIMIT, GE, LE, INFEASIBLE,
                     ITERATION_LIMIT, NODE_LIMIT, OPTIMAL, TIME_LIMIT,
                     UNBOUNDED, MipModel, NumericalFailure, SolveLimits,
                     SolveStats, cone_violation, solve_lp, solve_mip)


def test_lp_box_cap():
    m = MipModel()
    x = m.add_var("x", 0, 1)
    y = m.add_var("y", 0, 1)
    m.add_row({x: 1, y: 1}, LE, 1.0)
    m.set_objective("max", {x: 1, y: 1})
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_lp_empty_rows():
    m = MipModel()
    m.add_var("x", -1, 2)
    m.set_objective("min", {})
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.0)


def test_lp_vertex():
    m = MipModel()
    x = m.add_var("x", 0, 100)
    y = m.add_var("y", 0, 100)
    m.add_row({x: 1, y: 1}, LE, 4.0)
    m.add_row({x: 1, y: 3}, LE, 6.0)
    m.set_objective("max", {x: 3, y: 2})
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(12.0, abs=1e-7)
    assert res.values[0] == pytest.approx(4.0, abs=1e-7)
    assert res.values[1] == pytest.approx(0.0, abs=1e-7)


def test_lp_infeasible_and_unbounded():
    m = MipModel()
    x = m.add_var("x", 0, 1)
    m.add_row({x: 1}, GE, 2.0)
    m.set_objective("min", {x: 1})
    assert solve_lp(m).status == INFEASIBLE

    m2 = MipModel()
    x2 = m2.add_var("x", 0, math.inf)
    m2.set_objective("max", {x2: 1})
    assert solve_lp(m2).status == UNBOUNDED


def test_mip_integer_rounding():
    # integer in [0,3] modeled with two binaries, capped at 1.5
    m = MipModel()
    a = m.add_var("a", 0, 1, BINARY)
    b = m.add_var("b", 0, 1, BINARY)
    m.add_row({a: 1, b: 2}, LE, 1.5)
    m.set_objective("max", {a: 1, b: 2})
    res = solve_mip(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-7)


def test_mip_knapsack():
    # enumeration over the 8 subsets: best feasible is {a, c} at value 14
    # ({a, b} would score 16 but weighs 9 > 8)
    values = {"a": 10, "b": 6, "c": 4}
    weights = {"a": 5, "b": 4, "c": 3}
    best = max((sum(values[k] for k in sub) for sub in
                ({}, {"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "c"}, {"b", "c"},
                 {"a", "b", "c"})
                if sum(weights[k] for k in sub) <= 8), default=0)
    assert best == 14

    m = MipModel()
    a = m.add_var("a", 0, 1, BINARY)
    b = m.add_var("b", 0, 1, BINARY)
    c = m.add_var("c", 0, 1, BINARY)
    m.add_row({a: 5, b: 4, c: 3}, LE, 8.0)
    m.set_objective("max", {a: 10, b: 6, c: 4})
    res = solve_mip(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(best, abs=1e-7)
    assert round(res.values[0]) == 1 and round(res.values[2]) == 1


def test_cone_unit_max():
    m = MipModel()
    x = m.add_var("x", -2, 2)
    u = m.add_var("u", 1, 1)
    v = m.add_var("v", 1, 1)
    m.add_cone(x, x, u, v)
    m.set_objective("max", {x: 1})
    res = solve_mip(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(math.sqrt(0.5), abs=1e-4)


def _random_milp(rng, nb, nc, nrows):
    m = MipModel()
    for i in range(nb):
        m.add_var(f"z{i}", 0, 1, BINARY)
    lbs = rng.uniform(-4, 0, nc)
    ubs = lbs + rng.uniform(0.5, 6, nc)
    for j in range(nc):
        m.add_var(f"x{j}", lbs[j], ubs[j])
    rows = []
    senses = [LE, GE, EQ]
    for _ in range(nrows):
        cols = rng.choice(nb + nc, size=rng.integers(1, nb + nc + 1),
                          replace=False)
        coeffs = {int(c): float(rng.normal()) for c in cols}
        s = senses[rng.integers(0, 3)]
        if s == EQ and rng.integers(0, 2):
            s = LE
        rhs = float(rng.normal() * 2 + 1)
        m.add_row(coeffs, s, rhs)
        rows.append((coeffs, s, rhs))
    obj = {j: float(rng.normal()) for j in range(nb + nc)}
    sense = "min" if rng.integers(0, 2) == 0 else "max"
    m.set_objective(sense, obj)
    return m, rows, obj, sense, lbs, ubs


def milp_enumeration_oracle(nb, nc, rows, obj, sense, lbs, ubs):
    best = None
    for mask in range(2 ** nb):
        zs = [(mask >> i) & 1 for i in range(nb)]
        A, bu, Aeq, beq = [], [], [], []
        for coeffs, s, rhs in rows:
            rowv = np.zeros(nc)
            r2 = rhs
            for c, v in coeffs.items():
                if c < nb:
                    r2 -= v * zs[c]
                else:
                    rowv[c - nb] = v
            if s == LE:
                A.append(rowv); bu.append(r2)
            elif s == GE:
                A.append(-rowv); bu.append(-r2)
            else:
                Aeq.append(rowv); beq.append(r2)
        cc = np.zeros(nc)
        const = 0.0
        for c, v in obj.items():
            if c < nb:
                const += v * zs[c]
            else:
                cc[c - nb] = v
        kw = {}
        if A:
            kw["A_ub"] = np.array(A); kw["b_ub"] = np.array(bu)
        if Aeq:
            kw["A_eq"] = np.array(Aeq); kw["b_eq"] = np.array(beq)
        if nc:
            ref = linprog(cc if sense == "min" else -cc,
                          bounds=list(zip(lbs, ubs)), method="highs", **kw)
            if ref.status != 0:
                continue
            val = (ref.fun if sense == "min" else -ref.fun) + const
        else:
            ok = True
            for coeffs, s, rhs in rows:
                a = sum(v * zs[c] for c, v in coeffs.items())
                if (s == LE and a > rhs + 1e-9) or (s == GE and a < rhs - 1e-9) \
                        or (s == EQ and abs(a - rhs) > 1e-9):
                    ok = False
                    break
            if not ok:
                continue
            val = const
        if best is None or (sense == "min" and val < best) \
                or (sense == "max" and val > best):
            best = val
    return best


@pytest.mark.parametrize("seed", range(12))
def test_mip_matches_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    nb = int(rng.integers(1, 8))
    nc = int(rng.integers(0, 10))
    m, rows, obj, sense, lbs, ubs = _random_milp(rng, nb, nc, int(rng.integers(2, 9)))
    res = solve_mip(m)
    ref = milp_enumeration_oracle(nb, nc, rows, obj, sense, lbs, ubs)
    if ref is None:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(ref, abs=1e-5, rel=1e-5)


@pytest.mark.parametrize("seed", range(6))
def test_root_bound_dominates(seed):
    rng = np.random.default_rng(77 + seed)
    m, rows, obj, sense, lbs, ubs = _random_milp(rng, 5, 4, 6)
    lp = solve_lp(m)
    mip = solve_mip(m)
    if mip.status != OPTIMAL or lp.status != OPTIMAL:
        return
    if sense == "max":
        assert lp.objective >= mip.objective - 1e-7
    else:
        assert lp.objective <= mip.objective + 1e-7


def test_cone_cut_validity_sampling():
    from grs.mip.bnb import cone_cut
    from grs.mip import ConeRow
    rng = np.random.default_rng(5)
    cone = ConeRow(0, 1, 2, 3)
    # violating points to linearize at
    for _ in range(20):
        pt = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(0.01, 2), rng.uniform(0.01, 2)])
        if cone_violation(cone, pt) <= 1e-6:
            continue
        cut = cone_cut(cone, pt)
        # every true cone point must satisfy the cut
        for _ in range(200):
            u, v = rng.uniform(0, 2), rng.uniform(0, 2)
            rad = math.sqrt(u * v)
            theta = rng.uniform(0, 2 * math.pi)
            r = rad * math.sqrt(rng.uniform(0, 1))
            p = np.array([r * math.cos(theta), r * math.sin(theta), u, v])
            activity = sum(c * p[i] for i, c in cut.coeffs.items())
            assert activity <= cut.rhs + 1e-9


def test_determinism():
    found_feasible = False
    for seed in range(31415, 31425):
        rng = np.random.default_rng(seed)
        m, *_ = _random_milp(rng, 6, 6, 8)
        r1 = solve_mip(m)
        r2 = solve_mip(m)
        assert r1.status == r2.status
        assert np.array_equal(r1.values, r2.values)
        assert (r1.stats.nodes, r1.stats.lp_iters) == (r2.stats.nodes,
                                                       r2.stats.lp_iters)
        if r1.status == OPTIMAL:
            assert r1.objective == r2.objective
            found_feasible = True
    assert found_feasible


def test_lp_dump_format():
    m = MipModel()
    x = m.add_var("x", 0, 1, BINARY)
    y = m.add_var("y", 0, 2)
    m.add_row({x: 1, y: 1}, LE, 1.5, "cap")
    m.set_objective("max", {x: 2, y: 1})
    text = m.to_lp_string()
    assert "Maximize" in text and "Binary" in text and "Bounds" in text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 20))
def test_lp_random_agrees_with_highs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m_rows = int(rng.integers(0, 8))
    m = MipModel()
    lbs = rng.uniform(-3, 0, n)
    ubs = lbs + rng.uniform(0.1, 5, n)
    for j in range(n):
        m.add_var(f"x{j}", lbs[j], ubs[j])
    A, bu, Aeq, beq = [], [], [], []
    senses = [LE, GE, EQ]
    for _ in range(m_rows):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = {int(c): float(rng.normal()) for c in cols}
        s = senses[rng.integers(0, 3)]
        rhs = float(rng.normal() * 2)
        m.add_row(coeffs, s, rhs)
        rowv = np.zeros(n)
        for c2, v in coeffs.items():
            rowv[c2] = v
        if s == LE:
            A.append(rowv); bu.append(rhs)
        elif s == GE:
            A.append(-rowv); bu.append(-rhs)
        else:
            Aeq.append(rowv); beq.append(rhs)
    c = rng.normal(size=n)
    m.set_objective("min", {j: float(c[j]) for j in range(n)})
    res = solve_lp(m)
    kw = {}
    if A:
        kw["A_ub"] = np.array(A); kw["b_ub"] = np.array(bu)
    if Aeq:
        kw["A_eq"] = np.array(Aeq); kw["b_eq"] = np.array(beq)
    ref = linprog(c, bounds=list(zip(lbs, ubs)), method="highs", **kw)
    # the same LP from its crash basis, whatever the gate would choose, and
    # again with its bases factored by their kernel
    from dataclasses import replace
    from grs.mip.simplex import build_lp_data, crash_basis, solve_lp_core
    lp = build_lp_data(m)
    crashed = solve_lp_core(lp, start=crash_basis(lp))
    kernel = solve_lp_core(replace(lp, crash=True), start=crash_basis(lp))
    if ref.status == 0:
        assert res.status == crashed.status == kernel.status == OPTIMAL
        assert res.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        assert crashed.obj == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        assert kernel.obj == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
    elif ref.status == 2:
        assert res.status == crashed.status == kernel.status == INFEASIBLE


# --- standard form, ratio test and pricing against the earlier code ------

def _reference_build_lp_data(model, extra_rows=None):
    """The standard form as assembled from a COO triplet list."""
    rows = list(model.lin_rows) + list(extra_rows or ())
    n = len(model.vars)
    m = len(rows)
    data, ri, ci = [], [], []
    b = np.zeros(m)
    slack_lb = np.zeros(m)
    slack_ub = np.zeros(m)
    for k, row in enumerate(rows):
        for j, coef in row.coeffs.items():
            if coef != 0.0:
                data.append(float(coef))
                ri.append(k)
                ci.append(j)
        b[k] = row.rhs
        if row.sense == LE:
            slack_lb[k], slack_ub[k] = 0.0, math.inf
        elif row.sense == GE:
            slack_lb[k], slack_ub[k] = -math.inf, 0.0
    for k in range(m):
        data.append(1.0)
        ri.append(k)
        ci.append(n + k)
    A = sp.csc_matrix(
        (np.asarray(data, dtype=float), (np.asarray(ri), np.asarray(ci))),
        shape=(m, n + m))
    lb = np.concatenate([[v.lb for v in model.vars], slack_lb])
    ub = np.concatenate([[v.ub for v in model.vars], slack_ub])
    sgn = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n + m)
    for j, coef in model.obj.items():
        c[j] = sgn * coef
    return A, A.T.tocsc(), b, c, lb, ub


def _assert_same_lp(lp, ref):
    A, AT, b, c, lb, ub = ref
    for got, want in ((lp.A, A), (lp.AT, AT)):
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype, name
            assert np.array_equal(g, w), name
    for got, want in ((lp.b, b), (lp.c, c), (lp.lb, lb), (lp.ub, ub)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert lp.nstruct == len(lp.lb) - lp.m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 20))
def test_appended_cut_rows_equal_full_build(seed):
    from grs.mip import ConeRow, LinRow
    from grs.mip.bnb import cone_cut
    from grs.mip.simplex import build_lp_data
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    m = MipModel()
    for j in range(n):
        m.add_var(f"x{j}", 0.0 if j < 2 else -2.0, 2.0)
    for _ in range(int(rng.integers(0, 6))):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = {int(c): float(rng.choice([0.0, 1.0, rng.normal()]))
                  for c in cols}
        m.add_row(coeffs, [LE, GE, EQ][rng.integers(0, 3)], float(rng.normal()))
    m.set_objective(["min", "max"][rng.integers(0, 2)],
                    {int(j): float(rng.normal()) for j in range(n)})
    cuts = []
    for _ in range(int(rng.integers(1, 25))):
        xs, ys = (int(v) for v in rng.integers(2, n, size=2))
        if rng.integers(0, 3) == 0:
            ys = xs  # aliased quadratic slots, as in x^2 + x^2 <= u v
        point = rng.uniform(-2, 2, n)
        point[:2] = rng.uniform(0.01, 2, 2)
        if rng.integers(0, 3) == 0:
            point[xs] = 0.0  # a zero gradient coefficient
        cuts.append(cone_cut(ConeRow(xs, ys, 0, 1, "c"), point))
        if rng.integers(0, 4) == 0:
            cuts.append(LinRow({xs: 0.0, 1: float(rng.normal())}, GE, 0.5, "z"))
    lp = build_lp_data(m)
    _assert_same_lp(lp, _reference_build_lp_data(m))
    done = 0
    while done < len(cuts):
        done = min(len(cuts), done + int(rng.integers(1, 6)))
        lp = build_lp_data(m, cuts[:done], prev=lp)
        _assert_same_lp(lp, _reference_build_lp_data(m, cuts[:done]))
        full = build_lp_data(m, cuts[:done])
        _assert_same_lp(lp, (full.A, full.AT, full.b, full.c, full.lb, full.ub))


def _reference_ratio_test(delta, x_b, lb_b, ub_b):
    """The ratio test as computed with four full-length masks."""
    from grs.mip.simplex import AT_LB, AT_UB, FEAS_TOL, PIV_TOL
    INF = math.inf
    adelta = np.abs(delta)
    move = adelta > PIV_TOL
    dec = move & (delta < 0.0)
    inc = move & (delta > 0.0)
    ti = np.full(delta.shape, INF)
    tgt = np.zeros(delta.shape, dtype=np.int8)
    infeas_above = dec & (x_b > ub_b + FEAS_TOL)
    np.divide(ub_b - x_b, delta, out=ti, where=infeas_above)
    tgt[infeas_above] = AT_UB
    feas_dec = dec & ~infeas_above & (lb_b > -INF) & (x_b >= lb_b - FEAS_TOL)
    np.divide(lb_b - x_b, delta, out=ti, where=feas_dec)
    tgt[feas_dec] = AT_LB
    infeas_below = inc & (x_b < lb_b - FEAS_TOL)
    np.divide(lb_b - x_b, delta, out=ti, where=infeas_below)
    tgt[infeas_below] = AT_LB
    feas_inc = inc & ~infeas_below & (ub_b < INF) & (x_b <= ub_b + FEAS_TOL)
    np.divide(ub_b - x_b, delta, out=ti, where=feas_inc)
    tgt[feas_inc] = AT_UB
    blockable = ti < INF
    if not blockable.any():
        return INF, -1, 0
    t_rel = np.min(np.where(blockable,
                            ti + FEAS_TOL / np.maximum(adelta, PIV_TOL), INF))
    cand = blockable & (ti <= t_rel)
    blocking = int(np.argmax(np.where(cand, adelta, -1.0)))
    return max(float(ti[blocking]), 0.0), blocking, int(tgt[blocking])


def _reference_price(red, vstat, fixed, bland):
    """Pricing from the up and down candidate masks; (-1, 0.0) if none."""
    from grs.mip.simplex import AT_LB, AT_UB, BASIC, FREE_NB, OPT_TOL
    nonbasic = vstat != BASIC
    cand_up = nonbasic & ~fixed & (
        ((vstat == AT_LB) | (vstat == FREE_NB)) & (red < -OPT_TOL))
    cand_dn = nonbasic & ~fixed & (
        ((vstat == AT_UB) | (vstat == FREE_NB)) & (red > OPT_TOL))
    any_cand = cand_up | cand_dn
    if not any_cand.any():
        return -1, 0.0
    if bland:
        j = int(np.flatnonzero(any_cand)[0])
    else:
        j = int(np.argmax(np.where(any_cand, np.abs(red), -1.0)))
    return j, 1.0 if cand_up[j] else -1.0


def _near(rng, size, scale, tol):
    """Values of the given scale, some 0, +-tol, or within a few tol of 0."""
    v = rng.normal(scale=scale, size=size)
    kind = rng.integers(0, 5, size)
    v[kind == 1] = 0.0
    v[kind == 3] = rng.choice([-tol, tol], (kind == 3).sum())
    near = kind == 2
    v[near] = rng.choice([-2, -1, 1, 2], near.sum()) * tol \
        * rng.uniform(0.5, 1.5, near.sum())
    return v


def _nonfinite(rng, v):
    """A copy of v with about one entry in five set to NaN, +inf or -inf."""
    v = v.copy()
    hit = rng.random(v.size) < 0.2
    v[hit] = rng.choice([math.nan, math.inf, -math.inf], hit.sum())
    return v


def _ratio_test_draw(rng):
    """(lb, ub, x, delta) of a ratio test: basics at, inside or just
    outside a bound, by about FEAS_TOL, and steps near PIV_TOL."""
    from grs.mip.simplex import FEAS_TOL, PIV_TOL
    m = int(rng.integers(1, 30))
    lb = np.round(rng.normal(size=m), int(rng.integers(0, 3)))
    ub = lb + rng.choice([0.0, 0.5, 1.0, 3.0], m)  # fixed bounds included
    lb[rng.random(m) < 0.2] = -math.inf
    ub[rng.random(m) < 0.2] = math.inf
    at = np.where(rng.random(m) < 0.5, lb, ub)
    x = np.where(np.isfinite(at), at, rng.normal(size=m)) \
        + _near(rng, m, 0.5, FEAS_TOL)
    return lb, ub, x, _near(rng, m, 1.0, PIV_TOL)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_ratio_test_and_pricing_match_reference(seed):
    from grs.mip.simplex import (AT_LB, AT_UB, BASIC, FEAS_TOL, FREE_NB,
                                 OPT_TOL, _price, _pricing_weights,
                                 _ratio_test)
    rng = np.random.default_rng(seed)
    odd = np.random.default_rng([seed, 1])  # NaN and inf draws, kept apart
    lb, ub, x, delta = _ratio_test_draw(rng)
    # phase 2: every basic inside its band (NaN is in no mask); the loop
    # then passes no masks
    inside = np.clip(x, lb - FEAS_TOL, ub + FEAS_TOL)
    odd_inside = _nonfinite(odd, inside)
    with np.errstate(invalid="ignore"):
        odd_inside[(odd_inside < lb - FEAS_TOL) | (odd_inside > ub + FEAS_TOL)] \
            = math.nan
        for xs, ds in ((x, delta), (_nonfinite(odd, x), _nonfinite(odd, delta)),
                       (inside, delta), (odd_inside, _nonfinite(odd, delta))):
            below = xs < lb - FEAS_TOL
            above = xs > ub + FEAS_TOL
            want = _reference_ratio_test(ds, xs, lb, ub)
            assert _ratio_test(ds, xs, lb, ub, below, above) == want
            if not (below.any() or above.any()):
                assert _ratio_test(ds, xs, lb, ub) == want

    n = int(rng.integers(1, 40))
    vstat = rng.choice(np.array([BASIC, AT_LB, AT_UB, FREE_NB], dtype=np.int8), n)
    fixed = rng.random(n) < 0.2
    red = _near(rng, n, 1.0, OPT_TOL)
    red[rng.random(n) < 0.3] = rng.choice([-1.0, 1.0])  # ties
    psign, free = _pricing_weights(vstat, fixed)
    with np.errstate(invalid="ignore"):
        for reds in (red, _nonfinite(odd, red)):
            for bland in (False, True):
                want_j, want_dir = _reference_price(reds, vstat, fixed, bland)
                j = _price(reds, psign, free, bland)
                assert j == want_j
                if j >= 0:
                    assert (1.0 if reds[j] < 0.0 else -1.0) == want_dir


# --- the mat-vec kernel matches scipy's @ bit for bit ---------------------

def _bits(v):
    return np.asarray(v, dtype=np.float64).view(np.uint64)


def _odd_vector(rng, size):
    """Normal draws, about half of them replaced by +-0, +-inf or NaN."""
    v = rng.normal(size=size)
    hit = rng.random(size) < 0.5
    v[hit] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], hit.sum())
    return v


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_matvec_matches_scipy_bit_for_bit(seed):
    # _matvec calls scipy's compiled kernels directly; if a scipy release
    # moves or changes them, this fails instead of the pivots moving
    from grs.mip.simplex import _csc, _Factors, _matvec
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(0, 8)), int(rng.integers(0, 8))
    dense = rng.normal(size=(m, n))
    dense[rng.random((m, n)) < 0.2] = rng.choice([-0.0, 1e300, -1e-300])
    keep = rng.random((m, n)) < rng.uniform(0.1, 0.9)
    keep[rng.random(m) < 0.3, :] = False  # empty rows
    keep[:, rng.random(n) < 0.3] = False  # empty columns
    rows, cols = np.nonzero(keep)
    # explicit entries, -0.0 included, from the COO of the kept positions
    M = sp.coo_matrix((dense[rows, cols], (rows, cols)), shape=(m, n)).tocsc()
    with np.errstate(all="ignore"):
        for _ in range(3):
            x, y = _odd_vector(rng, n), _odd_vector(rng, m)
            assert np.array_equal(_bits(_matvec(_csc(M), x)), _bits(M @ x))
            # M.T is the CSR matrix on M's arrays
            assert np.array_equal(_bits(_matvec(_csc(M), y, trans=True)),
                                  _bits(M.T @ y))

    # _Factors keeps R = A[L, C] as bare CSC arrays
    A, basis = _kernel_lp_basis(rng, int(rng.integers(2, 9)),
                                int(rng.integers(1, 9)), "mixed")
    if basis is None:
        return
    nstruct = A.shape[1] - A.shape[0]
    try:
        f = _Factors(A, basis, nstruct)
    except RuntimeError:  # an exactly singular kernel
        return
    nrows, ncols, indptr, indices, data = f.R
    R = sp.csc_matrix((data, indices, indptr), shape=(nrows, ncols))
    want = A[f.rows_l][:, basis[f.pos_c]]
    assert np.array_equal(R.toarray(), want.toarray())
    with np.errstate(all="ignore"):
        for _ in range(3):
            w, y = _odd_vector(rng, ncols), _odd_vector(rng, nrows)
            assert np.array_equal(_bits(_matvec(f.R, w)), _bits(R @ w))
            assert np.array_equal(_bits(_matvec(f.R, y, trans=True)),
                                  _bits(R.T @ y))


# --- the ratio test keeps basics in their bands: termination ------------

@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_ratio_test_keeps_basics_inside_their_band(seed):
    # a step that pushed a basic variable from inside its FEAS_TOL band to
    # outside it would hand the next iteration a phase-1 row that the step
    # itself made, and phase 1 then undoes the step: the loop of a ratio
    # test that clamps before the Harris relaxation
    from grs.mip.simplex import FEAS_TOL, PIV_TOL, _ratio_test
    lb, ub, x, delta = _ratio_test_draw(np.random.default_rng(seed))
    lo, hi = lb - FEAS_TOL, ub + FEAS_TOL
    below, above = x < lo, x > hi
    t, k, _ = _ratio_test(delta, x, lb, ub, below, above)
    if k < 0:
        return
    assert t >= 0.0
    # positions that can block: inside the band, moving by more than PIV_TOL
    inside = ~below & ~above & (np.abs(delta) > PIV_TOL)
    after = x + t * delta
    slack = 1e-12 * (1.0 + np.abs(x) + t * np.abs(delta))  # rounding
    assert np.all(after[inside] >= lo[inside] - slack[inside])
    assert np.all(after[inside] <= hi[inside] + slack[inside])


def test_basic_inside_its_band_stays_there():
    # the slack start puts s1 at -5e-8, below its bound 0 but inside the
    # band.  x enters (max x) and moves s1 down at rate 0.1 and s2 at 10;
    # s2 would block at 9e-7, which drives s1 to -1.4e-7, out of the band,
    # so s1 must block first, with a zero step
    from grs.mip.simplex import build_lp_data, solve_lp_core
    m = MipModel()
    x = m.add_var("x", 0, 10)
    y = m.add_var("y", 0, 10)
    m.add_row({x: 0.1, y: -1.0}, LE, -5e-8)
    m.add_row({x: 10.0}, LE, 9e-6)
    m.set_objective("min", {x: -1.0, y: 1.0})
    res = solve_lp_core(build_lp_data(m))
    assert res.status == OPTIMAL
    assert (res.stats.phase1_iters, res.stats.phase_switches) == (0, 0)
    assert res.x[x] == pytest.approx(9e-7, abs=1e-9)


def test_case5_soc_rop_k2_terminates(case5, damage5_all):
    # all 11 components damaged: a loop of phase-1 pivots ran for minutes
    # here while the ratio test clamped before relaxing
    from grs.acvalidate import redispatch_plan
    from grs.formulations import SOC, build_rop
    from grs.grid import replicate
    from grs.workflows import solve_rop
    case = replicate(case5, damage5_all, 2)
    plan, sol = solve_rop(case, build_rop(case, SOC), SOC,
                          SolveLimits(time_s=60))
    assert sol.status == OPTIMAL
    assert plan.objective_value == pytest.approx(2000.0)  # MWh served
    assert redispatch_plan(case, plan).true_ens_mwh == pytest.approx(1000.0)


# --- whole solves against the earlier iteration loop --------------------

class _ReferenceFactors:
    """The earlier eta file over the live code's factored basis (its kernel
    or whole LU): pivots read back from d, btran copies."""

    def __init__(self, lp, basis):
        from grs.mip.simplex import _factor
        base = _factor(lp, basis)
        self.solve, self.solve_t = base._solve, base._solve_t
        self.etas = []

    def ftran(self, rhs):
        w = self.solve(rhs)
        for r, d in self.etas:
            wr = w[r] / d[r]
            if wr != 0.0:
                w -= wr * d
            w[r] = wr
        return w

    def btran(self, rhs):
        y = rhs.astype(float, copy=True)
        for r, d in reversed(self.etas):
            yr = y[r]
            s = d @ y - d[r] * yr
            y[r] = (yr - s) / d[r]
        return self.solve_t(y)


def _reference_solve_lp_core(lp, start=None):
    """The earlier iteration loop, frozen: masks recomputed every iteration,
    pricing and the ratio test from the mask references above."""
    from grs.mip.model import NumericalFailure, SolveStats
    from grs.mip.simplex import (AT_LB, AT_UB, BASIC, DEGEN_TOL, FEAS_TOL,
                                 INFEASIBLE, ITERATION_LIMIT, REFACTOR_EVERY,
                                 Basis, LpResult, _full_x, _nonbasic_value,
                                 _nonbasic_vector, _solve_unconstrained,
                                 _struct_obj, default_basis, initial_basis)
    INF = math.inf
    m, ncols = lp.m, lp.ncols
    if m == 0:
        return _solve_unconstrained(lp)
    max_iters = 20000 + 40 * (m + ncols)
    bas = initial_basis(lp) if start is None else start.copy()
    if len(bas.basis) < m:
        # a start from before cut rows were appended: their slacks are basic
        new = np.arange(len(bas.basis), m)
        bas = Basis(np.concatenate([bas.basis, lp.nstruct + new]),
                    np.concatenate([bas.vstat, np.full(len(new), BASIC,
                                                       dtype=np.int8)]))
    refactors = restarts = iters = 0

    def factor():
        nonlocal bas, restarts
        try:
            return _ReferenceFactors(lp, bas.basis)
        except RuntimeError:
            restarts += 1
            bas = default_basis(lp)
            return _ReferenceFactors(lp, bas.basis)

    def result(status, obj=None, message=""):
        return LpResult(status, _full_x(lp, bas, x_b),
                        _struct_obj(lp, bas, x_b) if obj is None else obj,
                        bas, message, SolveStats(lp_iters=iters,
                                                 refactors=refactors,
                                                 basis_restarts=restarts))

    fact = factor()
    fixed = lp.lb == lp.ub

    def compute_xb():
        return fact.ftran(lp.b - lp.A @ _nonbasic_vector(lp, bas))

    x_b = compute_xb()
    lb_b, ub_b = lp.lb[bas.basis], lp.ub[bas.basis]
    degen_count = pivots_since_refactor = 0
    bland_threshold = 10 * (m + ncols)
    while True:
        if iters >= max_iters:
            return result(ITERATION_LIMIT, message="simplex iteration limit")
        iters += 1
        if pivots_since_refactor >= REFACTOR_EVERY:
            refactors += 1
            fact = None
            fact = factor()
            x_b = compute_xb()
            lb_b, ub_b = lp.lb[bas.basis], lp.ub[bas.basis]
            pivots_since_refactor = 0
        below = x_b < lb_b - FEAS_TOL
        above = x_b > ub_b + FEAS_TOL
        phase1 = bool(below.any() or above.any())
        if phase1:
            y = fact.btran(np.where(below, -1.0, np.where(above, 1.0, 0.0)))
            red = -(lp.AT @ y)
        else:
            y = fact.btran(lp.c[bas.basis])
            red = lp.c - lp.AT @ y
        j, direction = _reference_price(red, bas.vstat, fixed,
                                        degen_count > bland_threshold)
        if j < 0:
            if phase1:
                return result(INFEASIBLE, message="phase 1 optimum is infeasible")
            return result(OPTIMAL)
        d_col = fact.ftran(lp.column(j))
        delta = -direction * d_col
        t, blocking, block_bound = _reference_ratio_test(delta, x_b, lb_b, ub_b)
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
        fact.etas.append((blocking, d_col))
        pivots_since_refactor += 1


def _solve_both(lp, start=None):
    """Solve with the kernel and the frozen loop; assert the same outcome,
    bit for bit, and return the kernel's result (or failure message)."""
    from grs.mip import NumericalFailure
    from grs.mip.simplex import solve_lp_core

    def run(solve):
        try:
            return solve(lp, start=start)
        except NumericalFailure as exc:
            return f"NumericalFailure: {exc}"

    want, got = run(_reference_solve_lp_core), run(solve_lp_core)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return got
    assert (got.status, got.iters, got.stats.refactors,
            got.stats.basis_restarts, got.message) \
        == (want.status, want.iters, want.stats.refactors,
            want.stats.basis_restarts, want.message)
    assert np.array_equal(got.x, want.x, equal_nan=True)
    assert got.obj == want.obj or (math.isnan(got.obj) and math.isnan(want.obj))
    assert (got.basis is None) == (want.basis is None)
    if got.basis is not None:
        assert np.array_equal(got.basis.basis, want.basis.basis)
        assert np.array_equal(got.basis.vstat, want.basis.vstat)
    return got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_simplex_matches_frozen_loop(seed):
    from grs.mip.simplex import (AT_LB, AT_UB, BASIC, Basis, build_lp_data,
                                 default_basis)
    INF = math.inf
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    m = MipModel()
    for j in range(n):
        lo = round(float(rng.normal()), 1)
        boxed, fixed, free = (lo, lo + rng.uniform(0.5, 4)), (lo, lo), (-INF, INF)
        lb, ub = [boxed, fixed, free, (lo, INF), (-INF, lo)][rng.integers(0, 5)]
        m.add_var(f"x{j}", lb, ub)
    # rows hold at a point inside the bounds, so most draws are feasible
    point = np.clip(rng.normal(size=n) * 2, [v.lb for v in m.vars],
                    [v.ub for v in m.vars])
    for _ in range(int(rng.integers(1, 12))):
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = {int(c): float(rng.normal()) for c in cols}
        at = sum(a * point[c] for c, a in coeffs.items())
        sense = [LE, GE, EQ][rng.integers(0, 3)]
        slack = 0.0 if sense == EQ else abs(float(rng.normal()))
        m.add_row(coeffs, sense, at + slack if sense == LE else at - slack)
    m.set_objective(["min", "max"][rng.integers(0, 2)],
                    {j: float(rng.normal()) for j in range(n)})
    lp = build_lp_data(m)
    cold = _solve_both(lp)
    if not isinstance(cold, str) and cold.basis is not None:
        # warm start, as for a B&B child: one more column fixed
        lb, ub = lp.lb.copy(), lp.ub.copy()
        j = int(rng.integers(0, n))
        v = cold.x[j] if np.isfinite(cold.x[j]) else 0.0
        lb[j] = ub[j] = float(np.round(v + rng.choice([-1.0, 0.0, 1.0])))
        _solve_both(lp.with_bounds(lb, ub), cold.basis)
    if lp.m >= 2:
        # singular start: one structural column in every basis slot
        vstat = default_basis(lp).vstat
        vstat[n:] = np.where(lp.lb[n:] > -INF, AT_LB, AT_UB)
        j = int(rng.integers(0, n))
        vstat[j] = BASIC
        _solve_both(lp, Basis(np.full(lp.m, j, dtype=np.int64), vstat))


def _checked_lps(monkeypatch, cut_rounds=None):
    """Route bnb's LP solves through _solve_both; stop before the first LP
    past ``cut_rounds`` cut rounds (each round grows the row count)."""
    import grs.mip.bnb

    class Enough(Exception):
        pass

    seen = []

    def checked(lp, start=None, deadline=None):
        assert deadline is None  # the frozen loop has no deadline
        if cut_rounds is not None and lp.m not in seen \
                and len(set(seen)) > cut_rounds:
            raise Enough
        seen.append(lp.m)
        res = _solve_both(lp, start)
        if isinstance(res, str):
            raise NumericalFailure(res)
        return res

    from grs.mip import NumericalFailure
    monkeypatch.setattr(grs.mip.bnb, "solve_lp_core", checked)
    return seen, Enough


def test_simplex_matches_frozen_loop_on_case5_dc_k3(monkeypatch, case5,
                                                    damage5_all):
    from grs.formulations import DC, build_rop
    from grs.grid import replicate
    seen, _ = _checked_lps(monkeypatch)
    sol = solve_mip(build_rop(replicate(case5, damage5_all, 3), DC))
    assert sol.status == OPTIMAL
    assert len(seen) > 50  # every LP of the search, root to last node


def test_simplex_matches_frozen_loop_on_case5_soc_cut_rounds(
        monkeypatch, case5, damage5_all):
    from grs.formulations import SOC, build_rop
    from grs.grid import replicate
    seen, enough = _checked_lps(monkeypatch, cut_rounds=20)
    with pytest.raises(enough):
        solve_mip(build_rop(replicate(case5, damage5_all, 3), SOC))
    # the root LP, its 15 cut rounds and the dive's first five steps, one
    # round each: 20 rounds in all
    assert len(set(seen)) == 21 and seen == sorted(seen)


# --- recoveries and cut rounds are counted ----------------------------------

def _two_row_lp():
    m = MipModel()
    x = m.add_var("x", 0, 10)
    y = m.add_var("y", 0, 10)
    m.add_row({x: 1, y: 2}, LE, 8.0)
    m.add_row({x: 3, y: 1}, LE, 9.0)
    m.set_objective("max", {x: 2, y: 3})
    return m


def test_singular_warm_start_is_counted_restart(caplog):
    from grs.mip.simplex import BASIC, Basis, build_lp_data, solve_lp_core
    lp = build_lp_data(_two_row_lp())
    cold = solve_lp_core(lp)
    vstat = np.full(lp.ncols, 1, dtype=np.int8)  # AT_LB
    vstat[0] = BASIC
    singular = Basis(np.array([0, 0], dtype=np.int64), vstat)
    with caplog.at_level("DEBUG", logger="grs.mip"):
        res = solve_lp_core(lp, start=singular)
    assert res.stats.basis_restarts == 1 and cold.stats.basis_restarts == 0
    assert res.status == cold.status == "optimal"
    assert res.obj == cold.obj
    assert np.array_equal(res.x, cold.x)
    notes = [r for r in caplog.records if r.name == "grs.mip"]
    assert len(notes) == 1 and notes[0].levelname == "DEBUG"


def _kernel_lp_basis(rng, m, n, kind):
    """A drawn [A | I] (m rows, n structural columns) and a basis of the
    kind asked for, its positions shuffled; None when n < m rules it out."""
    dense = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
    A = sp.csc_matrix(np.hstack([dense, np.eye(m)]))
    struct = {"slack": 0, "struct": m,
              "mixed": int(rng.integers(1, m)) if m > 1 else 1}[kind]
    if struct > n:
        return A, None
    cols = np.concatenate([rng.choice(n, struct, replace=False),
                           n + rng.choice(m, m - struct, replace=False)])
    return A, rng.permutation(cols).astype(np.int64)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_kernel_factors_solve_like_a_dense_basis(seed):
    from grs.mip.simplex import _Factors
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    for kind in ("slack", "struct", "mixed"):
        A, basis = _kernel_lp_basis(rng, m, n, kind)
        if basis is None or np.linalg.cond(A[:, basis].toarray()) > 1e6:
            continue
        f = _Factors(A, basis, n)
        assert f.order == np.count_nonzero(basis < n)
        assert (f.lu is None) == (kind == "slack")
        for _ in range(4):  # the factored basis, then after 1-3 etas
            B = A[:, basis].toarray()
            tol = 1e-10 * np.linalg.cond(B)  # relative, as rounding allows
            a, c = rng.normal(size=m), rng.normal(size=m)
            for got, want in ((f.ftran(a.copy()), np.linalg.solve(B, a)),
                              (f.btran(c.copy()), np.linalg.solve(B.T, c))):
                assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
            # a pivot on the largest entry of an entering column's ftran
            j = int(rng.choice(np.setdiff1d(np.arange(n + m), basis)))
            d = f.ftran(A[:, [j]].toarray().ravel())
            r = int(np.argmax(np.abs(d)))
            after = basis.copy()
            after[r] = j
            if np.linalg.cond(A[:, after].toarray()) > 1e6:
                break
            f.push_eta(r, d)
            basis = after


def test_singular_kernel_is_counted_restart():
    from dataclasses import replace
    from grs.mip.simplex import (AT_LB, BASIC, Basis, _Factors,
                                 build_lp_data, solve_lp_core)
    lp = replace(build_lp_data(_two_row_lp()), crash=True)
    n = lp.nstruct
    cold = solve_lp_core(lp)
    assert cold.stats.basis_restarts == 0
    for twice in (0, n):  # x in both rows; row 0's slack in both
        basis = np.array([twice, twice], dtype=np.int64)
        with pytest.raises(RuntimeError):
            _Factors(lp.A, basis, n)
        vstat = np.full(lp.ncols, AT_LB, dtype=np.int8)
        vstat[twice] = BASIC
        res = solve_lp_core(lp, start=Basis(basis, vstat))
        assert res.stats.basis_restarts == 1
        assert res.status == cold.status == OPTIMAL
        assert res.obj == cold.obj and np.array_equal(res.x, cold.x)
        # the slack basis it restarts from has an empty kernel: no LU
        assert res.stats.lu_order == cold.stats.lu_order == 0


def test_phase_counters_and_kernel_timers():
    from grs.mip.simplex import build_lp_data, solve_lp_core
    feasible = solve_lp_core(build_lp_data(_two_row_lp()))
    assert feasible.stats.phase1_iters == feasible.stats.phase_switches == 0
    m = MipModel()  # the slack basis violates x + y >= 2
    x = m.add_var("x", 0, 10)
    y = m.add_var("y", 0, 10)
    m.add_row({x: 1, y: 1}, GE, 2.0)
    m.set_objective("min", {x: 1, y: 2})
    cover = solve_lp_core(build_lp_data(m))
    assert cover.status == OPTIMAL and cover.x[0] == 2.0
    st = cover.stats
    assert (cover.iters, st.phase1_iters, st.phase_switches) == (2, 1, 1)
    for res in (feasible, cover):
        st = res.stats
        assert min(st.factor_s, st.ftran_s, st.btran_s, st.price_s,
                   st.ratio_s) > 0.0


def test_solve_stats_add_sums_all_but_the_first_set_root_fields():
    st = SolveStats(lp_iters=2, wall_s=0.5)
    st.add(SolveStats(lp_iters=3, root_bound=-1.0, root_time=0.25))
    st.add(SolveStats(lp_iters=4, root_bound=7.0, root_time=9.0))
    assert (st.lp_iters, st.wall_s) == (9, 0.5)
    assert (st.root_bound, st.root_time) == (-1.0, 0.25)
    assert math.isnan(SolveStats().root_bound)


def test_solves_log_one_summary_of_their_lp_totals(monkeypatch, caplog):
    import grs.mip.bnb
    results = []
    real = grs.mip.bnb.solve_lp_core

    def recorded(lp, start=None, deadline=None):
        results.append(real(lp, start=start, deadline=deadline))
        return results[-1]

    monkeypatch.setattr(grs.mip.bnb, "solve_lp_core", recorded)
    m = MipModel()  # a fractional cover: the root LP branches
    a, b, c = (m.add_var(k, 0, 1, BINARY) for k in "abc")
    m.add_row({a: 1, b: 1, c: 1}, GE, 1.5)
    m.set_objective("min", {a: 3, b: 2, c: 4})
    with caplog.at_level("DEBUG", logger="grs.mip"):
        sol = solve_mip(m)
        relaxed = solve_lp(m)
    assert sol.status == relaxed.status == OPTIMAL and len(results) > 1
    st = sol.stats
    # the solve-level counters; an LP's record fills every other field
    solve_level = {"nodes", "cuts", "cut_rounds", "unseparated_lps",
                   "branch_obs",
                   "root_iters", "dive_incumbents", "node_incumbents",
                   "wall_s"}
    for f in fields(SolveStats):
        lp_values = [getattr(r.stats, f.name) for r in results]
        if f.name in ("root_bound", "root_time"):  # set by solve_mip alone
            assert all(math.isnan(v) for v in lp_values), f.name
            assert math.isnan(getattr(relaxed.stats, f.name)), f.name
            assert math.isfinite(getattr(st, f.name)), f.name
        elif f.name in solve_level:
            assert not any(lp_values), f.name
        else:
            assert getattr(st, f.name) == sum(lp_values[:-1]), f.name
            assert getattr(relaxed.stats, f.name) == lp_values[-1], f.name
    assert st.phase1_iters > 0 and st.phase_switches > 0
    notes = [r for r in caplog.records if r.name == "grs.mip"]
    assert [r.levelname for r in notes] == ["DEBUG", "DEBUG"]
    mip_note, lp_note = (r.getMessage() for r in notes)
    assert mip_note.startswith(f"solve_mip optimal: nodes={st.nodes} "
                               f"lp_iters={st.lp_iters} "
                               f"phase1_iters={st.phase1_iters} "
                               f"phase_switches={st.phase_switches} ")
    assert lp_note.startswith("solve_lp optimal: nodes=0 "
                              f"lp_iters={relaxed.stats.lp_iters} ")
    for f in fields(SolveStats):
        assert f" {f.name}=" in mip_note and f" {f.name}=" in lp_note, f.name


def test_root_and_incumbent_counters(monkeypatch, case5, damage5_all):
    from grs.formulations import DC, build_rop
    from grs.grid import replicate
    import grs.mip.bnb
    results = []
    real = grs.mip.bnb.solve_lp_core

    def recorded(lp, start=None, deadline=None):
        results.append(real(lp, start=start, deadline=deadline))
        return results[-1]

    monkeypatch.setattr(grs.mip.bnb, "solve_lp_core", recorded)
    # a fractional cover: the root's dive rounds a, then c, down and fails
    m = MipModel()
    a, b, c = (m.add_var(k, 0, 1, BINARY) for k in "abc")
    m.add_row({a: 1, b: 1, c: 1}, GE, 1.5)
    m.set_objective("min", {a: 3, b: 2, c: 4})
    sol = solve_mip(m)
    st = sol.stats
    assert sol.status == OPTIMAL and st.nodes > 1
    assert st.root_iters == results[0].iters < st.lp_iters
    # the root LP takes b and half of a
    assert st.root_bound == pytest.approx(3.5) and 0.0 < st.root_time < st.wall_s
    assert st.dive_incumbents == 0 and st.node_incumbents >= 1
    # the case5 root's dive finds an incumbent within 5% of the root bound
    results.clear()
    sol = solve_mip(build_rop(replicate(case5, damage5_all, 3), DC),
                    SolveLimits(gap=0.05, nodes=1))
    st = sol.stats
    assert sol.status == GAP_LIMIT and st.nodes == 1
    assert st.root_iters == results[0].iters < st.lp_iters
    assert (st.dive_incumbents, st.node_incumbents) == (1, 0)
    # without binaries every LP is the root's, its cut rounds included
    results.clear()
    m = MipModel()  # max x on 2 x^2 <= u v
    x = m.add_var("x", -2.0, 2.0)
    u = m.add_var("u", 1.0, 1.0)
    v = m.add_var("v", 1.0, 1.0)
    m.add_cone(x, x, u, v, "unit")
    m.set_objective("max", {x: 1.0})
    sol = solve_mip(m)
    st = sol.stats
    assert sol.status == OPTIMAL and st.cut_rounds > 0
    assert st.root_iters == st.lp_iters == sum(r.iters for r in results)
    assert (st.dive_incumbents, st.node_incumbents) == (0, 1)


def test_cut_rounds_count_standard_form_extensions(monkeypatch):
    import grs.mip.bnb
    calls = []
    real = grs.mip.bnb.build_lp_data

    def counted(*args, **kwargs):
        calls.append(kwargs.get("prev") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(grs.mip.bnb, "build_lp_data", counted)
    m = MipModel()  # the criterion-2 instance: max x on 2 x^2 <= u v
    x = m.add_var("x", -2.0, 2.0)
    u = m.add_var("u", 1.0, 1.0)
    v = m.add_var("v", 1.0, 1.0)
    m.add_cone(x, x, u, v, "unit")
    m.set_objective("max", {x: 1.0})
    sol = solve_mip(m)
    assert sol.status == OPTIMAL
    assert sol.stats.cut_rounds > 0
    assert sol.stats.cut_rounds == len(calls) - 1
    assert calls == [False] + [True] * sol.stats.cut_rounds
    assert sol.stats.basis_restarts == 0


def _cut_loops(monkeypatch):
    """Record each cut loop of bnb as (caller, its LPs' results, the index
    of the LP whose point each cone_cut linearizes); the caller is the
    closure that ran it, ``solve_node`` or ``dive``."""
    import sys
    import grs.mip.bnb
    loops = []
    real_loop = grs.mip.bnb._solve_with_cones
    real_lp = grs.mip.bnb.solve_lp_core
    real_cut = grs.mip.bnb.cone_cut

    def loop(*args, **kwargs):
        loops.append((sys._getframe(1).f_code.co_name, [], []))
        return real_loop(*args, **kwargs)

    def lp(*args, **kwargs):
        loops[-1][1].append(real_lp(*args, **kwargs))
        return loops[-1][1][-1]

    def cut(cone, x):
        loops[-1][2].append(len(loops[-1][1]) - 1)
        return real_cut(cone, x)

    monkeypatch.setattr(grs.mip.bnb, "_solve_with_cones", loop)
    monkeypatch.setattr(grs.mip.bnb, "solve_lp_core", lp)
    monkeypatch.setattr(grs.mip.bnb, "cone_cut", cut)
    return loops


def test_cone_cuts_at_fractional_points_only_at_the_root_and_dive_steps(
        monkeypatch, case5, damage5_all):
    from grs.formulations import SOC, build_rop
    from grs.grid import replicate
    model = build_rop(replicate(case5, damage5_all, 3), SOC)
    binaries = model.binary_indices()
    loops = _cut_loops(monkeypatch)
    sol = solve_mip(model)
    assert sol.status == OPTIMAL

    def fractional(x):
        return any(abs(x[j] - round(x[j])) > 1e-6 for j in binaries)

    seen = set()
    for k, (caller, lps, cut_at) in enumerate(loops):
        for i in sorted(set(cut_at)):
            where = ("root" if k == 0 else caller,
                     "fractional" if fractional(lps[i].x) else "integral")
            seen.add(where)
            if where[1] == "fractional":
                # the root separates up to MAX_CONE_ROUNDS rounds, a dive
                # step one, and a node none: it branches anyway
                assert where[0] == "root" or (caller == "dive" and i == 0)
    assert {("root", "fractional"), ("dive", "fractional"),
            ("solve_node", "integral")} <= seen
    # a node LP left fractional with its cones violated
    assert any(caller == "solve_node" and not cut_at
               and fractional(lps[-1].x)
               and max(cone_violation(c, lps[-1].x)
                       for c in model.cone_rows) > 1e-6
               for caller, lps, cut_at in loops[1:])
    assert sol.stats.unseparated_lps > 0


def test_a_node_past_the_incumbent_adds_no_cut(monkeypatch):
    m = MipModel()  # min 5 z0 + z1 - x - y/2 with (x, y) in the unit disk
    z0, z1 = (m.add_var(k, 0, 1, BINARY) for k in ("z0", "z1"))
    x = m.add_var("x", -2.0, 2.0)
    y = m.add_var("y", -2.0, 2.0)
    u = m.add_var("u", 1.0, 1.0)
    v = m.add_var("v", 1.0, 1.0)
    m.add_cone(x, y, u, v, "disk")
    m.add_row({z0: 1, z1: 1}, GE, 0.5)
    m.add_row({x: 1, y: 0.5, z1: -2}, LE, -0.3)
    m.set_objective("min", {z0: 5, z1: 1, x: -1, y: -0.5})
    loops = _cut_loops(monkeypatch)
    sol = solve_mip(m)
    st = sol.stats
    # the root takes z1 = 1/2; its dive fixes z1 = 1 and finds the
    # optimum, 1 - sqrt(5)/2, before either child's LP
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0 - math.sqrt(1.25), abs=1e-6)
    assert (st.dive_incumbents, st.node_incumbents) == (1, 0)
    assert [caller for caller, _, _ in loops] == ["solve_node", "dive",
                                                  "solve_node", "solve_node"]
    # the down child (z1 = 0, so z0 >= 1/2) costs at least 2.5: its one LP
    # reaches the incumbent with the disk still violated, and stops there
    _, lps, cut_at = loops[2]
    assert len(lps) == 1 and not cut_at
    assert lps[0].obj >= sol.objective - 1e-12
    assert cone_violation(m.cone_rows[0], lps[0].x) > 1e-6
    assert st.unseparated_lps == 1 and st.nodes == 3


def test_case5_soc_rop_k4_ends_optimal(case5, damage5_all):
    # all 11 components damaged: with cut rounds at every fractional node
    # LP this solve pooled 4 819 cuts and ran about a minute
    from grs.acvalidate import redispatch_plan
    from grs.formulations import SOC, build_rop
    from grs.grid import replicate
    from grs.workflows import solve_rop
    case = replicate(case5, damage5_all, 4)
    plan, sol = solve_rop(case, build_rop(case, SOC), SOC)
    assert sol.status == OPTIMAL and sol.stats.cuts < 2000
    assert redispatch_plan(case, plan).true_ens_mwh == pytest.approx(
        1280.859, abs=1e-3)


def test_pseudocost_selection_rule():
    from grs.mip.bnb import _Pseudocosts
    pc = _Pseudocosts()
    x = np.array([0.5, 0.5, 0.3])
    # no observation: every direction scores 1.0, so the product is
    # f(1 - f); the two balanced binaries tie and the lower index wins
    assert pc.select([0, 1, 2], x) == 0
    assert pc.select([1, 2], x) == 1
    # binary 1 seen down at 4.0 per unit: binary 0's unseen down takes the
    # mean (4.0), not 1.0, so the two still tie
    pc.record(1, 0, 0.5, 2.0)
    assert pc.select([0, 1, 2], x) == 0
    # a negative gain counts as 0; the score is floored at 1e-6 per side
    pc.record(0, 1, 0.5, -3.0)
    assert pc.counts[1][0] == 1 and pc.sums[1][0] == 0.0
    assert pc.select([0, 1, 2], x) == 0  # 2e-6, 2e-6, 1.2e-6
    # binary 2 seen up at 2.0: the up mean becomes 1.0, so binary 1 scores
    # (4 * 0.5) * (1 * 0.5) = 1.0 and binary 2 (4 * 0.3) * (2 * 0.7) = 1.68
    pc.record(2, 1, 0.7, 1.4)
    assert pc.select([0, 1, 2], x) == 2
    assert pc.select([0, 1], x) == 1


def test_infeasible_children_record_no_pseudocost(monkeypatch):
    import grs.mip.bnb
    calls = []
    real = grs.mip.bnb._Pseudocosts.record

    def recorded(self, j, direction, distance, gain):
        calls.append((j, direction))
        return real(self, j, direction, distance, gain)

    monkeypatch.setattr(grs.mip.bnb._Pseudocosts, "record", recorded)
    m = MipModel()  # each down child is infeasible: a + b >= 1.5
    a, b = (m.add_var(k, 0, 1, BINARY) for k in "ab")
    m.add_row({a: 1, b: 1}, GE, 1.5)
    m.set_objective("min", {a: 1, b: 1})
    sol = solve_mip(m)
    assert sol.status == OPTIMAL and sol.objective == pytest.approx(2.0)
    assert sol.stats.nodes == 5  # the root and four children
    assert sorted(calls) == [(a, 1), (b, 1)]
    assert sol.stats.branch_obs == 2


def test_pseudocost_branching_node_count(case5, damage5_all):
    from grs.formulations import DC, build_rop
    from grs.grid import replicate
    from tests.oracles import highs_milp
    model = build_rop(replicate(case5, damage5_all, 5), DC)
    sol = solve_mip(model)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(highs_milp(model), rel=1e-6)
    # most-fractional branching processed 83 nodes on this model
    assert sol.stats.nodes < 83
    assert 0 < sol.stats.branch_obs < sol.stats.nodes


def test_node_limit_stops_at_that_many_nodes(case5, damage5_all):
    from grs.formulations import DC, build_rop
    from grs.grid import replicate
    model = build_rop(replicate(case5, damage5_all, 5), DC)
    sol = solve_mip(model, SolveLimits(nodes=5))
    assert sol.status == NODE_LIMIT and sol.stats.nodes == 5
    # a maximization stopped early: the bound lies above the incumbent
    assert sol.bound >= sol.objective


def test_spent_cut_budget_stops_with_cut_limit(monkeypatch, case5,
                                              damage5_all):
    import grs.mip.bnb
    from grs.formulations import SOC, build_rop
    from grs.grid import replicate
    # no cut may be added, so no node's cones can be certified closed
    monkeypatch.setattr(grs.mip.bnb, "CONE_CUT_BUDGET", 0)
    model = build_rop(replicate(case5, damage5_all, 2), SOC)
    sol = solve_mip(model)
    assert sol.status == CUT_LIMIT and sol.stats.cuts == 0
    assert sol.message == "no incumbent found"


# --- the crash start of large cold LPs -------------------------------------

def _crash_lp():
    """Free x0, x1 >= 0, boxes x2 (width 1), x4 (10), x5 (3), fixed x3."""
    m = MipModel()
    x0 = m.add_var("x0", -math.inf, math.inf)
    x1 = m.add_var("x1", 0.0, math.inf)
    x2 = m.add_var("x2", 0.0, 1.0)
    x3 = m.add_var("x3", 2.0, 2.0)
    x4 = m.add_var("x4", 0.0, 10.0)
    x5 = m.add_var("x5", 0.0, 3.0)
    m.add_row({x0: 1.0, x1: 1.0}, EQ, 1.0)
    m.add_row({x1: 1.0, x2: 2.0}, EQ, 1.5)
    m.add_row({x3: 1.0, x4: 1.05, x5: 2.0}, LE, 9.0)
    m.add_row({x2: 1.0, x4: 0.95, x5: 1.0}, EQ, 4.0)
    m.add_row({x3: 1.0, x4: 1.0}, EQ, 5.0)
    m.set_objective("min", {x0: 1.0, x1: 2.0, x5: -1.0})
    return m


def test_crash_basis_is_triangular_on_equality_rows():
    from grs.mip.simplex import (AT_LB, BASIC, _Factors, build_lp_data,
                                 crash_basis, default_basis, solve_lp_core)
    lp = build_lp_data(_crash_lp())
    n = lp.nstruct
    bas = crash_basis(lp)
    # x0 (free) takes row 0; x1 (one infinite bound) only meets row 0; x4
    # (widest box) goes to row 4, its largest equality entry within 0.9 of
    # its max 1.05; x5's equality entry is below 0.9 * 2.0, so it stays out;
    # x2 takes row 1, its largest entry; the fixed x3 never enters
    assert bas.basis.tolist() == [0, 2, n + 2, n + 3, 4]
    assert bas.vstat[:n].tolist() == [BASIC, AT_LB, BASIC, AT_LB, BASIC, AT_LB]
    assert bas.vstat[n:].tolist() == [AT_LB, AT_LB, BASIC, BASIC, AT_LB]
    again = crash_basis(lp)
    assert np.array_equal(again.basis, bas.basis)
    assert np.array_equal(again.vstat, bas.vstat)
    _Factors(lp.A, bas.basis)  # nonsingular: splu raises on a singular B
    crashed = solve_lp_core(lp, start=bas)
    cold = solve_lp_core(lp)
    assert crashed.stats.basis_restarts == 0
    assert crashed.status == cold.status == OPTIMAL
    assert crashed.obj == pytest.approx(cold.obj, abs=1e-9)
    # the crash leaves the slack basis untouched where it takes nothing
    none = build_lp_data(_two_row_lp())
    assert np.array_equal(crash_basis(none).basis, default_basis(none).basis)


def _violated_rows_lp():
    """x0 >= 2 written as a <= row and x1 >= 3, both violated by the slack
    start, and x0 + x1 + x2 <= 20, which it holds."""
    m = MipModel()
    x0 = m.add_var("x0", 0.0, 10.0)
    x1 = m.add_var("x1", 0.0, 8.0)
    x2 = m.add_var("x2", 0.0, 20.0)
    m.add_row({x0: -1.0}, LE, -2.0)
    m.add_row({x1: 1.0}, GE, 3.0)
    m.add_row({x0: 1.0, x1: 1.0, x2: 1.0}, LE, 20.0)
    m.set_objective("min", {x0: 1.0, x1: 2.0, x2: -1.0})
    return m


def test_crash_basis_covers_rows_the_slack_start_violates():
    from grs.mip.simplex import (AT_LB, AT_UB, BASIC, _Factors, build_lp_data,
                                 crash_basis, solve_lp_core)
    lp = build_lp_data(_violated_rows_lp())
    n = lp.nstruct
    bas = crash_basis(lp)
    # x2 (widest box) meets only the satisfied row, so it stays out; x0
    # takes the violated <= row and x1 the violated >= row, whose slacks
    # rest at the bound they violate; the satisfied row keeps its slack
    assert bas.basis.tolist() == [0, 1, n + 2]
    assert bas.vstat[:n].tolist() == [BASIC, BASIC, AT_LB]
    assert bas.vstat[n:].tolist() == [AT_LB, AT_UB, BASIC]
    again = crash_basis(lp)
    assert np.array_equal(again.basis, bas.basis)
    assert np.array_equal(again.vstat, bas.vstat)
    _Factors(lp.A, bas.basis)  # nonsingular: splu raises on a singular B
    crashed = solve_lp_core(lp, start=bas)
    cold = solve_lp_core(lp)
    assert crashed.stats.basis_restarts == 0
    assert crashed.status == cold.status == OPTIMAL
    assert crashed.obj == pytest.approx(cold.obj, abs=1e-9)
    assert cold.obj == pytest.approx(-7.0, abs=1e-9)


def _case118_rop(tmp_path, seed=42, periods=2):
    """The benchmark's case118 DC ordering model: area-1 gen-damage."""
    import json
    from pathlib import Path
    from grs import cli, netio
    from grs.formulations import DC, build_rop
    from grs.grid import replicate
    case = Path(__file__).resolve().parent.parent / "cases" / "case118_smoke.m"
    out = tmp_path / "damage.json"
    assert cli.main(["gen-damage", "--case", str(case), "--fraction", "0.35",
                     "--area", "1-23,25-32,113-115,117", "--seed", str(seed),
                     "--out", str(out)]) == 0
    dmg = netio.damage_from_dict(json.loads(out.read_text()))
    return build_rop(replicate(netio.load_case(case), dmg, periods), DC)


def test_case118_crash_start_leaves_few_basics_out_of_bounds(tmp_path):
    from grs.mip.simplex import (FEAS_TOL, _Factors, _nonbasic_vector,
                                 build_lp_data, default_basis, initial_basis)
    lp = build_lp_data(_case118_rop(tmp_path))

    def out_of_bounds(bas):
        x_b = _Factors(lp.A, bas.basis).ftran(
            lp.b - lp.A @ _nonbasic_vector(lp, bas))
        lb, ub = lp.lb[bas.basis], lp.ub[bas.basis]
        return np.count_nonzero((x_b < lb - FEAS_TOL) | (x_b > ub + FEAS_TOL))

    # 934 at the slack start; 184 when the crash covered equality rows only
    assert out_of_bounds(default_basis(lp)) >= 200
    assert out_of_bounds(initial_basis(lp)) <= 40


def _same_basis(a, b):
    return np.array_equal(a.basis, b.basis) and np.array_equal(a.vstat,
                                                               b.vstat)


@pytest.mark.parametrize("case_name", ["case5", "case10"])
def test_small_dc_models_keep_the_slack_start(request, case_name):
    from grs.formulations import DC, SOC, build_mrsp, build_rop
    from grs.grid import DamageScenario, apply_damage, replicate
    from grs.mip.simplex import (_factor, build_lp_data, crash_basis,
                                 default_basis, initial_basis)
    from grs.workflows import solve_mrsp, update_status
    net = request.getfixturevalue(case_name)
    live = net.live()
    dmg = DamageScenario.of(branches=list(live.branches), gens=list(live.gens))
    damaged = apply_damage(net, dmg)
    mrsp = build_mrsp(damaged, DC)
    indicators, kept, _ = solve_mrsp(damaged, mrsp)
    reduced = update_status(damaged, indicators)
    models = [mrsp]
    for k in range(2, 12):  # the plain ROP and the ROP after MRSP
        models.append(build_rop(replicate(net, dmg, k), DC))
        models.append(build_rop(replicate(reduced, kept, k), DC))
    soc = build_rop(replicate(net, dmg, 3), SOC)
    for model in [*models, soc]:
        lp = build_lp_data(model)
        assert not lp.crash
        assert _same_basis(initial_basis(lp), default_basis(lp))
        # a basis with structural columns is factored whole, but on the
        # SOC model, whose cone rows keep the slack start, by its kernel
        order = _factor(lp, crash_basis(lp).basis).order
        assert order < lp.m if model is soc else order == lp.m


def test_case118_dc_model_is_factored_by_its_kernel(tmp_path):
    from grs.mip.simplex import (_factor, build_lp_data, crash_basis,
                                 initial_basis, solve_lp_core)
    model = _case118_rop(tmp_path)
    lp = build_lp_data(model)
    assert lp.crash and lp.with_bounds(lp.lb, lp.ub).crash
    bas = initial_basis(lp)
    crash = int(np.count_nonzero(bas.basis < lp.nstruct))
    assert _factor(lp, bas.basis).order == crash < lp.m / 2
    res = solve_lp(model)  # the root LP: every factor is a kernel's
    st = res.stats
    assert res.status == OPTIMAL and st.basis_restarts == 0
    assert 0 < st.lu_order < (st.refactors + 1) * lp.m / 2
    # given no start, the simplex starts from the crash basis and counts it
    cold, crashed = solve_lp_core(lp), solve_lp_core(lp, start=crash_basis(lp))
    assert cold.iters == crashed.iters == st.lp_iters
    assert np.array_equal(cold.x, crashed.x)
    assert np.array_equal(cold.basis.basis, crashed.basis.basis)
    assert np.array_equal(cold.basis.vstat, crashed.basis.vstat)
    assert cold.stats.crash_cols == st.crash_cols == crash > 0
    assert crashed.stats.crash_cols == 0


def test_deadline_stops_an_lp_at_its_first_refactor(case5, damage5_all):
    import time
    from grs.formulations import DC, build_rop
    from grs.grid import replicate
    from grs.mip.simplex import REFACTOR_EVERY, build_lp_data, solve_lp_core
    lp = build_lp_data(build_rop(replicate(case5, damage5_all, 5), DC))
    free = solve_lp_core(lp)
    assert free.status == OPTIMAL and free.iters > REFACTOR_EVERY
    late = solve_lp_core(lp, deadline=time.perf_counter())
    assert late.status == TIME_LIMIT and late.message == "time limit"
    assert late.iters == REFACTOR_EVERY and late.stats.refactors == 0
    # a deadline not reached changes no pivot
    ample = solve_lp_core(lp, deadline=time.perf_counter() + 3600.0)
    assert (ample.status, ample.iters) == (free.status, free.iters)
    assert np.array_equal(ample.x, free.x)
    assert np.array_equal(ample.basis.basis, free.basis.basis)


def test_time_limit_stops_solve_mip_inside_an_lp(monkeypatch, case5,
                                                 damage5_all):
    import time
    import grs.mip.bnb
    from grs.formulations import DC, build_rop
    from grs.grid import replicate
    from grs.mip.simplex import REFACTOR_EVERY
    real = grs.mip.bnb.solve_lp_core
    results = []

    def late(lp, start=None, deadline=None):
        # wait out the deadline, so the LP starts past it on any host
        time.sleep(max(0.0, deadline - time.perf_counter()) + 1e-3)
        results.append(real(lp, start=start, deadline=deadline))
        return results[-1]

    monkeypatch.setattr(grs.mip.bnb, "solve_lp_core", late)
    model = build_rop(replicate(case5, damage5_all, 5), DC)
    sol = solve_mip(model, SolveLimits(time_s=0.5))
    # the root LP stops at its first refactor; no cold retry, no failure
    assert len(results) == 1 and results[0].iters == REFACTOR_EVERY
    assert sol.status == TIME_LIMIT and sol.stats.nodes == 0
    assert sol.message == "no incumbent found" and sol.bound == math.inf


def _cover_with_a_capped_node(monkeypatch, retry_status):
    """Solve the fractional cover with the warm LP of the root's up child
    (a = 1) stopped at the iteration cap, and its cold retry stopped with
    ``retry_status`` (None: not stopped).  Returns the solution and
    (cold, bounds) of each LP solved."""
    from dataclasses import replace
    import grs.mip.bnb
    real = grs.mip.bnb.solve_lp_core
    calls = []

    def capped(lp, start=None, deadline=None):
        res = real(lp, start=start, deadline=deadline)
        bounds = (*lp.lb[:3], *lp.ub[:3])
        calls.append((start is None, bounds))
        if bounds == (1, 0, 0, 1, 1, 1):  # no other LP has these bounds
            status = ITERATION_LIMIT if start is not None else retry_status
            if status is not None:
                return replace(res, status=status, message="stopped")
        return res

    monkeypatch.setattr(grs.mip.bnb, "solve_lp_core", capped)
    return solve_mip(_cover()), calls


def _cover():
    m = MipModel()  # the root takes b and half of a, and its dive fails
    a, b, c = (m.add_var(k, 0, 1, BINARY) for k in "abc")
    m.add_row({a: 1, b: 1, c: 1}, GE, 1.5)
    m.set_objective("min", {a: 3, b: 2, c: 4})
    return m


def test_node_capped_warm_is_retried_cold_once(monkeypatch):
    plain = solve_mip(_cover())
    sol, calls = _cover_with_a_capped_node(monkeypatch, None)
    # the root, the dive's two LPs, the down child, then the up child:
    # warm and capped, then cold; the rest of the search is unchanged
    up = (1.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    assert calls[4:6] == [(False, up), (True, up)]
    assert [cold for cold, _ in calls].count(True) == 2
    assert sol.status == plain.status == OPTIMAL
    assert (sol.objective, sol.bound) == (plain.objective, plain.bound) == (5, 5)
    assert sol.stats.nodes == plain.stats.nodes == 7
    assert sol.stats.lp_iters > plain.stats.lp_iters  # the retry's too


def test_node_capped_warm_and_cold_is_a_numerical_failure(monkeypatch):
    with pytest.raises(NumericalFailure, match="stopped"):
        _cover_with_a_capped_node(monkeypatch, ITERATION_LIMIT)


def test_node_retry_at_the_deadline_keeps_its_bound(monkeypatch):
    sol, calls = _cover_with_a_capped_node(monkeypatch, TIME_LIMIT)
    assert len(calls) == 6 and calls[-1][0]  # stopped at the cold retry
    # the up child goes back on the heap: its bound, the root's, stays the
    # best one; only the root and the down child were counted
    assert sol.status == TIME_LIMIT and sol.stats.nodes == 2
    assert sol.bound == 3.5 and sol.message == "no incumbent found"


def test_met_gap_wins_over_node_limit(case5, damage5_all):
    from grs.formulations import DC, build_rop
    from grs.grid import replicate
    from tests.oracles import highs_milp
    model = build_rop(replicate(case5, damage5_all, 3), DC)
    # the root's dive finds an incumbent within 5% of the root bound
    sol = solve_mip(model, SolveLimits(gap=0.05, nodes=1))
    assert sol.stats.nodes == 1
    assert sol.status == GAP_LIMIT and sol.gap <= 0.05
    assert sol.bound >= highs_milp(model) - 1e-6 >= sol.objective - 1e-6
