import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from grs.mip import (BINARY, EQ, GE, LE, INFEASIBLE, OPTIMAL, UNBOUNDED,
                     MipModel, cone_violation, solve_lp, solve_mip)


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
    from grs.mip import ConeRow, row_activity
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
            assert row_activity(cut, p) <= cut.rhs + 1e-9


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
    if ref.status == 0:
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
    elif ref.status == 2:
        assert res.status == INFEASIBLE


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
    np.maximum(ti, 0.0, out=ti)
    blockable = ti < INF
    if not blockable.any():
        return INF, -1, 0
    t_rel = np.min(np.where(blockable,
                            ti + FEAS_TOL / np.maximum(adelta, PIV_TOL), INF))
    cand = blockable & (ti <= t_rel)
    blocking = int(np.argmax(np.where(cand, adelta, -1.0)))
    return float(ti[blocking]), blocking, int(tgt[blocking])


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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_ratio_test_and_pricing_match_reference(seed):
    from grs.mip.simplex import (AT_LB, AT_UB, BASIC, FEAS_TOL, FREE_NB,
                                 OPT_TOL, PIV_TOL, _price, _ratio_test)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 30))
    lb = np.round(rng.normal(size=m), int(rng.integers(0, 3)))
    ub = lb + rng.choice([0.0, 0.5, 1.0, 3.0], m)  # fixed bounds included
    lb[rng.random(m) < 0.2] = -math.inf
    ub[rng.random(m) < 0.2] = math.inf
    # basics at, inside or just outside a bound, by about FEAS_TOL
    at = np.where(rng.random(m) < 0.5, lb, ub)
    x = np.where(np.isfinite(at), at, rng.normal(size=m)) \
        + _near(rng, m, 0.5, FEAS_TOL)
    delta = _near(rng, m, 1.0, PIV_TOL)
    assert _ratio_test(delta, x, lb, ub) == _reference_ratio_test(delta, x, lb, ub)

    n = int(rng.integers(1, 40))
    vstat = rng.choice(np.array([BASIC, AT_LB, AT_UB, FREE_NB], dtype=np.int8), n)
    fixed = rng.random(n) < 0.2
    red = _near(rng, n, 1.0, OPT_TOL)
    red[rng.random(n) < 0.3] = rng.choice([-1.0, 1.0])  # ties
    for bland in (False, True):
        want_j, want_dir = _reference_price(red, vstat, fixed, bland)
        j = _price(red, vstat, fixed, bland)
        assert j == want_j
        if j >= 0:
            assert (1.0 if red[j] < 0.0 else -1.0) == want_dir


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
    assert res.restarts == 1 and cold.restarts == 0
    assert res.status == cold.status == "optimal"
    assert res.obj == cold.obj
    assert np.array_equal(res.x, cold.x)
    notes = [r for r in caplog.records if r.name == "grs.mip"]
    assert len(notes) == 1 and notes[0].levelname == "DEBUG"


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
