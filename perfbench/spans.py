"""Spans around the calls into each grs module, recorded from outside.

A ``Tracer`` replaces module attributes with wrappers that record one span
per call: name, start, end, the span that was open when the call began, the
operation it belongs to, and a few facts read from the call's arguments and
return value.  A wrapper is installed where the caller looks the name up,
so functions that a module binds at import (``bnb`` binds
``solve_lp_core`` and ``build_lp_data``, ``workflows`` binds ``solve_mip``,
``replicate`` and friends, ``acvalidate`` binds ``connected_islands``) are
patched in that module.  Spans stay in memory; ``write`` saves them when the
run ends.  Nothing inside ``grs`` changes.

``layer_metrics`` turns the spans of one round into the per-layer metrics.
"""

from __future__ import annotations

import json
import time

import grs.acvalidate
import grs.formulations
import grs.grid
import grs.mip.bnb
import grs.mip.simplex
import grs.netio
import grs.workflows

LAYERS = ("netio", "grid", "formulations", "simplex", "bnb", "acvalidate",
          "workflows")


def _model_size(args, kwargs, out):
    return {"rows": len(out.lin_rows), "cols": len(out.vars)}


def _lp_facts(args, kwargs, out):
    lp = args[0]
    start = kwargs.get("start", args[1] if len(args) > 1 else None)
    return {"iters": out.iters, "status": out.status,
            "warm": start is not None,
            "xhash": hash(out.x[: lp.nstruct].tobytes())}


def _mip_facts(args, kwargs, out):
    return {"nodes": out.stats.nodes, "cuts": out.stats.cuts,
            "lp_iters": out.stats.lp_iters, "status": out.status,
            "xhash": hash(out.values.tobytes())}


def _pf_facts(args, kwargs, out):
    return {"iters": out.iterations, "converged": out.converged}


# (span name, module, attribute, facts); the layer is the name's first part
# after an optional "mip." prefix.
TARGETS = [
    ("netio.load_case", grs.netio, "load_case", None),
    ("netio.damage_from_dict", grs.netio, "damage_from_dict", None),
    ("grid.replicate", grs.grid, "replicate", None),
    ("grid.replicate", grs.workflows, "replicate", None),
    ("grid.apply_damage", grs.grid, "apply_damage", None),
    ("grid.apply_damage", grs.workflows, "apply_damage", None),
    ("grid.update_status", grs.workflows, "update_status", None),
    ("grid.connected_islands", grs.acvalidate, "connected_islands", None),
    ("formulations.build_rop", grs.formulations, "build_rop", _model_size),
    ("formulations.build_mrsp", grs.formulations, "build_mrsp", _model_size),
    ("formulations.decode_plan", grs.formulations, "decode_plan", None),
    ("formulations.mrsp_set", grs.formulations, "mrsp_set", None),
    ("formulations.estimated_ens_mwh", grs.formulations, "estimated_ens_mwh",
     None),
    ("mip.simplex.build_lp_data", grs.mip.bnb, "build_lp_data", None),
    ("mip.simplex.solve_lp_core", grs.mip.bnb, "solve_lp_core", _lp_facts),
    ("mip.bnb.solve_mip", grs.workflows, "solve_mip", _mip_facts),
    ("mip.bnb.solve_lp", grs.workflows, "solve_lp", None),
    ("mip.bnb.cone_cut", grs.mip.bnb, "cone_cut", None),
    ("acvalidate.redispatch_plan", grs.acvalidate, "redispatch_plan", None),
    ("acvalidate.max_load_delivery", grs.acvalidate, "max_load_delivery",
     None),
    ("acvalidate.newton_pf", grs.acvalidate, "newton_pf", _pf_facts),
    ("workflows.run_rop_then_redispatch", grs.workflows,
     "run_rop_then_redispatch", None),
    ("workflows.run_mrsp_then_rop", grs.workflows, "run_mrsp_then_rop", None),
    ("workflows.heuristic_order", grs.workflows, "heuristic_order", None),
]


def layer_of(name: str) -> str:
    return name.removeprefix("mip.").split(".", 1)[0]


class _SpluProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``grs.mip.simplex``.

    Every attribute passes through, except ``splu``, which is traced as the
    factorization span ``mip.simplex.splu``.
    """

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans while installed; ``op`` tags the spans of an operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, facts]
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, facts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if facts is not None:
                rec[5] = facts(args, kwargs, out)
            return out

        return traced

    def install(self):
        for name, module, attr, facts in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, facts))
        spla = grs.mip.simplex.spla
        self._saved.append((grs.mip.simplex, "spla", spla))
        grs.mip.simplex.spla = _SpluProxy(
            spla, self._wrap("mip.simplex.splu", spla.splu, None))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "facts"], "spans": self.spans}, f)


def self_times(spans, lo: int, hi: int) -> list[float]:
    """Duration minus the direct children's durations, for spans[lo:hi]."""
    out = [s[2] - s[1] for s in spans[lo:hi]]
    for s in spans[lo:hi]:
        if s[3] >= lo:
            out[s[3] - lo] -= s[2] - s[1]
    return out


def layer_metrics(spans, lo: int, hi: int) -> dict[str, float]:
    """Per-layer counts, busy time and self time, plus the named metrics."""
    sub = spans[lo:hi]
    selfs = self_times(spans, lo, hi)
    layers = [layer_of(s[0]) for s in sub]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.busy_s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    for k, s in enumerate(sub):
        layer = layers[k]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += selfs[k]
        p = s[3]
        while p >= lo and layers[p - lo] != layer:
            p = spans[p][3]
        if p < lo:  # no enclosing span of the same layer
            m[f"{layer}.busy_s"] += s[2] - s[1]

    def named(name):
        return [k for k, s in enumerate(sub) if s[0] == name]

    def dur(ks):
        return sum(sub[k][2] - sub[k][1] for k in ks)

    builds = named("formulations.build_rop") + named("formulations.build_mrsp")
    m["formulations.build_s"] = dur(builds)
    m["formulations.rows"] = max((sub[k][5]["rows"] for k in builds), default=0)
    m["formulations.cols"] = max((sub[k][5]["cols"] for k in builds), default=0)

    lps = named("mip.simplex.solve_lp_core")
    iters = sum(sub[k][5]["iters"] for k in lps)
    warm = [k for k in lps if sub[k][5]["warm"]]
    m["simplex.lp_calls"] = len(lps)
    m["simplex.lp_iters"] = iters
    m["simplex.lp_s"] = dur(lps)
    m["simplex.s_per_iter"] = dur(lps) / iters if iters else 0.0
    m["simplex.warm_iters_per_lp"] = (
        sum(sub[k][5]["iters"] for k in warm) / len(warm) if warm else 0.0)
    m["simplex.iter_limit_lps"] = sum(
        1 for k in lps if sub[k][5]["status"] == "iteration_limit")
    factors = named("mip.simplex.splu")
    m["simplex.factorizations"] = len(factors)
    m["simplex.factor_s"] = dur(factors)
    lpdata = named("mip.simplex.build_lp_data")
    m["simplex.build_lp_data_calls"] = len(lpdata)
    m["simplex.build_lp_data_s"] = dur(lpdata)

    solves = named("mip.bnb.solve_mip")
    root_s = root_iters = 0.0
    rounds = 0
    incumbent_lp = 0
    longest = max(solves, key=lambda k: sub[k][2] - sub[k][1], default=None)
    for k in solves:
        own = [j for j in lps if sub[j][3] == k + lo]
        if own:
            root_s += sub[own[0]][2] - sub[own[0]][1]
            root_iters += sub[own[0]][5]["iters"]
        rounds += sum(1 for j in lpdata if sub[j][3] == k + lo) - 1
        if k == longest:
            for n, j in enumerate(own, start=1):
                if sub[j][5]["xhash"] == sub[k][5]["xhash"]:
                    incumbent_lp = n
                    break
    solve_s = dur(solves)
    nodes = sum(sub[k][5]["nodes"] for k in solves)
    m["simplex.root_lp_s"] = root_s
    m["simplex.root_lp_iters"] = root_iters
    m["bnb.solve_s"] = solve_s
    m["bnb.nodes"] = nodes
    m["bnb.nodes_per_s"] = nodes / solve_s if solve_s else 0.0
    m["bnb.cuts"] = sum(sub[k][5]["cuts"] for k in solves)
    m["bnb.cut_rounds"] = rounds
    m["bnb.incumbent_lp"] = incumbent_lp

    newton = named("acvalidate.newton_pf")
    newton_s = dur(newton)
    m["acvalidate.redispatch_s"] = dur(named("acvalidate.redispatch_plan"))
    m["acvalidate.max_load_delivery_calls"] = len(
        named("acvalidate.max_load_delivery"))
    m["acvalidate.newton_solves"] = len(newton)
    m["acvalidate.newton_iters"] = sum(sub[k][5]["iters"] for k in newton)
    m["acvalidate.newton_s"] = newton_s
    m["acvalidate.s_per_newton_solve"] = newton_s / len(newton) if newton else 0.0
    m["acvalidate.newton_nonconverged"] = sum(
        1 for k in newton if not sub[k][5]["converged"])
    return m
