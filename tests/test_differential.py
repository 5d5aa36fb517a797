"""Differential gate: the DC MIPs that ``solve_mip`` answers agree with HiGHS.

Damage subsets are drawn on the two desk-scale fixtures; for each, the DC
repair-ordering model (K in 2..3) and the DC minimum-repair-set model are
solved by ``solve_mip`` at a drawn gap and by ``scipy.optimize.milp`` on
arrays built from the same ``MipModel`` fields (``oracles.highs_milp``).
SOC models are left out: their cone rows have no HiGHS counterpart here.
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from grs.formulations import DC, build_mrsp, build_rop
from grs.grid import BRANCH, GEN, DamageScenario, apply_damage, replicate
from grs.mip import INFEASIBLE, OPTIMAL, GAP_LIMIT, SolveLimits, solve_mip

from tests.oracles import highs_milp

MATCH_TOL = 1e-6  # relative slack on top of the requested gap


def _agrees(model, gap):
    """Problems found comparing ``solve_mip`` at ``gap`` with HiGHS."""
    opt = highs_milp(model)
    sol = solve_mip(model, SolveLimits(gap=gap))
    if math.isnan(opt):
        return [] if sol.status == INFEASIBLE else [f"{sol.status} vs none"]
    if sol.status not in (OPTIMAL, GAP_LIMIT):
        return [f"status {sol.status}, HiGHS optimum {opt}"]
    scale = max(1.0, abs(opt))
    out = []
    if abs(sol.objective - opt) > (gap + MATCH_TOL) * scale:
        out.append(f"objective {sol.objective} vs HiGHS {opt}")
    # the incumbent is feasible and the bound is valid, on either side
    worse = sol.objective - opt if model.sense == "max" else opt - sol.objective
    looser = opt - sol.bound if model.sense == "max" else sol.bound - opt
    if worse > MATCH_TOL * scale or looser > MATCH_TOL * scale:
        out.append(f"objective {sol.objective} / bound {sol.bound} do not "
                   f"bracket HiGHS {opt}")
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_dc_rop_and_mrsp_match_highs(case5, case10, data):
    net = data.draw(st.sampled_from([case5, case10]), label="case")
    live = net.live()
    items = [(BRANCH, i) for i in live.branches] + [(GEN, i) for i in live.gens]
    picked = data.draw(st.lists(st.sampled_from(items), min_size=1,
                                unique=True), label="damage")
    periods = data.draw(st.integers(2, 3), label="periods")
    gap = data.draw(st.sampled_from([1e-6, 1e-2]), label="gap")
    dmg = DamageScenario.of(branches=[i for k, i in picked if k == BRANCH],
                            gens=[i for k, i in picked if k == GEN])
    rop = build_rop(replicate(net, dmg, periods), DC)
    assert _agrees(rop, gap) == []
    mrsp = build_mrsp(apply_damage(net, dmg), DC)
    assert _agrees(mrsp, gap) == []
