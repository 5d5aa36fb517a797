"""Cross-checks between the cone-relaxation rows and the AC branch model.

At a fixed voltage point the W-space variables are fully determined
(wfr = Vf^2, wto = Vt^2, wr + j wi = Vf Vt* e^{j...}), so the linear flow
rows must reproduce the complex branch flows exactly, including taps,
shifts, and line charging.
"""

import cmath
import math

import pytest

from grs.formulations import SOC, build_mrsp
from grs.grid import (Branch, Bus, DamageScenario, Generator, Load,
                      Network, apply_damage)
from grs.mip import EQ, OPTIMAL, solve_mip
from tests.conftest import ANG
from tests.oracles import branch_flows


def _net_with_branch(br: Branch) -> Network:
    buses = {1: Bus(1, 3, 0.9, 1.1), 2: Bus(2, 1, 0.9, 1.1)}
    gens = {1: Generator(1, 1, 0.0, 2.0, -9.0, 9.0, 1.0)}
    loads = {2: Load(2, 2, 0.3, 0.1)}
    return Network(100.0, buses, {1: br}, gens, loads, {},
                   frozenset([1])).validate()


@pytest.mark.parametrize("r,x,b_charge,tap,shift", [
    (0.01, 0.1, 0.0, 1.0, 0.0),
    (0.02, 0.08, 0.04, 1.0, 0.0),
    (0.01, 0.1, 0.02, 1.05, 0.0),
    (0.015, 0.09, 0.03, 0.97, math.radians(2.0)),
    (0.0, 0.1, 0.05, 1.02, math.radians(-1.5)),
])
def test_soc_rows_match_complex_flows(r, x, b_charge, tap, shift):
    br = Branch(1, 1, 2, r, x, b_charge, 0.0, tap, shift, -ANG, ANG)
    net = _net_with_branch(br)
    model = build_mrsp(net, SOC)

    vf = 1.03 * cmath.exp(1j * 0.05)
    vt = 0.98 * cmath.exp(1j * -0.04)
    s_fr, s_to = branch_flows(net, 1, vf, vt)

    w = {
        model.var_index("w[1]@0"): abs(vf) ** 2,
        model.var_index("w[2]@0"): abs(vt) ** 2,
        model.var_index("wr[1]@0"): (vf * vt.conjugate()).real,
        model.var_index("wi[1]@0"): (vf * vt.conjugate()).imag,
    }
    expected = {
        "flow_law_p_fr[1]@0": s_fr.real,
        "flow_law_q_fr[1]@0": s_fr.imag,
        "flow_law_p_to[1]@0": s_to.real,
        "flow_law_q_to[1]@0": s_to.imag,
    }
    seen = 0
    for row in model.lin_rows:
        if row.name in expected:
            assert row.sense == EQ
            flow_col = [j for j in row.coeffs
                        if model.vars[j].name.startswith(("p_", "q_"))]
            assert len(flow_col) == 1
            rest = sum(c * w[j] for j, c in row.coeffs.items()
                       if j != flow_col[0])
            flow_value = (row.rhs - rest) / row.coeffs[flow_col[0]]
            assert flow_value == pytest.approx(expected[row.name], abs=1e-10)
            seen += 1
    assert seen == 4


def test_damaged_bus_indicator_path():
    # bus 2 and the only branch are damaged: serving the load needs both
    br = Branch(1, 1, 2, 0.01, 0.1, 0.0, 0.6, 1.0, 0.0, -ANG, ANG)
    net = apply_damage(_net_with_branch(br),
                       DamageScenario.of(branches=[1], buses=[2]))
    for formulation in ("dc", SOC):
        model = build_mrsp(net, formulation)
        sol = solve_mip(model)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(2.0, abs=1e-6)
        assert round(sol.values[model.var_index("z_bus[2]@0")]) == 1
        assert round(sol.values[model.var_index("z_branch[1]@0")]) == 1


def test_damaged_bus_dependency_rows():
    br = Branch(1, 1, 2, 0.01, 0.1, 0.0, 0.6, 1.0, 0.0, -ANG, ANG)
    net = apply_damage(_net_with_branch(br),
                       DamageScenario.of(branches=[1], buses=[2]))
    model = build_mrsp(net, "dc")
    names = [r.name for r in model.lin_rows]
    assert any(n.startswith("branch_needs_bus[1,2]") for n in names)
