import pytest
from hypothesis import given, settings, strategies as st

from grs import netio
from grs.grid import DEFAULT_ANGLE_BOUND, EnsReport, PeriodEns
from grs.netio import (MalformedSection, MissingSection, NegativeDemand,
                       parse_matpower, to_network, write_report)

MINIMAL = """
function mpc = tiny
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0.0  0.0 0 0 1 1.0 0.0 230 1 1.1 0.9;
  2 1 50.0 10.0 0 0 1 1.0 0.0 230 1 1.1 0.9;
];
mpc.gen = [
  1 10 0 30 -30 1.02 100 1 60 0;
];
mpc.branch = [
  1 2 0.01 0.1 0.02 40 40 40 0 0 1 -30 30;
];
"""


def test_parse_minimal():
    raw = parse_matpower(MINIMAL)
    assert raw.base_mva == 100.0
    assert raw.name == "tiny"
    assert len(raw.bus_rows) == 2
    assert len(raw.gen_rows) == 1
    assert len(raw.branch_rows) == 1
    assert raw.warnings == []


def test_parse_comments_ignored():
    commented = "\n".join(
        line + "  % trailing comment" if line.strip() else line
        for line in MINIMAL.splitlines()
    )
    raw = parse_matpower(commented)
    base = parse_matpower(MINIMAL)
    assert raw.bus_rows == base.bus_rows
    assert raw.gen_rows == base.gen_rows
    assert raw.branch_rows == base.branch_rows


def test_parse_skips_unknown_sections():
    text = MINIMAL + """
mpc.storage = [
  1 2 3 4;
];
"""
    raw = parse_matpower(text)
    base = parse_matpower(MINIMAL)
    assert raw.bus_rows == base.bus_rows
    assert len(raw.warnings) == 1
    assert "storage" in raw.warnings[0]


def test_parse_missing_section():
    with pytest.raises(MissingSection):
        parse_matpower("mpc.baseMVA = 100;\nmpc.bus = [1 3 0 0 0 0 1 1 0 230 1 1.1 0.9;];")
    with pytest.raises(MissingSection):
        parse_matpower(MINIMAL.replace("mpc.baseMVA = 100;", ""))


def test_parse_malformed():
    with pytest.raises(MalformedSection):
        parse_matpower(MINIMAL.replace("0.01 0.1", "0.01 oops"))
    with pytest.raises(MalformedSection):
        parse_matpower(MINIMAL.replace("];\nmpc.gen", "\nmpc.gen", 1))


def test_to_network_per_unit():
    net = to_network(parse_matpower(MINIMAL))
    assert net.loads[2].pd == pytest.approx(0.5)
    assert net.loads[2].pd * net.base_mva == pytest.approx(50.0, abs=1e-9)
    assert net.buses[2].vmin == 0.9 and net.buses[2].vmax == 1.1
    assert net.branches[1].rate_a == pytest.approx(0.4)
    assert net.gens[1].pmax == pytest.approx(0.6)
    assert net.ref_buses == frozenset([1])


def test_gen_status_zero_out_of_service():
    text = MINIMAL.replace("1 10 0 30 -30 1.02 100 1 60 0;",
                           "1 10 0 30 -30 1.02 100 0 60 0;")
    net = to_network(parse_matpower(text))
    assert not net.gens[1].in_service


def test_angle_defaults_applied():
    text = MINIMAL.replace("1 -30 30;", "1 0 0;")
    net = to_network(parse_matpower(text))
    assert net.branches[1].angmin == pytest.approx(-DEFAULT_ANGLE_BOUND)
    assert net.branches[1].angmax == pytest.approx(DEFAULT_ANGLE_BOUND)


def test_negative_demand_rejected():
    text = MINIMAL.replace("2 1 50.0", "2 1 -50.0")
    with pytest.raises(NegativeDemand):
        to_network(parse_matpower(text))


def test_duplicate_bus_id_rejected():
    from grs.grid import DuplicateBusId
    text = MINIMAL.replace(
        "  2 1 50.0 10.0 0 0 1 1.0 0.0 230 1 1.1 0.9;",
        "  2 1 50.0 10.0 0 0 1 1.0 0.0 230 1 1.1 0.9;\n"
        "  1 1 0.0  0.0 0 0 1 1.0 0.0 230 1 1.1 0.9;")
    with pytest.raises(DuplicateBusId):
        to_network(parse_matpower(text))


def test_tap_zero_becomes_one():
    net = to_network(parse_matpower(MINIMAL))
    assert net.branches[1].tap == 1.0


def test_fixture_corpus_parses():
    import pathlib
    cases = pathlib.Path(__file__).resolve().parent.parent / "cases"
    for path in sorted(cases.glob("*.m")):
        net = netio.load_case(path)
        assert net.buses
        for load in net.loads.values():
            assert load.pd * net.base_mva == pytest.approx(
                load.pd * net.base_mva, abs=1e-9)


def test_write_report_csv_totals():
    # each total is summed unrounded and rounded once: three rows of
    # 0.0007 MW shed over 1 h, each written as 0.001, give shed and ENS
    # totals of 0.002, as in the JSON
    for served, total in (([1000.0], "total,1000.000,0.000,0.000"),
                          ([999.9993] * 3, "total,2999.998,0.002,0.002")):
        rep = EnsReport.from_served(1000.0, served, 1.0, True, 0.0)
        out = write_report(rep).decode()
        lines = out.strip().splitlines()
        assert lines[0] == "period,served_mw,shed_mw,ens_mwh"
        assert lines[-1] == total
        assert float(total.split(",")[-1]) == rep.true_ens_mwh


def test_write_report_csv_two_periods():
    # shed 400 MW then 0 over 1 h periods: total ENS 400 MWh
    rep = EnsReport.from_served(1000.0, [600.0, 1000.0], 1.0, True, 400.0)
    out = write_report(rep).decode()
    total = out.strip().splitlines()[-1].split(",")
    assert float(total[-1]) == pytest.approx(400.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 5000.0), st.lists(st.floats(0.0, 1.0), min_size=1,
                                        max_size=6),
       st.sampled_from([1.0, 0.25, 0.7, 2.0]), st.booleans())
def test_write_report_totals_agree(total_mw, shares, hours, count_initial):
    served = [total_mw * f for f in shares]
    rep = EnsReport.from_served(total_mw, served, hours, count_initial, 0.0)
    row = write_report(rep).decode().strip().splitlines()[-1].split(",")
    tot_served, tot_shed, tot_ens = (float(v) for v in row[1:])
    if hours == 1.0:
        assert row[2] == row[3]
    counted = len(served) - (0 if count_initial else 1)
    assert tot_served + tot_shed == pytest.approx(counted * total_mw, abs=2e-3)
    assert tot_ens == pytest.approx(tot_shed * hours, abs=2e-3)


def test_report_validation():
    with pytest.raises(Exception):
        EnsReport(1.0, True, [], 0.0, 0.0)
    with pytest.raises(Exception):
        EnsReport(1.0, True, [PeriodEns(1, 0, 0, 0)], 0.0, 0.0)


def test_damage_json_round_trip():
    d = {"branch": [1, 4], "gen": [2], "bus": []}
    dmg = netio.damage_from_dict(d)
    assert netio.damage_to_dict(dmg) == d


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.sampled_from(list(
    "mpc.basMVAbusgenbrch=[]{};%0123456789.-\n\t ")), max_size=400))
def test_parser_total_on_arbitrary_text(text):
    from grs.netio import NetioError
    try:
        parse_matpower(text)
    except NetioError:
        pass  # typed failures only; anything else would escape and fail


@settings(max_examples=30, deadline=None)
@given(
    base=st.floats(1.0, 1000.0),
    pd=st.floats(0.0, 500.0),
    qd=st.floats(-100.0, 100.0),
)
def test_per_unit_consistency_property(base, pd, qd):
    text = f"""
mpc.baseMVA = {base};
mpc.bus = [
  1 3 0.0 0.0 0 0 1 1.0 0.0 230 1 1.1 0.9;
  2 1 {pd} {qd} 0 0 1 1.0 0.0 230 1 1.1 0.9;
];
mpc.gen = [ 1 0 0 30 -30 1.0 100 1 600 0; ];
mpc.branch = [ 1 2 0.01 0.1 0 0 0 0 0 0 1 -30 30; ];
"""
    net = to_network(parse_matpower(text))
    if pd / base != 0.0 or qd / base != 0.0:  # subnormals can underflow
        assert abs(net.loads[2].pd * base - pd) <= 1e-9 * max(1.0, pd)
    else:
        assert 2 not in net.loads
