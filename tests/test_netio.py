import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from grs import netio
from grs.grid import DEFAULT_ANGLE_BOUND, EnsReport, GridError, PeriodEns
from grs.netio import (MalformedSection, parse_matpower, to_network,
                       write_report)

CASES = pathlib.Path(__file__).resolve().parent.parent / "cases"
FIXTURES = [p.read_text() for p in sorted(CASES.glob("*.m"))]

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
    with pytest.raises(GridError, match="no mpc.gen section"):
        parse_matpower("mpc.baseMVA = 100;\nmpc.bus = [1 3 0 0 0 0 1 1 0 230 1 1.1 0.9;];")
    with pytest.raises(GridError, match="no mpc.baseMVA"):
        parse_matpower(MINIMAL.replace("mpc.baseMVA = 100;", ""))


@pytest.mark.parametrize("old,new,line", [
    ("0.0  0.0 0 0 1", "nan 0.0 0 0 1", 6),
    ("1 10 0 30", "inf 10 0 30", 10),
    ("1.02 100 1", "1.02 1e999 1", 10),
    ("40 40 40", "40 -inf 40", 13),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = nan;", 4),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = 0;", 4),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = 100 x;", 4),
    ("];\nmpc.gen", "]; 1\nmpc.gen", 8),
    ("];\nmpc.gen", "] x;\nmpc.gen", 8),
    ("];\nmpc.gen", "]; mpc.gen = [];\nmpc.gen", 8),
    ("mpc.branch = [", "mpc.branch = {", 12),
], ids=["nan", "inf", "overflow", "minus-inf", "nan-base", "zero-base",
        "bad-base", "number-after-bracket", "text-after-bracket",
        "statement-after-bracket", "no-closing-bracket"])
def test_reader_rules_name_their_line(old, new, line):
    text = MINIMAL.replace(old, new, 1)
    assert text != MINIMAL
    with pytest.raises(MalformedSection) as exc:
        parse_matpower(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: ")


def test_only_semicolons_and_blanks_after_a_bracket():
    text = MINIMAL.replace("];\nmpc.gen", "]\t; ;\nmpc.gen").replace(
        "30;\n];", "30;\n]")
    assert parse_matpower(text) == parse_matpower(MINIMAL)


def test_network_rules_left_to_validation():
    # the reader checks statements and numbers; bus references, an empty
    # bus list and voltage bounds are network rules
    for old, new, match in (
            ("1 2 0.01 0.1", "1 7 0.01 0.1", "branch 1 endpoint 7 unknown"),
            ("  1 10 0 30", "  9 10 0 30", "gen 1 bus 9 unknown"),
            ("230 1 1.1 0.9;\n];", "230 1 1.1 0.0;\n];", "bad voltage bounds")):
        with pytest.raises(GridError, match=match):
            to_network(parse_matpower(MINIMAL.replace(old, new, 1)))
    empty = "mpc.baseMVA = 100;\nmpc.bus = [];\nmpc.gen = [];\nmpc.branch = [];"
    assert parse_matpower(empty).bus_rows == []
    with pytest.raises(GridError, match="no energizable reference bus"):
        to_network(parse_matpower(empty))


def test_gencost_skipped_like_other_sections():
    raw = parse_matpower(MINIMAL + "mpc.gencost = [\n  2 0 0 3 0.1 20 0;\n];\n")
    assert raw.warnings == ["skipped section 'gencost'"]
    assert to_network(raw) == to_network(parse_matpower(MINIMAL))


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
    with pytest.raises(GridError, match="negative demand"):
        to_network(parse_matpower(text))


def test_duplicate_bus_id_rejected():
    text = MINIMAL.replace(
        "  2 1 50.0 10.0 0 0 1 1.0 0.0 230 1 1.1 0.9;",
        "  2 1 50.0 10.0 0 0 1 1.0 0.0 230 1 1.1 0.9;\n"
        "  1 1 0.0  0.0 0 0 1 1.0 0.0 230 1 1.1 0.9;")
    with pytest.raises(GridError, match="duplicate bus id 1"):
        to_network(parse_matpower(text))


def test_tap_zero_becomes_one():
    net = to_network(parse_matpower(MINIMAL))
    assert net.branches[1].tap == 1.0


def test_fixture_corpus_parses():
    for path in sorted(CASES.glob("*.m")):
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


def _parse_to_network(text):
    try:
        to_network(parse_matpower(text))
    except GridError:
        pass  # typed failures only; anything else would escape and fail


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet=st.sampled_from(list(
    "mpc.basMVAbusgenbrch=[]{};%0123456789.-\n\t ")), max_size=400))
def test_parser_total_on_arbitrary_text(text):
    _parse_to_network(text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIXTURES), st.lists(st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(["", ";", "\n", "[", "]", "%", " nan ", " inf ", " 1e999 "])),
    min_size=1, max_size=4))
def test_reader_total_on_edited_fixtures(text, edits):
    # each edit deletes a character ("") or inserts a token at a blank
    for k, token in edits:
        if token:
            blanks = [i for i, c in enumerate(text) if c in " \t\n"]
            i = blanks[k % len(blanks)]
            text = text[:i] + token + text[i:]
        elif text:
            i = k % len(text)
            text = text[:i] + text[i + 1:]
    _parse_to_network(text)


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
