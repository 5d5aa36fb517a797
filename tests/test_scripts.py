"""Each study script imports cleanly, and each grs name the benchmark's
tracer patches exists, so a renamed or deleted grs function fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() sits behind __name__ == "__main__"
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src/
    assert callable(_load(path).main)


def test_case118_panel_line():
    _check_panel_line(0.01)


def test_case118_panel_line_at_the_default_gap():
    _check_panel_line(1e-6)


def _check_panel_line(gap):
    panel = _load(ROOT / "scripts" / "case118_panel.py")
    fields = panel.run_line(ROOT, "rop", 2, 42, gap).split()
    assert fields[:3] == ["rop", "K=2", "s42"]
    iters, root, nodes, crash = map(int, fields[3:7])
    assert 0 < root <= iters and nodes >= 1 and crash > 0
    solve_s, factor_s = float(fields[7]), float(fields[8])
    assert 0.0 < factor_s < solve_s
    objective, got, highs = float(fields[9]), fields[10], float(fields[11])
    assert got.endswith("%") and 0.0 <= float(got[:-1]) <= 100 * gap
    # both printed to 3 decimals
    assert objective == pytest.approx(highs, rel=gap, abs=1e-3)
    assert float(fields[12]) >= 0.0  # true ENS, MWh


def test_case118_panel_rejects_a_bad_gap(capsys):
    panel = _load(ROOT / "scripts" / "case118_panel.py")
    assert panel.main(["--gap", "nan"]) == 2
    assert "--gap" in capsys.readouterr().err


def test_soc_panel_line():
    panel = _load(ROOT / "scripts" / "soc_panel.py")
    fields = panel.run_line(ROOT, "all-K2").split()
    assert fields[:2] == ["all-K2", "optimal"]
    iters, nodes, cuts, root = map(int, fields[2:6])
    assert 0 < root <= iters and nodes >= 1 and cuts > 0
    assert float(fields[6]) == pytest.approx(20.0)  # 2 000 MWh at 100 MVA
    assert float(fields[7]) > 0.0  # solve seconds
    objective, estimated, true = map(float, fields[8:11])
    assert objective == pytest.approx(2000.0)  # MWh served
    assert estimated <= true == pytest.approx(1000.0)


def test_soc_panel_rejects_a_bad_time_limit(capsys):
    panel = _load(ROOT / "scripts" / "soc_panel.py")
    assert panel.main(["--time-limit", "nan"]) == 2
    assert "--time-limit" in capsys.readouterr().err


def test_path_spread_on_case5_dc_k2(case5):
    import grs.mip.simplex
    from grs.grid import DamageScenario
    spread = _load(ROOT / "scripts" / "path_spread.py")
    run = spread.pipeline(case5, DamageScenario.of(branches=[1, 2, 3, 4]),
                          2, "dc")
    rows = spread.measure(run, [40, 50])
    assert grs.mip.simplex.REFACTOR_EVERY == 50  # put back
    assert [r[0] for r in rows] == [40, 50]
    assert all(nodes >= 1 and iters > 0 for _, nodes, iters, _ in rows)
    assert rows[0][3] == pytest.approx(rows[1][3])  # true ENS, MWh
    table = spread.lines(rows)
    assert table[0].split() == ["refactor", "nodes", "iters", "true_ens"]
    assert [line.split()[0] for line in table[1:]] == [
        "40", "50", "min", "median", "max"]
    assert float(table[-1].split()[2]) == max(r[2] for r in rows)


def test_path_spread_rejects_bad_periods(capsys):
    spread = _load(ROOT / "scripts" / "path_spread.py")
    assert spread.main(["--soc", "all-K2", "--refactor", "0,50"]) == 2
    assert "--refactor" in capsys.readouterr().err


def test_op_digests_compare_marks_each_line():
    digests = _load(ROOT / "scripts" / "op_digests.py")
    ours = ["case5-dc-k5 plain d0e8a4f006e0df72",
            "case118-heuristic heuristic-seed42 aea4df4dd72d30a2",
            "validator 54 schedules 57d929e98f6591ac"]
    theirs = [ours[0], "case118-heuristic heuristic-seed42 0123456789abcdef",
              ours[2]]
    assert digests.compare(ours, ours) == (
        [f"same      {line}" for line in ours], 0)
    assert digests.compare(ours, theirs) == ([
        f"same      {ours[0]}",
        "DIFFERENT case118-heuristic heuristic-seed42 aea4df4dd72d30a2 "
        "0123456789abcdef",
        f"same      {ours[2]}"], 1)
    # a line only one side printed differs too
    assert digests.compare(ours, ours[:2]) == (
        [f"same      {ours[0]}", f"same      {ours[1]}",
         "DIFFERENT validator 54 schedules 57d929e98f6591ac -"], 1)


def test_perfbench_span_targets_exist():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # imports grs modules only
    missing = [name for name, module, attr, _ in spans.TARGETS
               if not hasattr(module, attr)]
    assert not missing
    # the factorization span wraps simplex.spla.splu, outside TARGETS
    import grs.mip.simplex
    assert hasattr(grs.mip.simplex.spla, "splu")
