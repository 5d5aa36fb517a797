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
    panel = _load(ROOT / "scripts" / "case118_panel.py")
    fields = panel.run_line(ROOT, "rop", 2, 42).split()
    assert fields[:3] == ["rop", "K=2", "s42"]
    iters, root, nodes, crash = map(int, fields[3:7])
    assert 0 < root <= iters and nodes >= 1 and crash > 0
    solve_s, factor_s = float(fields[7]), float(fields[8])
    assert 0.0 < factor_s < solve_s
    objective, gap, highs = float(fields[9]), fields[10], float(fields[11])
    assert gap.endswith("%") and 0.0 <= float(gap[:-1]) <= 1.0
    assert objective == pytest.approx(highs, rel=0.01)
    assert float(fields[12]) >= 0.0  # true ENS, MWh


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
