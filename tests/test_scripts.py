"""Each study script imports cleanly, and each grs name the benchmark's
tracer patches exists, so a renamed or deleted grs function fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # scripts prepend src/
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() sits behind __name__ == "__main__"
    assert callable(module.main)


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
