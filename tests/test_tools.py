"""The repository's tools reproduce what the package ships, and the benchmark's
traced names exist."""

import importlib
import importlib.util
from pathlib import Path

import soilspec

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
DATA = Path(soilspec.__file__).parent / "data"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_bundled_data_reproduces_the_bundled_files(tmp_path, monkeypatch, capsys):
    tool = _load("make_bundled_data", TOOLS / "make_bundled_data.py")
    monkeypatch.setattr(tool, "OUT", str(tmp_path))
    (tmp_path / "cells").mkdir()
    tool.main()
    capsys.readouterr()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert [p.as_posix() for p in written] == [
        "cells/eqe_bot_illustrative.csv", "cells/eqe_mid_illustrative.csv",
        "cells/eqe_top_illustrative.csv", "reference_spectrum.csv",
    ]
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (DATA / rel).read_bytes(), rel


def test_benchmark_traced_names_exist():
    # A traced benchmark run wraps each of these names, and fails if one is gone.
    spans = _load("perfbench_spans", ROOT / "perfbench" / "spans.py")
    assert spans.TARGETS
    for module, name in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), name)), f"{module}.{name}"
