"""The repository's tools reproduce what the package ships, the benchmark's
traced names exist, and the committed benchmark records agree with the
comparison that produced them."""

import importlib
import importlib.util
import json
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


def test_committed_benchmark_records_reproduce_their_verdicts(tmp_path):
    # Each BENCH_*.json keeps both result sets and the verdict of every
    # end-to-end row; compare.py's load and verdict must give that verdict.
    compare = _load("perfbench_compare", ROOT / "perfbench" / "compare.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        doc = json.loads(path.read_text(encoding="utf-8"))
        sets = {}
        for side in ("parent", "change"):
            jsonl = tmp_path / f"{path.stem}-{side}.jsonl"
            jsonl.write_text("".join(json.dumps(r) + "\n" for r in doc["result_sets"][side]),
                             encoding="utf-8")
            sets[side] = compare.load(str(jsonl))
        assert doc["verdicts"], path.name
        for row in doc["verdicts"]:
            m = metrics[row["metric"]]
            key, name = (0, row["workload"]), row["metric"]
            got = compare.verdict(sets["parent"][key][name], sets["change"][key][name],
                                  m["bound"], m["better"] == "lower")
            assert got == row["verdict"], f"{path.name}: {row['workload']} {name}"
