"""The repository's tools reproduce what the package ships."""

import importlib.util
from pathlib import Path

import soilspec

TOOLS = Path(__file__).resolve().parents[1] / "tools"
DATA = Path(soilspec.__file__).parent / "data"


def test_make_bundled_data_reproduces_the_bundled_files(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_bundled_data",
                                                  TOOLS / "make_bundled_data.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
