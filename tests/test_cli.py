import argparse
import copy
import datetime as dt
import errno
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from soilspec import (
    Aggregation,
    CampaignScenario,
    FieldDay,
    Kind,
    campaign_fits,
    load_bundled_3j,
    load_campaign_dir,
    pipeline,
    read_spectrum_csv,
    run_campaign,
    synth_campaign,
    write_campaign_dir,
    write_spectrum_csv,
)
from soilspec import cli, errors
from soilspec.cell import bundled_cell_config_path, reference_spectrum_path
from soilspec.cli import build_parser, main

from conftest import flat_spectrum, linear_spectrum


@pytest.fixture()
def toy_fixtures(tmp_path):
    """Toy cell config + E/tau CSVs reproducing the analytic oracle."""
    write_spectrum_csv(flat_spectrum(300, 700, 1.0, Kind.SPECTRAL_RESPONSE),
                       tmp_path / "sr_top.csv")
    write_spectrum_csv(flat_spectrum(700, 900, 1.0, Kind.SPECTRAL_RESPONSE),
                       tmp_path / "sr_mid.csv")
    write_spectrum_csv(flat_spectrum(300, 900, 1.0), tmp_path / "reference.csv")
    (tmp_path / "cell.yaml").write_text(
        "name: toy\n"
        "reference_spectrum: reference.csv\n"
        "junctions:\n"
        "  - {name: top, band: [300, 700], sr_file: sr_top.csv}\n"
        "  - {name: mid, band: [700, 900], sr_file: sr_mid.csv}\n"
    )
    write_spectrum_csv(flat_spectrum(300, 900, 1.0), tmp_path / "e.csv")
    write_spectrum_csv(linear_spectrum(300, 900, 0.5, 1.0), tmp_path / "tau.csv")
    return tmp_path


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_compute_flat_tau(toy_fixtures, tmp_path, capsys):
    write_spectrum_csv(flat_spectrum(300, 900, 1.0, Kind.TRANSMITTANCE),
                       tmp_path / "ones.csv")
    rc = main(["compute", str(toy_fixtures / "e.csv"), str(tmp_path / "ones.csv"),
               "--cell", str(toy_fixtures / "cell.yaml")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("sratio", "bsratio", "ssratio", "smratio"):
        assert doc[key] == pytest.approx(1.0, rel=1e-12)


def test_compute_toy_golden(toy_fixtures, capsys):
    rc = main(["compute", str(toy_fixtures / "e.csv"), str(toy_fixtures / "tau.csv"),
               "--cell", str(toy_fixtures / "cell.yaml")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sratio"] == pytest.approx(0.91667, abs=1e-4)
    assert doc["bsratio"] == pytest.approx(0.75, abs=1e-4)
    assert doc["ssratio"] == pytest.approx(1.2222, abs=1e-4)
    assert doc["smratio"] == pytest.approx(0.7273, abs=1e-4)
    assert doc["ast_MJ"] == pytest.approx(0.75, abs=1e-4)
    assert doc["limiting_cleaned"] == "mid"


def test_compute_missing_file(toy_fixtures, capsys):
    rc = main(["compute", str(toy_fixtures / "nope.csv"),
               str(toy_fixtures / "tau.csv"),
               "--cell", str(toy_fixtures / "cell.yaml")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFound"


def test_compute_kind_mismatch_is_computation_error(toy_fixtures, capsys):
    # tau file wired into the irradiance slot: engine error, exit 2
    rc = main(["compute", str(toy_fixtures / "tau.csv"), str(toy_fixtures / "tau.csv"),
               "--cell", str(toy_fixtures / "cell.yaml")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "KindMismatch"


def test_compute_negative_index_is_computation_error(tmp_path, capsys):
    reference = read_spectrum_csv(reference_spectrum_path())
    negated = reference.with_values(np.where(reference.wavelengths_nm < 720.0, -1.0, 1.0)
                                    * reference.values)
    write_spectrum_csv(negated, tmp_path / "e.csv")
    write_spectrum_csv(flat_spectrum(280, 4000, 0.9, Kind.TRANSMITTANCE), tmp_path / "tau.csv")
    rc = main(["compute", str(tmp_path / "e.csv"), str(tmp_path / "tau.csv"),
               "--cell", str(bundled_cell_config_path())])
    assert rc == 2
    assert _one_error(capsys)["error"] == "NegativeIndex"


def test_version_reports_reference_hash(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "soilspec" in out and "sha256" in out


def test_synth_requires_weeks(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 0\ndeposition_per_week: 0.01\n")
    rc = main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "EmptyScenario"


def test_synth_deterministic_and_seed_override(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 11\n")
    assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "b")]) == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "c"),
                 "--seed", "12"]) == 0
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")
    capsys.readouterr()
    rc = main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "d"),
               "--seed", "-3"])
    _assert_config_error(rc, capsys, "--seed: 'seed' must be >= 0, got -3")


def test_synth_tree_bytes_are_pinned(tmp_path, capsys):
    # A digest of every file name and byte of small seeded synth trees, so
    # that any drift of the campaign-dir format fails here. The tilted tree
    # also pins synth_spectrum's renormalisation of the reshaped spectrum.
    pinned = {
        "": "caaa731f13491b82c6a336aa73c8a1cae1433d2480b88b688b38be7fc25c649e",
        "spectrum_tilt: -0.1234567\n":
            "ae44f56abf6f1305e86cbbd9cde6a1dd314142896220a364e14f9baf8f19ebc9",
    }
    for extra, expected in pinned.items():
        scenario = tmp_path / "s.yaml"
        scenario.write_text("weeks: 3\ndeposition_per_week: 0.02\n"
                            "rain_weeks:\n  - {week: 2, wash_fraction: 0.5}\n" + extra)
        out = tmp_path / f"data{len(extra)}"
        assert main(["synth", "--scenario", str(scenario), "--out", str(out),
                     "--seed", "7"]) == 0
        capsys.readouterr()
        tree = _tree_bytes(out)
        # 18 scans, 3 field files, the manifest and one file per distinct text
        # of the seven hourly spectra the days share (11:00 and 13:00 are equal)
        assert len(tree) == 28
        digest = hashlib.sha256()
        for name, data in sorted(tree.items()):
            digest.update(name.encode() + b"\0" + data)
        assert digest.hexdigest() == expected, extra


def test_synth_scan_write_failure_names_its_file(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 4\ndeposition_per_week: 0.02\n")
    # Of four weeks, the synth process writes week 1's scans and its helper the rest.
    for share, name in (("caller", "week01_control_2.csv"), ("helper", "week02_control_2.csv")):
        blocked = tmp_path / share / name
        blocked.mkdir(parents=True)  # a directory where a scan is written
        assert main(["synth", "--scenario", str(scenario), "--out", str(blocked.parent)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, share
        doc = json.loads(err)
        assert doc["error"] == "IsADirectoryError" and str(blocked) in doc["message"], share


def test_synth_into_a_campaign_dir_is_refused_not_mixed(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    data = tmp_path / "st"
    scenario.write_text("weeks: 5\ndeposition_per_week: 0.02\n")
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    before = _tree_bytes(data)
    scenario.write_text("weeks: 3\ndeposition_per_week: 0.02\n")
    capsys.readouterr()
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "FileExistsError" and str(data) in doc["message"]
    assert "field_" in doc["message"]  # the first of its campaign files by name
    assert _tree_bytes(data) == before


def test_synth_dead_helper_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    synth_pid = os.getpid()

    def helper_dies(*args):  # the synth process writes its share of the scans too
        if os.getpid() != synth_pid:
            os._exit(1)

    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 3\ndeposition_per_week: 0.02\n")
    monkeypatch.setattr(pipeline, "_write_scans", helper_dies)
    out = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "OSError" and str(out) in doc["message"]


def test_synth_campaign_round_trip(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 3\ndeposition_per_week: 0.02\nseed: 3\n")
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--data", str(data), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((out / "campaign.json").read_text())
    assert doc["summary"]["n_accepted"] == 3
    assert (out / "weekly.csv").is_file()
    assert (out / "fits.json").is_file()
    header = (out / "weekly.csv").read_text().splitlines()[0]
    assert header.startswith("week_id,scan_date,accepted")


def test_campaign_lists_rejected_week(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 3\ndeposition_per_week: 0.005\nseed: 8\n")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    # craft a 1.5% replicate spread into week 2's third soiled scan
    scan_path = data / "week02_soiled_3.csv"
    scan = read_spectrum_csv(scan_path)
    write_spectrum_csv(scan.with_values(scan.values * 1.015), scan_path)
    out = tmp_path / "out"
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--data", str(data), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((out / "campaign.json").read_text())
    weeks = {w["week_id"]: w for w in doc["weeks"]}
    assert weeks[2]["accepted"] is False
    assert weeks[2]["rejection_reason"] == "SpreadExceeded"
    assert weeks[1]["accepted"] and weeks[3]["accepted"]


def test_campaign_empty_data_dir(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--data", str(data), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "NoWeeksFound"


def test_campaign_data_dir_from_env(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 4\n")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    monkeypatch.setenv("SOILSPEC_DATA_DIR", str(data))
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    capsys.readouterr()


def test_campaign_aggregation_noon(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 6\n")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    out = tmp_path / "out"
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--data", str(data), "--out", str(out), "--aggregation", "noon"])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads((out / "campaign.json").read_text())
    assert doc["aggregation"] == "noon"
    assert doc["summary"]["n_accepted"] == 2


def _assert_config_error(rc, capsys, name):
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert name in doc["message"]
    return doc


def test_campaign_manifest_week_without_id(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 5\n")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    (data / "manifest.yaml").write_text(
        "start_date: 2017-01-02\nweeks:\n  - {scan_date: 2017-01-11}\n"
    )
    capsys.readouterr()
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--data", str(data), "--out", str(tmp_path / "out")])
    _assert_config_error(rc, capsys, "manifest.yaml")


def test_campaign_manifest_week_listed_twice(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 3\ndeposition_per_week: 0.02\nseed: 5\n")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    (data / "manifest.yaml").write_text(
        "start_date: 2017-01-02\nweeks:\n"
        "  - {week_id: 2, scan_date: 2017-01-09}\n"
        "  - {week_id: 2, scan_date: 2017-01-16}\n"
    )
    capsys.readouterr()
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--data", str(data), "--out", str(tmp_path / "out")])
    doc = _assert_config_error(rc, capsys, "manifest.yaml")
    assert "week_id 2 " in doc["message"]
    assert not (tmp_path / "out").exists()


def test_campaign_manifest_week_without_scans(small_data, tmp_path, capsys):
    data = shutil.copytree(small_data, tmp_path / "data")
    (data / "manifest.yaml").write_text("weeks:\n  - {week_id: 9, scan_date: 2017-03-01}\n")
    rc = _campaign(data, tmp_path)
    assert rc == 1
    doc = _one_error(capsys)
    assert doc["error"] == "ConfigError"
    assert "manifest.yaml" in doc["message"] and "week_id 9 " in doc["message"]
    assert not (tmp_path / "out").exists()


def test_campaign_manifest_weeks_not_a_list(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 5\n")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    (data / "manifest.yaml").write_text("start_date: 2017-01-02\nweeks: 5\n")
    capsys.readouterr()
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--data", str(data), "--out", str(tmp_path / "out")])
    _assert_config_error(rc, capsys, "manifest.yaml")


def test_synth_rain_weeks_not_a_list(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 2\ndeposition_per_week: 0.02\nrain_weeks: 5\n")
    rc = main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    _assert_config_error(rc, capsys, "s.yaml")


def test_synth_rain_week_without_wash_fraction(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 2\ndeposition_per_week: 0.02\nrain_weeks:\n  - {week: 1}\n")
    rc = main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    _assert_config_error(rc, capsys, "s.yaml")


def test_compute_junction_entry_not_a_mapping(toy_fixtures, capsys):
    (toy_fixtures / "cell.yaml").write_text(
        "name: toy\n"
        "reference_spectrum: reference.csv\n"
        "junctions:\n"
        "  - top\n"
        "  - {name: mid, band: [700, 900], sr_file: sr_mid.csv}\n"
    )
    rc = main(["compute", str(toy_fixtures / "e.csv"), str(toy_fixtures / "tau.csv"),
               "--cell", str(toy_fixtures / "cell.yaml")])
    _assert_config_error(rc, capsys, "cell.yaml")


def test_campaign_pair_with_zero_soiled_stack_current_rejects_week(tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 3\ndeposition_per_week: 0.02\nnoise_sigma: 0.0\n")
    data = tmp_path / "data"
    assert main(["synth", "--scenario", str(scenario), "--out", str(data)]) == 0
    # week 2's soiled coupon is opaque over the top-junction band
    for rep in (1, 2, 3):
        scan_path = data / f"week02_soiled_{rep}.csv"
        scan = read_spectrum_csv(scan_path)
        write_spectrum_csv(scan.with_values(np.where(scan.wavelengths_nm <= 720.0, 0.0,
                                                     scan.values)), scan_path)
    out = tmp_path / "out"
    rc = main(["campaign", "--cell", str(bundled_cell_config_path()),
               "--data", str(data), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    weeks = json.loads((out / "campaign.json").read_text())["weeks"]
    assert [(w["accepted"], w["rejection_reason"]) for w in weeks] == [
        (True, None), (False, "ZeroCurrent"), (True, None)]


@pytest.mark.parametrize("value", ["5", "{top: abc, mid: 1.0, bot: 1.0}"])
def test_compute_reference_currents_not_numbers(toy_fixtures, capsys, value):
    (toy_fixtures / "cell.yaml").write_text(
        "name: toy\n"
        "reference_spectrum: reference.csv\n"
        "junctions:\n"
        "  - {name: top, band: [300, 700], sr_file: sr_top.csv}\n"
        "  - {name: mid, band: [700, 900], sr_file: sr_mid.csv}\n"
        f"reference_currents: {value}\n"
    )
    rc = main(["compute", str(toy_fixtures / "e.csv"), str(toy_fixtures / "tau.csv"),
               "--cell", str(toy_fixtures / "cell.yaml")])
    _assert_config_error(rc, capsys, "cell.yaml")


@pytest.mark.parametrize("line", [
    "weeks: abc", "weeks: 3.5", "weeks: true", "seed: 1.5",
    "grid_step_nm: abc", "deposition_per_week: [1]", "noise_sigma: false",
])
def test_synth_scenario_value_of_wrong_type(tmp_path, capsys, line):
    key = line.split(":")[0]
    defaults = {"weeks": "weeks: 2", "deposition_per_week": "deposition_per_week: 0.02"}
    defaults[key] = line
    scenario = tmp_path / "s.yaml"
    scenario.write_text("\n".join(defaults.values()) + "\n")
    rc = main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    _assert_config_error(rc, capsys, f"s.yaml: '{key}'")


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    """A 2-week synthetic campaign dir; tests that edit it work on a copy."""
    root = tmp_path_factory.mktemp("small")
    (root / "s.yaml").write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 9\n")
    assert main(["synth", "--scenario", str(root / "s.yaml"), "--out", str(root / "data")]) == 0
    return root / "data"


def _one_error(capsys):
    """The single JSON error object a failed run printed on stderr."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    doc = json.loads(lines[0])
    assert set(doc) == {"error", "message"}
    return doc


@pytest.mark.parametrize("name, old, new, key", [
    ("manifest.yaml", "cadence_days: 7", "cadence_days: 0", "cadence_days"),
    ("manifest.yaml", "cadence_days: 7", "cadence_days: -7", "cadence_days"),
    ("manifest.yaml", "cadence_days: 7", "cadence_days: [1]", "cadence_days"),
    ("manifest.yaml", "cadence_days: 7", "cadence_days: 7.9", "cadence_days"),
    ("manifest.yaml", "start_date: '2017-01-02'", "start_date: abc", "start_date"),
    ("manifest.yaml", "start_date: '2017-01-02'", "start_date: 2017-13-01", "start_date"),
    ("manifest.yaml", "cadence_days: 7", "weeks: [{week_id: 1, scan_date: abc}]", "scan_date"),
    ("cell.yaml", "limiting_eligible: false", 'limiting_eligible: "false"', "limiting_eligible"),
    ("cell.yaml", "band: [300, 720]", 'band: ["300", 720]', "band"),
    ("s.yaml", "seed: 9", "rain_weeks: [{week: abc, wash_fraction: 0.5}]", "week"),
    ("s.yaml", "deposition_per_week: 0.02", "deposition_per_week: .nan", "deposition_per_week"),
    ("s.yaml", "seed: 9", "seed: -5", "seed"),
])
def test_config_value_of_wrong_type_names_file_and_key(small_data, tmp_path, capsys,
                                                         name, old, new, key):
    cells = shutil.copytree(bundled_cell_config_path().parent, tmp_path / "cells")
    data = shutil.copytree(small_data, tmp_path / "data")
    path = {"manifest.yaml": data / "manifest.yaml",
            "cell.yaml": cells / bundled_cell_config_path().name,
            "s.yaml": tmp_path / "s.yaml"}[name]
    if name == "s.yaml":
        path.write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 9\n")
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    if name == "s.yaml":
        rc = main(["synth", "--scenario", str(path), "--out", str(tmp_path / "o")])
    else:
        rc = main(["campaign", "--cell", str(cells / bundled_cell_config_path().name),
                   "--data", str(data), "--out", str(tmp_path / "out")])
    assert rc == 1
    doc = _one_error(capsys)
    assert doc["error"] == "ConfigError"
    assert f"{path.name}: '{key}'" in doc["message"]


_OTHER_VALUES = ["abc", "", True, False, None, 0, -7, 2.5, float("nan"), float("inf"),
                 [1], {"k": 1}, dt.date(2017, 1, 2)]
_SMALL_SCENARIO = {"weeks": 2, "deposition_per_week": 0.02, "seed": 3,
                   "start_date": dt.date(2017, 1, 2), "grid_step_nm": 10.0,
                   "rain_weeks": [{"week": 1, "wash_fraction": 0.5}]}


def _locations(node, where=()):
    """Every key or list index inside a parsed YAML document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield where + (k,)
        if isinstance(v, (dict, list)):
            yield from _locations(v, where + (k,))


def _replaced(doc, where, value):
    doc = copy.deepcopy(doc)
    node = doc
    for k in where[:-1]:
        node = node[k]
    node[where[-1]] = value
    return doc


def _lookup(doc, where):
    for k in where:
        doc = doc[k]
    return doc


@st.composite
def _mutation(draw, doc):
    where = draw(st.sampled_from(list(_locations(doc))))
    original = _lookup(doc, where)
    value = draw(st.sampled_from([v for v in _OTHER_VALUES if type(v) is not type(original)]))
    return where, value


def _assert_clean_exit(rc, capsys):
    """Exit 0, or 1 or 2 with one JSON error object, which is returned."""
    assert rc in (0, 1, 2)
    doc = _one_error(capsys) if rc else None
    capsys.readouterr()
    return doc


_BUNDLED_CELL = yaml.safe_load(bundled_cell_config_path().read_text())


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_mutation(_BUNDLED_CELL))
def test_cell_config_value_of_another_type_never_escapes(tmp_path, capsys, mutation):
    cells = tmp_path / "cells"
    if not cells.exists():
        shutil.copytree(bundled_cell_config_path().parent, cells)
        write_spectrum_csv(flat_spectrum(280, 4000, 0.9, Kind.TRANSMITTANCE), tmp_path / "tau.csv")
    config = cells / "cell.yaml"
    config.write_text(yaml.safe_dump(_replaced(_BUNDLED_CELL, *mutation)))
    rc = main(["compute", str(reference_spectrum_path()), str(tmp_path / "tau.csv"),
               "--cell", str(config)])
    _assert_clean_exit(rc, capsys)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_mutation(_SMALL_SCENARIO))
@example(mutation=(("grid_step_nm",), 0))  # was a ZeroDivisionError traceback
def test_scenario_value_of_another_type_never_escapes(tmp_path, capsys, mutation):
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(_replaced(_SMALL_SCENARIO, *mutation)))
    rc = main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    _assert_clean_exit(rc, capsys)


def _campaign(data, tmp_path, *extra):
    return main(["campaign", "--cell", str(bundled_cell_config_path()),
                 "--data", str(data), "--out", str(tmp_path / "out"), *extra])


@pytest.mark.parametrize("mode", ["noon", "daily"])
def test_campaign_json_files_match_the_in_memory_run(small_data, tmp_path, capsys, mode):
    assert _campaign(small_data, tmp_path, "--aggregation", mode) == 0
    result = run_campaign(*load_campaign_dir(small_data), load_bundled_3j(),
                          aggregation=Aggregation(mode))
    fits = campaign_fits(result)
    doc = result.to_json_dict()
    doc["fits"] = fits
    for name, expected in (("campaign.json", doc), ("fits.json", fits)):
        text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "out" / name).read_bytes() == text.encode("utf-8")


_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.floats().map(np.float64) | st.text()
                 | st.sampled_from([0, 0.0, -0.0, False, None, math.nan, math.inf, -math.inf]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30)


@given(doc=st.dictionaries(st.text(), _JSON_VALUES))
@example(doc={"mixed": [0, 0.0, -0.0, False, None], "empty": [[], {}, ()],
              "escaped": ['a, "b"\n\\', "\u00e9 \u2603 \U0001d11e", "\x00"],
              "numpy": (np.float64(-0.0), np.float64("nan"), np.float64(1e300),
                        np.float64(-math.inf)),
              "nested": {"": [[0.5, 1], [True, "x"]], "z": -0.0}})
def test_json_chunks_equal_the_stdlib_encoding(doc):
    chunks = list(cli._json_chunks(doc))
    assert all(isinstance(c, str) for c in chunks) and len(chunks) > len(doc)
    assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_campaign_bad_scan_names_its_file(small_data, tmp_path, capsys):
    data = shutil.copytree(small_data, tmp_path / "data")
    scan = data / "week01_soiled_1.csv"
    lines = scan.read_text().splitlines()
    lines.insert(3, lines[3])  # the first data row twice
    scan.write_text("\n".join(lines) + "\n")
    assert _campaign(data, tmp_path) == 1
    message = _one_error(capsys)["message"]
    assert "week01_soiled_1.csv: " in message and "strictly increasing" in message


def test_campaign_two_spellings_of_one_scan_name_both_files(small_data, tmp_path, capsys):
    data = shutil.copytree(small_data, tmp_path / "data")
    shutil.copy(data / "week02_soiled_1.csv", data / "week1_soiled_1.csv")
    assert _campaign(data, tmp_path) == 1
    doc = _one_error(capsys)
    assert doc["error"] == "ConfigError"
    assert "week01_soiled_1.csv" in doc["message"] and "week1_soiled_1.csv" in doc["message"]
    assert not (tmp_path / "out").exists()


def test_campaign_two_field_files_of_one_date_name_both_files(small_data, tmp_path, capsys):
    data = shutil.copytree(small_data, tmp_path / "data")
    first = sorted(data.glob("field_*.csv"))[0]
    twin = data / "field_2017-01-03.csv"
    assert first.name == "field_2017-01-02.csv" and not twin.exists()
    shutil.copy(first, twin)
    assert _campaign(data, tmp_path) == 1
    doc = _one_error(capsys)
    assert doc["error"] == "ConfigError"
    assert first.name in doc["message"] and twin.name in doc["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column, value", [(1, "nan"), (2, "nan"), (2, "inf"), (4, "nan"),
                                           (5, "nan"), (6, "-5.0"), (7, "inf")])
def test_campaign_non_finite_irradiance_names_file_and_line(small_data, tmp_path, capsys,
                                                            column, value):
    data = shutil.copytree(small_data, tmp_path / "data")
    field = sorted(data.glob("field_*.csv"))[0]
    lines = field.read_text().splitlines()
    parts = lines[50].split(",")
    parts[column] = value
    lines[50] = ",".join(parts)
    field.write_text("\n".join(lines) + "\n")
    assert _campaign(data, tmp_path) == 1
    doc = _one_error(capsys)
    assert doc["error"] == "ValueError"
    assert f"{field.name}:51: " in doc["message"] and "finite" in doc["message"]


def test_campaign_field_day_mixing_naive_and_aware_timestamps(small_data, tmp_path, capsys):
    data = shutil.copytree(small_data, tmp_path / "data")
    field = sorted(data.glob("field_*.csv"))[0]
    lines = field.read_text().splitlines()
    stamp = lines[10].split(",")[0]
    lines[10] = lines[10].replace(stamp, stamp + "+00:00", 1)
    field.write_text("\n".join(lines) + "\n")
    assert _campaign(data, tmp_path) == 1
    doc = _one_error(capsys)
    assert doc["error"] == "ValueError"
    assert f"{field.name}:11: " in doc["message"] and "all naive or all tz-aware" in doc["message"]


@pytest.mark.parametrize("stamp, rule", [
    (lambda before: "2099-01-01T08:20:00", "does not belong to day 2017-01-02"),
    (lambda before: before, "strictly increasing"),
    (lambda before: before.replace(":15:", ":12:"), "strictly increasing"),
], ids=["off-the-day", "repeated", "decreasing"])
def test_campaign_field_row_fault_names_its_line(small_data, tmp_path, capsys, stamp, rule):
    data = shutil.copytree(small_data, tmp_path / "data")
    field = data / "field_2017-01-02.csv"
    lines = field.read_text().splitlines()
    before = lines[4].split(",")[0]  # line 5, 08:15
    assert before == "2017-01-02T08:15:00"
    parts = lines[5].split(",")
    parts[0] = stamp(before)
    lines[5] = ",".join(parts)
    field.write_text("\n".join(lines) + "\n")
    assert _campaign(data, tmp_path) == 1
    doc = _one_error(capsys)
    assert doc["error"] == "ValueError"
    assert f"{field.name}:6: " in doc["message"] and rule in doc["message"]


@pytest.fixture(scope="module")
def three_weeks(tmp_path_factory):
    """A 3-week synthetic campaign dir: 18 scans, 3 field days of 7 spectra."""
    root = tmp_path_factory.mktemp("three")
    (root / "s.yaml").write_text("weeks: 3\ndeposition_per_week: 0.02\nseed: 5\n")
    assert main(["synth", "--scenario", str(root / "s.yaml"), "--out", str(root / "data")]) == 0
    return root / "data"


def _logged_reads(monkeypatch, log):
    """Make every process log each spectrum read to ``log``, a line ``<pid> <path>`` per read;
    returns a function giving this process's reads, then the other process's, in their order."""
    read = pipeline.read_spectrum_csv

    def logged(path):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {path}\n")
        return read(path)

    monkeypatch.setattr(pipeline, "read_spectrum_csv", logged)

    def reads():
        lines = [line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines()]
        ours = [Path(path) for pid, path in lines if pid == str(os.getpid())]
        pids = {pid for pid, _ in lines} - {str(os.getpid())}
        assert len(pids) == 1  # one helper process read the rest
        return ours, [Path(path) for pid, path in lines if pid != str(os.getpid())]

    return reads


def _spectrum_files(data, day):
    """Each spectral record's file of the ``day``-th field day by date, as
    its ``spectrum_file`` column names it, keyed by the record's time."""
    field = sorted(data.glob("field_*.csv"))[day]
    rows = [row.split(",") for row in field.read_text(encoding="utf-8").splitlines()[1:]]
    return {dt.datetime.fromisoformat(row[0]).time(): data / row[-1] for row in rows if row[-1]}


@pytest.mark.parametrize("mode, n_spectra", [("noon", 3), ("daily", 21)])
def test_campaign_reads_only_the_spectra_it_uses(three_weeks, tmp_path, capsys, monkeypatch,
                                                mode, n_spectra):
    reads = _logged_reads(monkeypatch, tmp_path / "reads.log")
    assert _campaign(three_weeks, tmp_path, "--aggregation", mode) == 0
    capsys.readouterr()
    ours, helpers = reads()
    # This process runs weeks 1 and 2 and the helper week 3, so in that order
    # the reads are those of a run in one process.
    per_week = 6 + n_spectra // 3
    assert len(ours) == 2 * per_week and len(helpers) == per_week
    calls = ours + helpers
    scans = [p for p in calls if p.parent == three_weeks]
    assert len(scans) == 18
    assert len(calls) == 18 + n_spectra
    # Week by week: its six scans, then the spectra of its field day in row
    # order (the noon one alone in noon mode), as its field file names them.
    for week in range(1, 4):
        block = calls[per_week * (week - 1):per_week * week]
        assert all(p.name.startswith(f"week{week:02d}_") for p in block[:6])
        files = _spectrum_files(three_weeks, week - 1)
        assert len(files) == 7
        if mode == "noon":
            assert block[6:] == [files[dt.time(12)]]
        else:
            assert block[6:] == list(files.values())


def _duplicate_first_row(path):
    lines = path.read_text().splitlines()
    lines.insert(2, lines[2])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("damage", [_duplicate_first_row, lambda path: path.unlink()])
def test_campaign_noon_ignores_a_bad_spectrum_no_week_uses(three_weeks, tmp_path, capsys,
                                                           damage):
    assert _campaign(three_weeks, tmp_path / "clean", "--aggregation", "noon") == 0
    data = shutil.copytree(three_weeks, tmp_path / "data")
    spectrum = _spectrum_files(data, 0)[dt.time(9)]
    assert all(_spectrum_files(data, day)[dt.time(12)] != spectrum for day in range(3))
    damage(spectrum)
    assert _campaign(data, tmp_path / "damaged", "--aggregation", "noon") == 0
    capsys.readouterr()
    assert _tree_bytes(tmp_path / "damaged" / "out") == _tree_bytes(tmp_path / "clean" / "out")


@pytest.fixture(scope="module")
def three_days_apart(tmp_path_factory):
    """``three_weeks``' campaign with each field day's spectra scaled by a
    factor of its own, so that no two days share a spectrum file."""
    weeks, days = synth_campaign(CampaignScenario(weeks=3, deposition_per_week=0.02, seed=5))
    days = [FieldDay.from_columns(
                day.date, day.timestamps,
                [None if s is None else s.with_values(s.values * (1.0 + k / 1000))
                 for s in day.spectra],
                **{name: getattr(day, name) for name in
                   ("dni", "gni", "ghi", "dhi", "rainfall_mm", "pm10", "pm25")})
            for k, day in enumerate(days, start=1)]
    return write_campaign_dir(weeks, days, tmp_path_factory.mktemp("apart") / "data")


def _spectrum_of_one_day(data, day, hour):
    """The file of the ``day``-th field day's record at ``hour``, checked to
    be used by no other day."""
    spectrum = _spectrum_files(data, day)[dt.time(hour)]
    assert all(spectrum not in _spectrum_files(data, other).values()
               for other in range(3) if other != day)
    return spectrum


@pytest.mark.parametrize("mode, hour", [("noon", "12"), ("daily", "09")])
def test_campaign_bad_spectrum_of_a_used_record_names_its_file(three_days_apart, tmp_path,
                                                               capsys, mode, hour):
    data = shutil.copytree(three_days_apart, tmp_path / "data")
    spectrum = _spectrum_of_one_day(data, 0, int(hour))
    _duplicate_first_row(spectrum)
    assert _campaign(data, tmp_path, "--aggregation", mode) == 1
    message = _one_error(capsys)["message"]
    assert f"{spectrum.name}: " in message and "strictly increasing" in message


# With three weeks held as paths, the campaign process runs weeks 1 and 2 and
# its helper process week 3.

@pytest.mark.parametrize("damaged", [["week03_soiled_2.csv"],
                                     ["week01_control_3.csv", "week03_soiled_2.csv"]],
                         ids=["helper-week", "both-halves"])
def test_campaign_bad_scan_of_a_helper_week_ends_the_run_as_in_one_process(
        three_weeks, tmp_path, capsys, damaged):
    data = shutil.copytree(three_weeks, tmp_path / "data")
    for name in damaged:
        _duplicate_first_row(data / name)
    with pytest.raises(ValueError) as first:  # the first bad scan of the run ends it
        read_spectrum_csv(data / damaged[0])
    assert _campaign(data, tmp_path) == 1
    assert _one_error(capsys) == {"error": "ValueError", "message": str(first.value)}
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, hour", [("noon", "12"), ("daily", "09")])
def test_campaign_missing_spectrum_of_a_helper_week_ends_the_run(three_days_apart, tmp_path,
                                                                 capsys, mode, hour):
    data = shutil.copytree(three_days_apart, tmp_path / "data")
    spectrum = _spectrum_of_one_day(data, 2, int(hour))  # on week 3's field day
    spectrum.unlink()
    with pytest.raises(FileNotFoundError) as missing:
        read_spectrum_csv(spectrum)
    assert _campaign(data, tmp_path, "--aggregation", mode) == 1
    assert _one_error(capsys) == {"error": "FileNotFound", "message": str(missing.value)}
    assert multiprocessing.active_children() == []


def test_campaign_helper_that_dies_is_an_error_not_a_traceback(three_weeks, tmp_path, capsys,
                                                               monkeypatch):
    week_outcome = pipeline._week_outcome
    campaign_pid = os.getpid()

    def dies_on_week_3(m, *args):
        if m.week_id == 3 and os.getpid() != campaign_pid:
            os._exit(3)
        return week_outcome(m, *args)

    monkeypatch.setattr(pipeline, "_week_outcome", dies_on_week_3)
    assert _campaign(three_weeks, tmp_path) == 1
    doc = _one_error(capsys)
    assert doc["error"] == "OSError"
    assert doc["message"] == ("the helper process running 1 of the 3 weeks, from week 3 on, "
                              "ended unexpectedly with exit code 3")
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


def test_campaign_prints_text_buffered_before_the_fork_once(three_weeks, tmp_path):
    # Piped, stdout is block-buffered, so text still in its buffer when the
    # campaign process forks its helper would be written by both processes.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(pipeline.__file__).parents[1])
    code = "import sys; from soilspec.cli import main; print('before'); sys.exit(main(sys.argv[1:]))"
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", code, "campaign", "--cell",
                           str(bundled_cell_config_path()), "--data", str(three_weeks),
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["before",
                                        f"campaign: 3/3 weeks accepted; results in {out}"]


@pytest.fixture(scope="module")
def six_dim_weeks(tmp_path_factory):
    """The demo scenario's first 6 weeks with each soiled scan dimmed by 1e-155
    over 700-940 nm: the sums of squares of the sratio and ssratio fits
    underflow, and those of the ratios to the mid band's AST overflow."""
    root = tmp_path_factory.mktemp("dim")
    scenario = yaml.safe_load((Path(pipeline.__file__).parent / "data" /
                               "demo_scenario.yaml").read_text(encoding="utf-8"))
    (root / "s.yaml").write_text(yaml.safe_dump({**scenario, "weeks": 6}), encoding="utf-8")
    assert main(["synth", "--scenario", str(root / "s.yaml"), "--out", str(root / "data")]) == 0
    for path in sorted((root / "data").glob("week*_soiled_*.csv")):
        s = read_spectrum_csv(path)
        band = (s.wavelengths_nm >= 700.0) & (s.wavelengths_nm <= 940.0)
        write_spectrum_csv(s.with_values(np.where(band, s.values * 1e-155, s.values)), path)
    return root / "data"


@pytest.mark.parametrize("mode", ["noon", "daily"])
def test_campaign_with_underflowing_fits_writes_every_output(six_dim_weeks, tmp_path, capsys,
                                                              mode):
    # Such a run ended with a ZeroDivisionError traceback and no outputs.
    assert _campaign(six_dim_weeks, tmp_path, "--aggregation", mode) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.err == ""
    assert captured.out.startswith("campaign: 6/6 weeks accepted")
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["campaign.json", "fits.json", "weekly.csv"]
    fits = json.loads((out / "fits.json").read_text(encoding="utf-8"))
    assert len(fits) == 6
    for key, fit in fits.items():
        if "error" in fit:
            assert set(fit) == {"error"}
            assert issubclass(getattr(errors, fit["error"]), errors.SoilspecError), key
        else:
            assert set(fit) == {"slope", "intercept", "r2", "mape_pct", "mpe_pct", "n"}
            assert all(math.isfinite(v) for v in fit.values()) and fit["n"] == 6, key
    # the fits whose sums of squares underflow hold numbers
    assert "error" not in fits["sratio_vs_ast_MJ"] and "error" not in fits["ssratio_vs_ast_MJ"]
    assert json.loads((out / "campaign.json").read_text(encoding="utf-8"))["fits"] == fits


def _weekly_rows(out):
    return {row.split(",", 1)[0]: row
            for row in (out / "weekly.csv").read_text().splitlines()[1:]}


def test_campaign_incomplete_week_is_rejected_before_its_scans_are_read(three_weeks, tmp_path,
                                                                        capsys):
    assert _campaign(three_weeks, tmp_path / "clean") == 0
    data = shutil.copytree(three_weeks, tmp_path / "data")
    (data / "week02_soiled_3.csv").unlink()
    _duplicate_first_row(data / "week02_soiled_1.csv")
    assert _campaign(data, tmp_path / "damaged") == 0
    capsys.readouterr()
    clean = _weekly_rows(tmp_path / "clean" / "out")
    damaged = _weekly_rows(tmp_path / "damaged" / "out")
    week2 = json.loads((tmp_path / "damaged" / "out" / "campaign.json").read_text())["weeks"][1]
    assert week2["week_id"] == 2 and week2["rejection_reason"] == "IncompleteReplicates"
    assert damaged.keys() == clean.keys() == {"1", "2", "3"}
    assert damaged["1"] == clean["1"] and damaged["3"] == clean["3"]


def test_campaign_zero_junction_band_ast_is_a_fit_error(three_weeks, tmp_path, capsys):
    assert _campaign(three_weeks, tmp_path / "clean") == 0
    data = shutil.copytree(three_weeks, tmp_path / "data")
    for path in data.glob("week*_soiled_*.csv"):  # opaque inside the bot band, 920-1810 nm
        s = read_spectrum_csv(path)
        write_spectrum_csv(s.with_values(s.values * (s.wavelengths_nm <= 915.0)), path)
    assert _campaign(data, tmp_path / "damaged") == 0
    capsys.readouterr()
    fits = json.loads((tmp_path / "damaged" / "out" / "fits.json").read_text())
    clean = json.loads((tmp_path / "clean" / "out" / "fits.json").read_text())
    assert fits["ast_top_over_bot_vs_ast_MJ"] == {"error": "ZeroDenominator"}
    assert fits.keys() == clean.keys()
    assert all("slope" in fit for key, fit in fits.items() if key != "ast_top_over_bot_vs_ast_MJ")


def _replace_in(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def _append_byte_ff(path):
    with open(path, "ab") as fh:
        fh.write(b"\xff")


# Each case damages a copy of small_data or its scenario, then runs the command; a
# failed run names the file, and a run that exits 0 lists week 2 with the fragment.
@pytest.mark.parametrize("command, damage, rc, kind, fragment", [
    ("campaign", lambda data, scenario: shutil.copy(data / "week02_soiled_1.csv",
                                                    data / "week99999999_soiled_1.csv"),
     1, "ConfigError", "week99999999_soiled_1.csv: week 99999999 scan date"),
    ("campaign", lambda data, scenario: _replace_in(data / "manifest.yaml", "cadence_days: 7",
                                                    "cadence_days: 1000000000"),
     1, "ConfigError", "1 * cadence_days 1000000000 days"),
    ("campaign", lambda data, scenario: _replace_in(
        data / "manifest.yaml", "cadence_days: 7",
        "cadence_days: 7\nweeks: [{week_id: 2, scan_date: 9999-12-31}]"),
     0, None, "2,9999-12-31,false,NoClearDay"),
    ("synth", lambda data, scenario: _replace_in(scenario, "weeks: 2",
                                                 "weeks: 3\nstart_date: 9999-12-20"),
     1, "ConfigError", "s.yaml: week 3 would be scanned past 9999-12-31"),
    ("campaign", lambda data, scenario: _append_byte_ff(data / "week01_soiled_1.csv"),
     1, "ValueError", "week01_soiled_1.csv: 'utf-8' codec can't decode byte 0xff"),
    ("campaign", lambda data, scenario: _append_byte_ff(data / "field_2017-01-02.csv"),
     1, "ValueError", "field_2017-01-02.csv: 'utf-8' codec can't decode byte 0xff"),
], ids=["scan-week-past-calendar", "cadence-past-calendar", "scan-date-on-last-day",
        "scenario-past-calendar", "scan-not-utf8", "field-file-not-utf8"])
def test_damaged_campaign_dir_or_scenario_exits_cleanly(small_data, tmp_path, capsys,
                                                        command, damage, rc, kind, fragment):
    data = shutil.copytree(small_data, tmp_path / "data")
    scenario = tmp_path / "s.yaml"
    scenario.write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 9\n")
    damage(data, scenario)
    if command == "synth":
        code = main(["synth", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    else:
        code = _campaign(data, tmp_path)
    doc = _assert_clean_exit(code, capsys)
    assert code == rc
    if rc:
        assert doc["error"] == kind and fragment in doc["message"]
    else:
        assert fragment in _weekly_rows(tmp_path / "out")["2"]


# The bundled cell's own reference currents, which it accepts when pinned.
_CURRENTS = load_bundled_3j().reference_currents
_PINNED_CURRENTS = ", ".join(f"{j}: {c!r}" for j, c in _CURRENTS.items())


@pytest.mark.parametrize("name, old, new, fragment", [
    ("cell.yaml", "limiting_eligible: false", "limiting_eligble: false",
     "unknown junction keys ['limiting_eligble']"),
    ("cell.yaml", "name: lattice-matched-3j", "name: lattice-matched-3j\nreference_current: {}",
     "unknown cell config keys ['reference_current']"),
    ("cell.yaml", "max_nm: 1810}", "max_nm: 1810, step_nm: 5}",
     "unknown full_band keys ['step_nm']"),
    ("manifest.yaml", "cadence_days: 7", "cadence_days: 7\ncadence: 7",
     "unknown manifest keys ['cadence']"),
    ("manifest.yaml", "cadence_days: 7",
     "cadence_days: 7\nweeks: [{week_id: 1, scan_date: 2017-01-02, scan_dat: 2017-01-03}]",
     "unknown manifest week keys ['scan_dat']"),
    ("s.yaml", "seed: 9", "seed: 9\nsed: 9", "unknown scenario keys ['sed']"),
    ("cell.yaml", "band: [300, 720]", "band: [300, 2.5]", "waveband 'top'"),
    ("cell.yaml", "max_nm: 1810}", "max_nm: 200}", "waveband 'MJ'"),
    ("cell.yaml", "max_nm: 1810}", "max_nm: 1800}", "must span the junction bands"),
    ("cell.yaml", "  - name: mid\n    band: [720, 920]\n    eqe_file: eqe_mid_illustrative.csv\n"
     "  - name: bot\n    band: [920, 1810]\n    eqe_file: eqe_bot_illustrative.csv\n"
     "    limiting_eligible: false\n", "", "need >= 2 junctions"),
    ("cell.yaml", "name: lattice-matched-3j",
     "name: lattice-matched-3j\nreference_currents: {top: 1.0, mid: 1.0, bot: 1.0}",
     "reference current for 'top' is 1.0"),
    ("cell.yaml", "name: lattice-matched-3j",
     f"name: lattice-matched-3j\nreference_currents: {{{_PINNED_CURRENTS}, extra: 5.0}}",
     "reference currents for unknown junctions ['extra']"),
    ("cell.yaml", "name: lattice-matched-3j",
     f"name: lattice-matched-3j\nreference_currents: "
     f"{{top: {_CURRENTS['top']!r}, mid: {_CURRENTS['mid']!r}}}",
     "missing reference current for 'bot'"),
    ("cell.yaml", "  - name: mid\n", "  - name: MJ\n", "repeated band names ['MJ']"),
    ("cell.yaml", "eqe_file: eqe_top_illustrative.csv", "eqe_file: nope.csv",
     "response file not found"),
    ("cell.yaml", "eqe_file: eqe_top_illustrative.csv", "sr_file: eqe_top_illustrative.csv",
     "is dimensionless; load it via eqe_file"),
])
def test_config_error_names_file_once(small_data, tmp_path, capsys, name, old, new, fragment):
    cells = shutil.copytree(bundled_cell_config_path().parent, tmp_path / "cells")
    data = shutil.copytree(small_data, tmp_path / "data")
    path = {"manifest.yaml": data / "manifest.yaml",
            "cell.yaml": cells / bundled_cell_config_path().name,
            "s.yaml": tmp_path / "s.yaml"}[name]
    if name == "s.yaml":
        path.write_text("weeks: 2\ndeposition_per_week: 0.02\nseed: 9\n")
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    if name == "s.yaml":
        rc = main(["synth", "--scenario", str(path), "--out", str(tmp_path / "o")])
    else:
        rc = main(["campaign", "--cell", str(cells / bundled_cell_config_path().name),
                   "--data", str(data), "--out", str(tmp_path / "out")])
    assert rc == 1
    doc = _one_error(capsys)
    assert doc["error"] == "ConfigError"
    assert doc["message"].startswith(f"{path}: ") and doc["message"].count(path.name) == 1
    assert fragment in doc["message"]


@pytest.mark.parametrize("old, new, kind", [
    ("band: [300, 720]", "band: [290, 720]", "BandCoverage"),
    ("illustrative.csv\n  - name", "illustrative.csv\n    limiting_eligible: false\n  - name",
     "NoEligibleJunction"),
    ("eqe_file: eqe_top_illustrative.csv", "sr_file: irradiance.csv", "KindMismatch"),
    ("eqe_file: eqe_top_illustrative.csv", "eqe_file: irradiance.csv", "KindMismatch"),
    ("name: lattice-matched-3j", "name: lattice-matched-3j\nreference_spectrum: short.csv",
     "BandOutOfSupport"),
], ids=["band-coverage", "no-eligible-junction", "irradiance-sr-file", "irradiance-eqe-file",
        "short-reference"])
def test_cell_config_fault_keeps_its_kind_and_names_the_file(tmp_path, capsys, old, new, kind):
    cells = shutil.copytree(bundled_cell_config_path().parent, tmp_path / "cells")
    shutil.copy(reference_spectrum_path(), cells / "irradiance.csv")
    write_spectrum_csv(flat_spectrum(300, 1000, 1.0), cells / "short.csv")
    write_spectrum_csv(flat_spectrum(280, 4000, 0.9, Kind.TRANSMITTANCE), tmp_path / "tau.csv")
    config = cells / bundled_cell_config_path().name
    text = config.read_text()
    assert old in text
    config.write_text(text.replace(old, new))
    rc = main(["compute", str(reference_spectrum_path()), str(tmp_path / "tau.csv"),
               "--cell", str(config)])
    assert rc == 2
    doc = _one_error(capsys)
    assert doc["error"] == kind
    assert doc["message"].startswith(f"{config}: ") and doc["message"].count(config.name) == 1


def _must_not_run(*args, **kwargs):
    raise AssertionError("called although --out cannot be a directory")


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("command", ["campaign", "synth"])
def test_out_that_cannot_be_a_dir_fails_before_any_work(small_data, tmp_path, capsys,
                                                        monkeypatch, command, under):
    for name in ("load_cell", "load_campaign_dir", "run_campaign",
                 "load_scenario", "synth_campaign"):
        monkeypatch.setattr(f"soilspec.cli.{name}", _must_not_run)
    (tmp_path / "taken").write_text("keep me\n")
    out = tmp_path / "taken" / "out" if under else tmp_path / "taken"
    args = (["campaign", "--cell", str(bundled_cell_config_path()), "--data", str(small_data)]
            if command == "campaign" else
            ["synth", "--scenario", str(small_data.parent / "s.yaml")])
    assert main([*args, "--out", str(out)]) == 1
    doc = _one_error(capsys)
    code = errno.ENOTDIR if under else errno.EEXIST
    assert doc == {"error": "NotADirectoryError" if under else "FileExistsError",
                   "message": f"[Errno {code}] {os.strerror(code)}: {str(out)!r}"}
    assert (tmp_path / "taken").read_text() == "keep me\n"


def test_readme_command_line_block_lists_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, parser in subparsers.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        documented = {flag for line in lines if line.split()[:2] == ["soilspec", command]
                      for flag in re.findall(r"--[a-z][a-z-]*", line)}
        assert documented == flags - {"--help"}, command
