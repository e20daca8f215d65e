import json

import numpy as np
import pytest

from soilspec import Kind, read_spectrum_csv, write_spectrum_csv
from soilspec.cell import bundled_cell_config_path
from soilspec.cli import main

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
               "--data", str(data), "--out", str(out), "--pair", "mid,bot"])
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
