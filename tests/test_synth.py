import datetime as dt
import math

import numpy as np
import pytest

from soilspec import (
    CampaignScenario,
    RainEvent,
    SoilingModel,
    Waveband,
    ast,
    boxcar_cell,
    load_scenario,
    smr,
    smratio,
    synth_campaign,
    synth_spectrum,
    synth_tau,
)
from soilspec.errors import ConfigError, EmptyScenario
from soilspec.metrics import soiling_transmittance

from conftest import flat_spectrum

TABLE_BANDS = [("top", 300.0, 720.0), ("mid", 720.0, 920.0), ("bot", 920.0, 1810.0)]
GRID = np.linspace(300.0, 1810.0, 303)


def test_tau_no_deposit_is_one():
    tau = synth_tau(SoilingModel(k=0.0, alpha=1.5), GRID)
    np.testing.assert_array_equal(tau.values, 1.0)


def test_tau_direct_evaluation():
    # independent of the implementation: exp(-0.2) at the anchor wavelength
    tau = synth_tau(SoilingModel(k=0.2, alpha=1.0), np.array([500.0, 550.0, 600.0]))
    assert tau.values[1] == pytest.approx(math.exp(-0.2), rel=1e-15)
    assert tau.values[1] == pytest.approx(0.81873, abs=1e-5)


def test_tau_monotone_in_wavelength():
    tau = synth_tau(SoilingModel(k=0.4, alpha=0.9), GRID)
    assert np.all(np.diff(tau.values) > 0)


def test_tau_always_satisfies_bounds():
    for k in (0.0, 0.1, 1.0, 5.0):
        for alpha in (0.5, 1.0, 2.0):
            tau = synth_tau(SoilingModel(k=k, alpha=alpha), GRID)
            assert tau.values.min() > 0.0 and tau.values.max() <= 1.0


def test_tau_rejects_negative_k():
    with pytest.raises(ValueError):
        SoilingModel(k=-0.1, alpha=1.0)


def test_band_ast_ordering():
    # shorter wavelengths attenuate more, so top < mid < bot on every band
    for k in (0.05, 0.2, 0.5):
        tau = synth_tau(SoilingModel(k=k, alpha=1.0), GRID)
        values = [ast(tau, Waveband(*b)) for b in TABLE_BANDS]
        assert values[0] < values[1] < values[2]


def test_increasing_k_decreases_ast_and_band_ratio():
    bands = [Waveband(*b) for b in TABLE_BANDS]
    prev_ast = None
    prev_ratio = None
    for k in (0.05, 0.1, 0.2, 0.4):
        tau = synth_tau(SoilingModel(k=k, alpha=1.0), GRID)
        cur = [ast(tau, b) for b in bands]
        ratio = cur[0] / cur[1]
        if prev_ast is not None:
            assert all(c < p for c, p in zip(cur, prev_ast))
            assert ratio < prev_ratio
        prev_ast, prev_ratio = cur, ratio


def test_synth_tau_smratio_below_one(reference):
    cell = boxcar_cell(TABLE_BANDS, not_eligible=("bot",),
                       reference=reference, full_band_name="MJ")
    e = flat_spectrum(300, 1810, 1.0)
    for k in (0.1, 0.3):
        tau = synth_tau(SoilingModel(k=k, alpha=1.0), GRID)
        assert smratio(e, cell, tau) < 1.0
        assert smratio(reference, cell, tau) < 1.0


# ---------------------------------------------------------------------------
# tilted spectra
# ---------------------------------------------------------------------------

def test_tilt_zero_returns_reference(reference):
    s = synth_spectrum(0.0)
    np.testing.assert_array_equal(s.values, reference.values)
    np.testing.assert_array_equal(s.wavelengths_nm, reference.wavelengths_nm)


def test_tilt_preserves_broadband_integral(reference):
    for tilt in (-1.0, -0.3, 0.4, 1.2):
        s = synth_spectrum(tilt)
        total = np.trapezoid(s.values, s.wavelengths_nm)
        base = np.trapezoid(reference.values, reference.wavelengths_nm)
        assert total == pytest.approx(base, rel=1e-9)


def test_blue_tilt_raises_smr(reference):
    cell = boxcar_cell(TABLE_BANDS, not_eligible=("bot",),
                       reference=reference, full_band_name="MJ")
    assert smr(reference, cell) == pytest.approx(1.0, rel=1e-12)
    assert smr(synth_spectrum(0.5), cell) > 1.0
    assert smr(synth_spectrum(-0.5), cell) < 1.0


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def _mean_tau(m):
    taus = [soiling_transmittance(s, c).tau
            for s, c in zip(m.soiled_scans, m.control_scans)]
    grid = taus[0].wavelengths_nm
    return np.mean([t.values for t in taus], axis=0)


def test_campaign_zero_deposition_no_noise():
    scenario = CampaignScenario(weeks=3, deposition_per_week=0.0, noise_sigma=0.0)
    weeks, days = synth_campaign(scenario)
    assert len(weeks) == 3 and len(days) == 3
    for m in weeks:
        np.testing.assert_array_equal(_mean_tau(m), 1.0)


def test_campaign_deposition_only_monotone():
    scenario = CampaignScenario(weeks=6, deposition_per_week=0.03, noise_sigma=0.0)
    weeks, _ = synth_campaign(scenario)
    band = Waveband("MJ", 300.0, 1810.0)
    asts = []
    for m in weeks:
        tau = soiling_transmittance(m.soiled_scans[0], m.control_scans[0]).tau
        asts.append(ast(tau, band))
    assert all(b < a for a, b in zip(asts, asts[1:]))


def test_campaign_full_wash_resets():
    scenario = CampaignScenario(
        weeks=4, deposition_per_week=0.05, noise_sigma=0.0,
        rain_weeks=(RainEvent(week=2, wash_fraction=1.0),),
    )
    weeks, _ = synth_campaign(scenario)
    # week 3 returns to the one-week-deposition state of week 1
    np.testing.assert_array_equal(_mean_tau(weeks[2]), _mean_tau(weeks[0]))


def test_campaign_noise_is_seeded():
    scenario = CampaignScenario(weeks=2, deposition_per_week=0.02, seed=123)
    w1, _ = synth_campaign(scenario)
    w2, _ = synth_campaign(scenario)
    for a, b in zip(w1, w2):
        for sa, sb in zip(a.soiled_scans, b.soiled_scans):
            np.testing.assert_array_equal(sa.values, sb.values)
    w3, _ = synth_campaign(CampaignScenario(weeks=2, deposition_per_week=0.02, seed=124))
    assert not np.array_equal(w1[0].soiled_scans[0].values,
                              w3[0].soiled_scans[0].values)


def test_campaign_field_days_share_hourly_spectra():
    _, days = synth_campaign(CampaignScenario(weeks=3, deposition_per_week=0.02))
    by_hour = [{r.timestamp.time(): r.spectral_dni for r in d.spectral_records} for d in days]
    assert len(by_hour[0]) == 7
    for other in by_hour[1:]:
        assert other.keys() == by_hour[0].keys()
        assert all(other[h] is by_hour[0][h] for h in other)


def test_campaign_field_days_are_clear_and_dated():
    scenario = CampaignScenario(weeks=2, deposition_per_week=0.02,
                                start_date=dt.date(2017, 1, 2))
    weeks, days = synth_campaign(scenario)
    assert [d.date for d in days] == [dt.date(2017, 1, 2), dt.date(2017, 1, 9)]
    assert weeks[0].scan_date == days[0].date
    day = days[0]
    recs = [r for r in day.records if r.gni > 0]
    assert sum(r.dni for r in recs) / sum(r.gni for r in recs) == pytest.approx(0.85, rel=1e-12)
    assert len(day.spectral_records) == 7  # hourly 09:00-15:00


def test_campaign_scan_noise_below_rejection_rule():
    scenario = CampaignScenario(weeks=5, deposition_per_week=0.03, seed=9)
    weeks, _ = synth_campaign(scenario)
    band = Waveband("MJ", 300.0, 1810.0)
    for m in weeks:
        asts = [ast(soiling_transmittance(s, c).tau, band)
                for s, c in zip(m.soiled_scans, m.control_scans)]
        assert max(asts) - min(asts) < 0.01


def test_campaign_grid_must_cover_cell(bundled_cell):
    scenario = CampaignScenario(weeks=1, deposition_per_week=0.0,
                                grid_min_nm=400.0, grid_max_nm=900.0)
    with pytest.raises(ConfigError, match="full band"):
        synth_campaign(scenario, bundled_cell)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "weeks: 10\n"
        "deposition_per_week: 0.02\n"
        "rain_weeks:\n"
        "  - {week: 4, wash_fraction: 0.9}\n"
        "spectrum_tilt: 0.25\n"
        "seed: 7\n"
        "start_date: 2017-03-06\n"
    )
    scenario = load_scenario(path)
    assert scenario.weeks == 10
    assert scenario.rain_weeks == (RainEvent(week=4, wash_fraction=0.9),)
    assert scenario.start_date == dt.date(2017, 3, 6)
    assert scenario.spectrum_tilt == 0.25


def test_scenario_unknown_key(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("weeks: 5\ndeposition_per_week: 0.02\ntypo_knob: 1\n")
    with pytest.raises(ConfigError, match="typo_knob"):
        load_scenario(path)


def test_scenario_zero_weeks(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("weeks: 0\ndeposition_per_week: 0.02\n")
    with pytest.raises(EmptyScenario):
        load_scenario(path)


def test_scenario_wash_fraction_bounds():
    with pytest.raises(ValueError):
        RainEvent(week=1, wash_fraction=1.5)
