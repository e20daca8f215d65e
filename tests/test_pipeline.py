import datetime as dt
import gc
import json
import random
import weakref

import numpy as np
import pytest

from soilspec import (
    Aggregation,
    CampaignResult,
    CampaignScenario,
    FieldDay,
    FieldRecord,
    Kind,
    WeeklyMeasurement,
    index_report,
    is_cloudy,
    load_campaign_dir,
    open_campaign_dir,
    run_campaign,
    select_spectra,
    soiling_rate_fit,
    synth_campaign,
    validate_week,
    write_campaign_dir,
)
from soilspec.errors import (
    IncompleteReplicates,
    NoClearDay,
    NoIrradianceRecords,
    NoWeeksFound,
    TooFewPoints,
)
from soilspec import pipeline
from soilspec.pipeline import WeeklyOutcome, campaign_fits, read_field_csv, write_field_day
from soilspec.spectral import read_spectrum_csv, write_spectrum_csv

from conftest import bundled_tau, flat_spectrum, mixed_grid_day

DATE = dt.date(2017, 1, 2)


def flat_scan_pair(c, lo=300.0, hi=900.0, glass=0.9):
    """Soiled/control scans whose soiling transmittance is flat c."""
    soiled = flat_spectrum(lo, hi, glass * c, Kind.TRANSMITTANCE)
    control = flat_spectrum(lo, hi, glass, Kind.TRANSMITTANCE)
    return soiled, control


def measurement(asts, week_id=1, scan_date=DATE, lo=300.0, hi=900.0):
    """Triplicate measurement whose replicate tau curves are flat at asts."""
    pairs = [flat_scan_pair(c, lo, hi) for c in asts]
    return WeeklyMeasurement(
        week_id=week_id,
        scan_date=scan_date,
        soiled_scans=tuple(p[0] for p in pairs),
        control_scans=tuple(p[1] for p in pairs),
    )


def clear_day(date, spectra_values=(1.0,), lo=300.0, hi=900.0):
    """A clear field day with hourly spectral records around noon."""
    records = []
    for i, v in enumerate(spectra_values):
        ts = dt.datetime.combine(date, dt.time(12, 0)) + dt.timedelta(hours=i)
        records.append(
            FieldRecord(
                timestamp=ts, dni=800.0, gni=1000.0,
                spectral_dni=flat_spectrum(lo, hi, v),
            )
        )
    return FieldDay(date=date, records=tuple(records))


def cloudy_day(date):
    ts = dt.datetime.combine(date, dt.time(12, 0))
    return FieldDay(date=date, records=(FieldRecord(timestamp=ts, dni=700.0, gni=1000.0),))


# ---------------------------------------------------------------------------
# replicate-spread rule
# ---------------------------------------------------------------------------

def test_spread_within_threshold_accepted(toy2j):
    v = validate_week(measurement([0.900, 0.905, 0.908]), toy2j)
    assert v.accepted and v.reason is None
    assert v.spread == pytest.approx(0.008, abs=1e-12)
    np.testing.assert_allclose(v.replicate_ast, [0.900, 0.905, 0.908], rtol=1e-12)


def test_spread_above_threshold_rejected(toy2j):
    v = validate_week(measurement([0.900, 0.905, 0.915]), toy2j)
    assert not v.accepted and v.reason == "SpreadExceeded"
    assert v.tau is None
    assert v.spread == pytest.approx(0.015, abs=1e-12)


def test_identical_replicates_zero_spread(toy2j):
    v = validate_week(measurement([0.9, 0.9, 0.9]), toy2j)
    assert v.accepted and v.spread == 0.0


def test_accepted_tau_is_mean_of_three(toy2j):
    v = validate_week(measurement([0.896, 0.900, 0.904]), toy2j)
    np.testing.assert_allclose(v.tau.values, 0.9, rtol=1e-12)


def test_incomplete_replicates(toy2j):
    m = measurement([0.9, 0.9, 0.9])
    broken = WeeklyMeasurement(
        week_id=1, scan_date=DATE,
        soiled_scans=m.soiled_scans[:2], control_scans=m.control_scans[:2],
    )
    assert not broken.complete
    with pytest.raises(IncompleteReplicates):
        validate_week(broken, toy2j)


# ---------------------------------------------------------------------------
# cloudy-day rule and spectra selection
# ---------------------------------------------------------------------------

def test_is_cloudy_thresholds():
    assert is_cloudy(cloudy_day(DATE)) is True          # 0.70 < 0.75
    assert is_cloudy(clear_day(DATE)) is False          # 0.80 >= 0.75


def test_is_cloudy_sums_positive_gni_only():
    ts = dt.datetime.combine(DATE, dt.time(8, 0))
    records = (
        FieldRecord(timestamp=ts, dni=0.0, gni=0.0),  # night row, excluded
        FieldRecord(timestamp=ts + dt.timedelta(hours=4), dni=800.0, gni=1000.0),
    )
    assert is_cloudy(FieldDay(date=DATE, records=records)) is False


def test_is_cloudy_no_records():
    ts = dt.datetime.combine(DATE, dt.time(12, 0))
    day = FieldDay(date=DATE, records=(FieldRecord(timestamp=ts, dni=0.0, gni=0.0),))
    with pytest.raises(NoIrradianceRecords):
        is_cloudy(day)


def test_select_scan_day_when_clear():
    days = [clear_day(DATE)]
    assert select_spectra(DATE, days).date == DATE


def test_select_previous_day_when_scan_cloudy():
    days = [cloudy_day(DATE), clear_day(DATE - dt.timedelta(days=1))]
    assert select_spectra(DATE, days).date == DATE - dt.timedelta(days=1)


def test_select_prefers_previous_on_tie():
    days = [
        cloudy_day(DATE),
        clear_day(DATE - dt.timedelta(days=1)),
        clear_day(DATE + dt.timedelta(days=1)),
    ]
    assert select_spectra(DATE, days).date == DATE - dt.timedelta(days=1)


def test_select_next_day_when_only_option():
    days = [cloudy_day(DATE), clear_day(DATE + dt.timedelta(days=1))]
    assert select_spectra(DATE, days).date == DATE + dt.timedelta(days=1)


def test_select_no_clear_day():
    days = [
        cloudy_day(DATE),
        cloudy_day(DATE - dt.timedelta(days=1)),
        cloudy_day(DATE + dt.timedelta(days=1)),
    ]
    with pytest.raises(NoClearDay):
        select_spectra(DATE, days)


def test_select_missing_scan_day_uses_neighbour():
    days = [clear_day(DATE - dt.timedelta(days=1))]
    assert select_spectra(DATE, days).date == DATE - dt.timedelta(days=1)


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

def test_run_campaign_mixed_outcomes(toy2j):
    weeks = [
        measurement([0.80, 0.80, 0.80], week_id=1, scan_date=DATE),
        measurement([0.90, 0.905, 0.915], week_id=2,
                     scan_date=DATE + dt.timedelta(days=7)),
        measurement([0.85, 0.85, 0.85], week_id=3,
                     scan_date=DATE + dt.timedelta(days=14)),
    ]
    days = [
        clear_day(DATE),
        clear_day(DATE + dt.timedelta(days=7)),
        cloudy_day(DATE + dt.timedelta(days=14)),  # week 3: no clear neighbour
    ]
    result = run_campaign(weeks, days, toy2j)
    by_id = {w.week_id: w for w in result.weekly}
    assert by_id[1].accepted
    assert by_id[2].rejection_reason == "SpreadExceeded"
    assert by_id[3].rejection_reason == "NoClearDay"
    # rejected weeks never reach the summary
    assert result.summary["n_accepted"] == 1
    assert result.summary["n_rejected"] == 2
    assert result.summary["indexes"]["sratio"]["mean"] == pytest.approx(0.8, rel=1e-12)
    # the NoClearDay week still carries its tau-side values
    assert by_id[3].ast_full == pytest.approx(0.85, rel=1e-12)
    assert by_id[3].report is None


def _zero_top_week_campaign():
    """Three weeks; week 2's soiled scans are 0 for lambda <= 720 nm, so its
    soiled top-junction current and stack current are zero."""
    weeks, days = synth_campaign(
        CampaignScenario(weeks=3, deposition_per_week=0.02, noise_sigma=0.0))
    m = weeks[1]
    dark = tuple(s.with_values(np.where(s.wavelengths_nm <= 720.0, 0.0, s.values))
                 for s in m.soiled_scans)
    weeks[1] = WeeklyMeasurement(m.week_id, m.scan_date, dark, m.control_scans)
    return weeks, days


@pytest.mark.parametrize("pair", [None, ("mid", "bot"), ("bot", "mid")])
def test_zero_soiled_stack_current_rejects_week_for_any_pair(bundled_cell, pair):
    weeks, days = _zero_top_week_campaign()
    result = run_campaign(weeks, days, bundled_cell, pair=pair)
    assert [(w.accepted, w.rejection_reason) for w in result.weekly] == [
        (True, None), (False, "ZeroCurrent"), (True, None)]
    # the rejected week keeps its tau-side values
    assert result.weekly[1].ast_by_band["top"] == 0.0


def test_run_campaign_report_matches_direct(toy2j):
    weeks = [measurement([0.8, 0.8, 0.8])]
    days = [clear_day(DATE)]
    result = run_campaign(weeks, days, toy2j)
    rep = result.weekly[0].report
    tau = validate_week(weeks[0], toy2j).tau
    direct = index_report(flat_spectrum(300, 900, 1.0), toy2j, tau)
    assert rep.sratio == direct.sratio
    assert rep.smratio == direct.smratio


def test_run_campaign_incomplete_week_rejected(toy2j):
    m = measurement([0.9, 0.9, 0.9])
    broken = WeeklyMeasurement(week_id=1, scan_date=DATE,
                               soiled_scans=m.soiled_scans[:1],
                               control_scans=m.control_scans[:1])
    result = run_campaign([broken], [clear_day(DATE)], toy2j)
    assert result.weekly[0].rejection_reason == "IncompleteReplicates"


def test_aggregation_modes_agree_for_single_record(toy2j):
    weeks = [measurement([0.85, 0.85, 0.85])]
    days = [clear_day(DATE, spectra_values=(1.3,))]
    noon = run_campaign(weeks, days, toy2j, aggregation=Aggregation.NOON)
    daily = run_campaign(weeks, days, toy2j,
                         aggregation=Aggregation.DAILY_CURRENT_WEIGHTED)
    assert noon.weekly[0].report == daily.weekly[0].report


def test_noon_mode_picks_nearest_noon_record(toy2j):
    date = DATE
    times = [dt.time(9, 0), dt.time(11, 55), dt.time(12, 5), dt.time(14, 0)]
    records = tuple(
        FieldRecord(
            timestamp=dt.datetime.combine(date, t),
            dni=800.0, gni=1000.0,
            spectral_dni=flat_spectrum(300, 900, float(i + 1)),
        )
        for i, t in enumerate(times)
    )
    days = [FieldDay(date=date, records=records)]
    weeks = [measurement([0.9, 0.9, 0.9])]
    noon = run_campaign(weeks, days, toy2j, aggregation=Aggregation.NOON)
    # flat spectra scale out of every ratio, so compare against the direct
    # report under the 11:55 spectrum (value 2.0; earlier record wins tie)
    tau = validate_week(weeks[0], toy2j).tau
    direct = index_report(flat_spectrum(300, 900, 2.0), toy2j, tau)
    assert noon.weekly[0].report == direct


def test_noon_mode_with_tz_aware_timestamps(toy2j):
    tz = dt.timezone(dt.timedelta(hours=1))
    times = [dt.time(11, 0), dt.time(12, 10), dt.time(13, 0)]
    records = tuple(
        FieldRecord(
            timestamp=dt.datetime.combine(DATE, t, tz),
            dni=800.0, gni=1000.0,
            spectral_dni=flat_spectrum(300, 900, float(i + 1)),
        )
        for i, t in enumerate(times)
    )
    weeks = [
        measurement([0.9, 0.9, 0.9]),
        measurement([0.9, 0.9, 0.9], week_id=2, scan_date=DATE + dt.timedelta(days=7)),
    ]
    days = [FieldDay(date=DATE, records=records)]
    result = run_campaign(weeks, days, toy2j, aggregation=Aggregation.NOON)
    tau = validate_week(weeks[0], toy2j).tau
    assert result.weekly[0].report == index_report(flat_spectrum(300, 900, 2.0), toy2j, tau)
    assert result.weekly[1].rejection_reason == "NoClearDay"


def test_campaign_serialization_deterministic(toy2j):
    weeks = [measurement([0.8, 0.8, 0.8])]
    days = [clear_day(DATE)]
    a = run_campaign(weeks, days, toy2j).to_json()
    b = run_campaign(weeks, days, toy2j).to_json()
    assert a == b
    csv_a = run_campaign(weeks, days, toy2j).weekly_csv()
    csv_b = run_campaign(weeks, days, toy2j).weekly_csv()
    assert csv_a == csv_b


def test_mixed_grid_day_campaign_deterministic(bundled_cell):
    tau = bundled_tau()
    soiled = tau.with_values(0.9 * tau.values)
    control = flat_spectrum(300, 2000, 0.9, Kind.TRANSMITTANCE)
    week = WeeklyMeasurement(week_id=1, scan_date=DATE,
                             soiled_scans=(soiled,) * 3, control_scans=(control,) * 3)
    records = tuple(
        FieldRecord(
            timestamp=dt.datetime.combine(DATE, dt.time(10 + i, 0)),
            dni=800.0, gni=1000.0, spectral_dni=e,
        )
        for i, e in enumerate(mixed_grid_day())
    )
    days = [FieldDay(date=DATE, records=records)]
    a = run_campaign([week], days, bundled_cell).to_json()
    b = run_campaign([week], days, bundled_cell).to_json()
    assert json.loads(a)["weeks"][0]["accepted"]
    assert a == b


def test_zero_deposition_campaign_sratio_is_one(bundled_cell):
    # without deposition or noise the soiled and control scans coincide,
    # so every ratio collapses to exactly 1
    scenario = CampaignScenario(weeks=3, deposition_per_week=0.0, noise_sigma=0.0)
    weeks, days = synth_campaign(scenario)
    result = run_campaign(weeks, days, bundled_cell)
    assert all(w.accepted for w in result.weekly)
    for w in result.weekly:
        assert w.report.sratio == 1.0
        assert w.report.bsratio == 1.0


def test_constant_deposition_campaign_is_monotone(bundled_cell):
    scenario = CampaignScenario(weeks=10, deposition_per_week=0.02, seed=13)
    weeks, days = synth_campaign(scenario)
    result = run_campaign(weeks, days, bundled_cell)
    asts = [w.ast_full for w in result.weekly]
    assert all(b < a for a, b in zip(asts, asts[1:]))
    fit = soiling_rate_fit(result)
    assert fit.slope_per_week < 0.0
    assert fit.r2 > 0.9


def test_rain_week_recovers_next_week(bundled_cell):
    from soilspec import RainEvent

    scenario = CampaignScenario(
        weeks=6, deposition_per_week=0.04, seed=2,
        rain_weeks=(RainEvent(week=3, wash_fraction=0.95),),
    )
    weeks, days = synth_campaign(scenario)
    result = run_campaign(weeks, days, bundled_cell)
    asts = {w.week_id: w.ast_full for w in result.weekly}
    # build-up through week 3, then the wash snaps the series back toward 1
    assert asts[3] < asts[2] < asts[1]
    assert asts[4] > asts[3]
    assert asts[4] > asts[2]


def test_flat_campaign_is_spectrally_neutral(toy2j):
    weeks = [measurement([0.7, 0.7, 0.7], week_id=i + 1,
                          scan_date=DATE + dt.timedelta(days=7 * i))
             for i in range(3)]
    days = [clear_day(w.scan_date) for w in weeks]
    result = run_campaign(weeks, days, toy2j)
    for w in result.weekly:
        assert w.report.ssratio == pytest.approx(1.0, rel=1e-12)
        assert w.report.smratio == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# soiling rate and fits
# ---------------------------------------------------------------------------

def _result_from_ast_series(values, start_week=1):
    outcomes = tuple(
        WeeklyOutcome(
            week_id=start_week + i,
            scan_date=DATE + dt.timedelta(days=7 * i),
            accepted=True, rejection_reason=None, spectra_date=None,
            tau=None, report=None, ast_full=v, ast_by_band=None,
        )
        for i, v in enumerate(values)
    )
    return CampaignResult(weekly=outcomes, summary={}, ast_band_names=("MJ",),
                          aggregation="daily", cell_name="x")


def test_soiling_rate_exact_line():
    # the campaign-style dry stretch: 0.977 down to 0.871 over 8 weeks
    series = np.linspace(0.977, 0.871, 8)
    fit = soiling_rate_fit(_result_from_ast_series(series, start_week=28))
    assert fit.slope_per_week == pytest.approx((0.871 - 0.977) / 7, rel=1e-9)
    assert fit.slope_per_week == pytest.approx(-0.0151, abs=1e-4)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert not fit.degenerate


def test_soiling_rate_constant_series_flagged():
    fit = soiling_rate_fit(_result_from_ast_series([0.9] * 5))
    assert fit.slope_per_week == 0.0 and fit.r2 == 0.0 and fit.degenerate


def test_soiling_rate_too_few_points():
    with pytest.raises(TooFewPoints):
        soiling_rate_fit(_result_from_ast_series([0.9, 0.89]))


def test_soiling_rate_week_range():
    series = list(np.linspace(0.99, 0.95, 5)) + [0.99, 0.98, 0.97]
    fit = soiling_rate_fit(_result_from_ast_series(series), week_range=(1, 5))
    assert fit.n == 5
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_campaign_fits_on_synthetic_campaign(bundled_cell):
    scenario = CampaignScenario(weeks=8, deposition_per_week=0.03, seed=5)
    weeks, days = synth_campaign(scenario, bundled_cell)
    result = run_campaign(weeks, days, bundled_cell)
    fits = campaign_fits(result)
    assert set(fits) == {
        "sratio_vs_ast_MJ", "bsratio_vs_ast_MJ", "ssratio_vs_ast_MJ",
        "smratio_vs_ast_MJ", "ast_top_over_mid_vs_ast_MJ",
        "ast_top_over_bot_vs_ast_MJ",
    }
    assert fits["bsratio_vs_ast_MJ"]["r2"] > 0.95
    assert fits["sratio_vs_ast_MJ"]["n"] == 8


# ---------------------------------------------------------------------------
# file I/O round trip
# ---------------------------------------------------------------------------

def test_campaign_dir_round_trip(tmp_path, bundled_cell):
    scenario = CampaignScenario(weeks=3, deposition_per_week=0.02, seed=77)
    weeks, days = synth_campaign(scenario)
    out = write_campaign_dir(weeks, days, tmp_path / "campaign")
    loaded_weeks, loaded_days = load_campaign_dir(out)

    assert [w.week_id for w in loaded_weeks] == [1, 2, 3]
    assert [w.scan_date for w in loaded_weeks] == [w.scan_date for w in weeks]
    for orig, back in zip(weeks, loaded_weeks):
        for a, b in zip(orig.soiled_scans, back.soiled_scans):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.wavelengths_nm, b.wavelengths_nm)
    assert [d.date for d in loaded_days] == [d.date for d in days]
    for orig, back in zip(days, loaded_days):
        assert len(orig.records) == len(back.records)
        for a, b in zip(orig.spectral_records, back.spectral_records):
            np.testing.assert_array_equal(a.spectral_dni.values,
                                          read_spectrum_csv(b.spectral_dni).values)
        assert back.records[0].pm10 == orig.records[0].pm10

    # identical campaign results from the round-tripped inputs
    direct = run_campaign(weeks, days, bundled_cell)
    reloaded = run_campaign(loaded_weeks, loaded_days, bundled_cell)
    assert direct.to_json() == reloaded.to_json()
    # and from freshly loaded ones, whose field spectra are read by the run
    for aggregation in Aggregation:
        direct = run_campaign(weeks, days, bundled_cell, aggregation)
        reloaded = run_campaign(*load_campaign_dir(out), bundled_cell, aggregation)
        assert direct.to_json() == reloaded.to_json()


def test_loaded_field_spectrum_is_read_on_first_access(tmp_path, bundled_cell):
    weeks, days = synth_campaign(CampaignScenario(weeks=1, deposition_per_week=0.02))
    out = write_campaign_dir(weeks, days, tmp_path / "campaign")
    expected = run_campaign(weeks, days, bundled_cell, Aggregation.NOON).to_json()
    spectra = sorted((out / "spectra").iterdir())
    noon = out / "spectra" / f"{days[0].date.isoformat()}T12-00.csv"
    assert noon in spectra and len(spectra) == len(days[0].spectral_records)
    for path in spectra:
        if path != noon:
            path.unlink()  # no week of a NOON run uses these
    result = run_campaign(*load_campaign_dir(out), bundled_cell, Aggregation.NOON)
    assert result.to_json() == expected
    noon.unlink()
    loaded = load_campaign_dir(out)
    with pytest.raises(FileNotFoundError, match=noon.name):
        run_campaign(*loaded, bundled_cell, Aggregation.NOON)


def test_loaded_field_records_hold_their_spectrum_paths(tmp_path, monkeypatch):
    weeks, days = synth_campaign(CampaignScenario(weeks=2, deposition_per_week=0.02))
    out = write_campaign_dir(weeks, days, tmp_path / "campaign")
    _, loaded = load_campaign_dir(out)
    _, again = load_campaign_dir(out)
    for day in loaded:
        assert len(day.spectral_records) == 7
        assert [r.spectral_dni for r in day.spectral_records] == [
            out / f"spectra/{r.timestamp.strftime('%Y-%m-%dT%H-%M')}.csv"
            for r in day.spectral_records]
    assert not hasattr(loaded[0].records[0], "__dict__")

    def refuse(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(pipeline, "read_spectrum_csv", refuse)
    assert loaded == again
    assert repr(loaded) == repr(again)


def test_load_campaign_dir_empty(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    with pytest.raises(NoWeeksFound):
        load_campaign_dir(d)


def test_load_campaign_dir_manifest_override(tmp_path):
    scenario = CampaignScenario(weeks=2, deposition_per_week=0.02, seed=1)
    weeks, days = synth_campaign(scenario)
    out = write_campaign_dir(weeks, days, tmp_path / "c")
    (out / "manifest.yaml").write_text(
        "start_date: 2017-01-02\n"
        "cadence_days: 7\n"
        "weeks:\n"
        "  - {week_id: 2, scan_date: 2017-01-11}\n"
    )
    loaded_weeks, _ = load_campaign_dir(out)
    assert loaded_weeks[0].scan_date == dt.date(2017, 1, 2)
    assert loaded_weeks[1].scan_date == dt.date(2017, 1, 11)


def test_load_campaign_dir_warns_on_short_coverage(tmp_path):
    weeks = [measurement([0.9, 0.9, 0.9])]  # scans span [300, 900] only
    out = write_campaign_dir(weeks, [], tmp_path / "c")
    with pytest.warns(UserWarning, match="convention"):
        load_campaign_dir(out)


@pytest.fixture(scope="module")
def six_weeks(tmp_path_factory):
    weeks, days = synth_campaign(CampaignScenario(weeks=6, deposition_per_week=0.02, seed=3))
    return write_campaign_dir(weeks, days, tmp_path_factory.mktemp("six") / "campaign")


@pytest.mark.parametrize("aggregation", list(Aggregation))
def test_streamed_campaign_holds_one_week_of_scans(six_weeks, bundled_cell, monkeypatch,
                                                   aggregation):
    expected = run_campaign(*load_campaign_dir(six_weeks), bundled_cell, aggregation).to_json()
    scans, spectra, alive_scans = [], [], []
    read = pipeline.read_spectrum_csv

    def tracked(path):
        s = read(path)
        if path.parent == six_weeks:
            scans.append(weakref.ref(s))
            gc.collect()
            alive_scans.append(sum(r() is not None for r in scans))
        else:
            spectra.append(weakref.ref(s))
        return s

    monkeypatch.setattr(pipeline, "read_spectrum_csv", tracked)
    weeks, days = open_campaign_dir(six_weeks)
    assert scans == []  # opening reads no scan
    result = run_campaign(weeks, days, bundled_cell, aggregation)
    assert result.to_json() == expected
    assert len(alive_scans) == 36 and max(alive_scans) == 6
    gc.collect()
    assert len(spectra) == (6 if aggregation is Aggregation.NOON else 42)
    assert sum(r() is not None for r in spectra) == 0 and len(days) == 6


def test_campaign_outcomes_do_not_depend_on_week_order(bundled_cell):
    weeks, days = synth_campaign(CampaignScenario(weeks=6, deposition_per_week=0.02, seed=4))
    weeks.append(measurement([0.90, 0.95, 0.99], week_id=7))  # a rejected week
    shuffled = list(weeks)
    random.Random(1).shuffle(shuffled)
    expected = run_campaign(weeks, days, bundled_cell)
    assert [w.accepted for w in expected.weekly] == [True] * 6 + [False]
    for order in (list(reversed(weeks)), shuffled, (w for w in reversed(weeks))):
        result = run_campaign(order, days, bundled_cell)
        assert result.to_json() == expected.to_json()
        assert result.weekly_csv() == expected.weekly_csv()


def _spectrum_files(out, day):
    """(record, spectrum file) pairs of a written day, as its field CSV names them."""
    rows = (out / f"field_{day.date.isoformat()}.csv").read_text().splitlines()[1:]
    return [(r, out / row.rsplit(",", 1)[1])
            for r, row in zip(day.records, rows) if r.spectral_dni is not None]


def test_campaign_dir_formats_each_shared_spectrum_once(tmp_path, monkeypatch):
    weeks, days = synth_campaign(CampaignScenario(weeks=3, deposition_per_week=0.02, seed=5))
    formats = []
    csv_text = pipeline.spectrum_csv_text

    def counted_text(s):
        formats.append(s)
        return csv_text(s)

    monkeypatch.setattr(pipeline, "spectrum_csv_text", counted_text)
    out = write_campaign_dir(weeks, days, tmp_path / "campaign")
    assert len(formats) == 7  # the seven hourly spectra the 3 days share, not 21
    # The scans are written by the helper process, so they are checked on disk.
    scan_files = {out / f"week{m.week_id:02d}_{role}_{rep}.csv": scan
                  for m in weeks
                  for role, scans in (("soiled", m.soiled_scans), ("control", m.control_scans))
                  for rep, scan in enumerate(scans, start=1)}
    assert sorted(out.glob("week*_*.csv")) == sorted(scan_files) and len(scan_files) == 18
    for path, scan in scan_files.items():
        assert path.read_text(encoding="utf-8") == csv_text(scan), path.name
    pairs = [pair for day in days for pair in _spectrum_files(out, day)]
    assert sorted(path for _, path in pairs) == sorted((out / "spectra").iterdir())
    assert len(pairs) == 21
    for record, path in pairs:
        write_spectrum_csv(record.spectral_dni, tmp_path / "alone.csv")
        assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes(), path.name


def test_sub_minute_records_get_spectrum_files_of_their_own(tmp_path):
    times = [dt.time(11, 59), dt.time(12, 0), dt.time(12, 0, 30),
             dt.time(12, 0, 30, 250000), dt.time(12, 1, 0, 500000)]
    records = tuple(
        FieldRecord(timestamp=dt.datetime.combine(DATE, t), dni=800.0, gni=1000.0,
                    spectral_dni=flat_spectrum(300.0, 900.0, 1.0 + i))
        for i, t in enumerate(times))
    path = write_field_day(FieldDay(date=DATE, records=records), tmp_path)
    assert sorted(p.name for p in (tmp_path / "spectra").iterdir()) == [
        "2017-01-02T11-59.csv", "2017-01-02T12-00-30-250000.csv", "2017-01-02T12-00-30.csv",
        "2017-01-02T12-00.csv", "2017-01-02T12-01-00-500000.csv",
    ]
    back = read_field_csv(path)
    assert [r.timestamp for r in back.records] == [r.timestamp for r in records]
    for orig, loaded in zip(records, back.records):
        np.testing.assert_array_equal(read_spectrum_csv(loaded.spectral_dni).values,
                                      orig.spectral_dni.values)


def test_spectrum_file_name_clash_across_an_offset_change_is_refused(tmp_path):
    day = dt.date(2017, 11, 5)
    stamps = [dt.datetime(2017, 11, 5, 1, 30, tzinfo=dt.timezone(dt.timedelta(hours=h)))
              for h in (-4, -5)]
    records = tuple(FieldRecord(timestamp=ts, dni=800.0, gni=1000.0,
                                spectral_dni=flat_spectrum(300.0, 900.0, 1.0))
                    for ts in stamps)
    out = tmp_path / "c"
    with pytest.raises(ValueError, match="2017-11-05") as info:
        write_campaign_dir([], [FieldDay(date=day, records=records)], out)
    assert all(ts.isoformat() in str(info.value) for ts in stamps)
    assert not list(out.rglob("*"))


def test_spectrum_file_name_clash_is_refused_before_any_scan_is_written(tmp_path):
    stamps = [dt.datetime(2017, 11, 5, 1, 30, tzinfo=dt.timezone(dt.timedelta(hours=h)))
              for h in (-4, -5)]
    clash = FieldDay(date=dt.date(2017, 11, 5), records=tuple(
        FieldRecord(timestamp=ts, dni=800.0, gni=1000.0,
                    spectral_dni=flat_spectrum(300.0, 900.0, 1.0)) for ts in stamps))
    weeks = [measurement([0.9] * 3, week_id=w) for w in range(3)]
    out = tmp_path / "c"
    with pytest.raises(ValueError, match="2017-11-05"):
        write_campaign_dir(weeks, [clear_day(DATE), clash], out)
    assert not list(out.rglob("*"))


@pytest.mark.parametrize("weeks, days, fragment", [
    ([measurement([0.9] * 3, week_id=-1)], [], "week id -1"),
    ([measurement([0.9] * 3, week_id=1), measurement([0.8] * 3, week_id=1)], [], "week id 1 "),
    ([measurement([0.9] * 3)], [clear_day(DATE), clear_day(DATE, (2.0,))], "2017-01-02"),
], ids=["negative-week-id", "duplicate-week-id", "duplicate-field-day"])
def test_campaign_dir_refuses_what_the_loader_would_drop(tmp_path, weeks, days, fragment):
    out = tmp_path / "c"
    with pytest.raises(ValueError, match=fragment):
        write_campaign_dir(weeks, days, out)
    assert not out.exists()
