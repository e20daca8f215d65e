import dataclasses
import datetime as dt
import functools
import gc
import json
import math
import multiprocessing
import operator
import os
import random
import re
import struct
import tempfile
import unittest.mock
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from soilspec import (
    Aggregation,
    CampaignResult,
    CampaignScenario,
    FieldDay,
    FieldRecord,
    IndexReport,
    Kind,
    SoilingModel,
    Spectrum,
    WeeklyMeasurement,
    ast,
    boxcar_cell,
    index_report,
    is_cloudy,
    load_campaign_dir,
    load_scenario,
    run_campaign,
    select_spectra,
    soiling_rate_fit,
    soiling_transmittance,
    synth_campaign,
    synth_tau,
    validate_week,
    write_campaign_dir,
)
from soilspec.errors import (
    IncompleteReplicates,
    NoClearDay,
    NoIrradianceRecords,
    NoWeeksFound,
    SoilspecError,
    TooFewPoints,
)
from soilspec import pipeline
from soilspec.pipeline import CLOUDY_THRESHOLD, WeeklyOutcome, campaign_fits, read_field_csv
from soilspec.spectral import (
    read_spectrum_csv,
    sample_on_union,
    spectrum_csv_text,
    write_spectrum_csv,
)

from conftest import bundled_tau, flat_spectrum, linear_spectrum, mixed_grid_day, spectra_sha256

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


def test_accepted_tau_frozen_values(demo_weeks, bundled_cell):
    # The demo weeks' replicate curves share one grid; the offset week's
    # scans each have their own, so no replicate is on the union grid.
    taus = [validate_week(m, bundled_cell).tau for m in demo_weeks]
    assert spectra_sha256(taus) == (
        "0d57ce65290a2dc5c654af2fc2611ba8612cce9112aa7e984052ff4250806b4a")
    offset = WeeklyMeasurement(
        week_id=1, scan_date=DATE,
        soiled_scans=tuple(synth_tau(SoilingModel(k=0.3, alpha=1.2),
                                     np.arange(297.0 + i, 1830.0, 4.0 + i)) for i in range(3)),
        control_scans=tuple(synth_tau(SoilingModel(k=0.01, alpha=1.0),
                                      np.arange(296.5 + i, 1830.0, 5.0 + i)) for i in range(3)),
    )
    assert spectra_sha256([validate_week(offset, bundled_cell).tau]) == (
        "090e31ad12fed1de02c1f6901f057a9f9bb640f0a767625cdf39341e615c7b1a")


def _public_route(m, cell, reads):
    """validate_week's result through the per-pair public functions, reading
    each scan held as a path (its name appended to ``reads``) with its pair:
    soiling_transmittance of each pair, ast of each tau, and the mean of the
    taus on their sample_on_union grid. Raises the first error they raise."""
    short = []

    def scan(held):
        if not isinstance(held, Path):
            return held
        reads.append(held.name)
        s = read_spectrum_csv(held)
        lo, hi = s.support
        if lo > pipeline.SCAN_COVERAGE_NM[0] or hi < pipeline.SCAN_COVERAGE_NM[1]:
            short.append(held.name)
        return s

    pairs = [soiling_transmittance(scan(s), scan(c))
             for s, c in zip(m.soiled_scans, m.control_scans)]
    asts = tuple(ast(p.tau, cell.full_band) for p in pairs)
    spread = max(asts) - min(asts)
    tau = None
    if spread <= pipeline.SPREAD_THRESHOLD:
        grid, sampled = sample_on_union([p.tau for p in pairs])
        tau = Spectrum(grid, np.mean(sampled, axis=0), Kind.TRANSMITTANCE)
    return (asts, spread, tau, tuple(p.noisy for p in pairs), tuple(p.clamped for p in pairs),
            tuple(short))


_TOY = boxcar_cell([("top", 300.0, 700.0), ("mid", 700.0, 900.0)])
_FAULTS = ("floor", "kind", "overlap", "short")


def _replicate_scans(layout, seed, fault, hit):
    """Six coupon scans, soiled and control of each pair in turn, on a grid
    that spans the toy cell's [300, 900] nm full band:

    * ``one-array``: every scan holds one grid array;
    * ``copies``: every scan holds an equal copy of it;
    * ``two-grids``: the soiled scans hold one grid and the control scans
      another, so each pair's union grid is the same;
    * ``pair-grids``: each pair holds a grid of its own.

    ``fault`` damages the pairs in ``hit``: a control value below the floor,
    a soiled or control scan of the wrong kind, a control scan that does not
    overlap its soiled scan, or scans that end short of the full band."""
    rng = np.random.default_rng(seed)
    step = float(rng.choice([5.0, 7.5, 10.0]))
    hi = float(rng.choice([950.0, 2000.0]))
    cut = 850.0 if fault == "short" else np.inf
    base = np.arange(300.0 - step, hi + step, step)
    level = rng.uniform(0.9, 0.99)
    jitter = float(rng.choice([0.0005, 0.01]))
    shared = Spectrum(base, np.ones(base.size), Kind.TRANSMITTANCE)
    scans = []
    for j in range(3):
        grids = {"one-array": (base, base), "copies": (base.copy(), base.copy()),
                 "two-grids": (base, base - step / 3), "pair-grids": (base - j, base - j)}[layout]
        if fault == "short" and j in hit:
            grids = [g[g <= cut] for g in grids]
        gs, gc = grids
        control = rng.uniform(0.3, 1.0, gc.size)
        ratio = level + rng.normal(0.0, jitter) + rng.normal(0.0, 0.02, gs.size)
        soiled = np.clip(np.interp(gs, gc, control) * ratio, 0.0, 1.02)
        kinds = [Kind.TRANSMITTANCE, Kind.TRANSMITTANCE]
        if j in hit:
            if fault == "floor":
                control[gc.size // 2] = 0.04
            elif fault == "kind":
                kinds[seed % 2] = Kind.IRRADIANCE
            elif fault == "overlap":
                gc = np.arange(2100.0, 2200.0, step)
                control = rng.uniform(0.3, 1.0, gc.size)
        for g, v, kind in zip((gs, gc), (soiled, control), kinds):
            same = layout == "one-array" and g is base and kind is Kind.TRANSMITTANCE
            scans.append(shared.with_values(v) if same else Spectrum(g, v, kind))
    return scans


@settings(max_examples=80, deadline=None)
@given(layout=st.sampled_from(["one-array", "copies", "two-grids", "pair-grids"]),
       seed=st.integers(0, 2**32 - 1), fault=st.none() | st.sampled_from(_FAULTS),
       hit=st.sets(st.integers(0, 2), min_size=1), as_files=st.booleans())
def test_validate_week_matches_the_per_pair_public_route(layout, seed, fault, hit, as_files):
    scans = _replicate_scans(layout, seed, fault, hit)
    with tempfile.TemporaryDirectory() as tmp:
        if as_files:
            held = []
            for i, s in enumerate(scans):
                held.append(Path(tmp, f"week01_{('soiled', 'control')[i % 2]}_{i // 2 + 1}.csv"))
                write_spectrum_csv(s, held[-1])
            scans = held
        m = WeeklyMeasurement(1, DATE, scans[0::2], scans[1::2])
        expected_reads, reads = [], []

        def read(path):
            reads.append(path.name)
            return read_spectrum_csv(path)

        try:
            expected = _public_route(m, _TOY, expected_reads)
        except SoilspecError as exc:
            expected = exc
        with unittest.mock.patch.object(pipeline, "read_spectrum_csv", read):
            if isinstance(expected, SoilspecError):
                with pytest.raises(type(expected)) as raised:
                    validate_week(m, _TOY)
                assert str(raised.value) == str(expected)
                assert reads == expected_reads
                return
            v = validate_week(m, _TOY)
    assert fault is None
    asts, spread, tau, noisy, clamped, short = expected
    assert reads == expected_reads
    assert [a.hex() for a in v.replicate_ast] == [a.hex() for a in asts]
    assert v.spread.hex() == spread.hex()
    assert (v.accepted, v.reason) == ((True, None) if tau is not None else (False, "SpreadExceeded"))
    if tau is not None:
        assert v.tau.wavelengths_nm.tobytes() == tau.wavelengths_nm.tobytes()
        assert v.tau.values.tobytes() == tau.values.tobytes()
        assert (v.tau.kind, v.tau.units) == (tau.kind, tau.units)
    else:
        assert v.tau is None
    assert (v.noisy_samples, v.clamped_samples, v.short_scans) == (noisy, clamped, short)


# ---------------------------------------------------------------------------
# field days
# ---------------------------------------------------------------------------

COLUMNS = ("dni", "gni", "ghi", "dhi", "rainfall_mm", "pm10", "pm25")


def test_field_day_holds_its_rows_as_columns():
    day = clear_day(DATE, (1.0, 2.0, 3.0))
    assert day.timestamps == tuple(r.timestamp for r in day.records)
    assert day.spectra == tuple(r.spectral_dni for r in day.records)
    for name in COLUMNS:
        values = getattr(day, name)
        assert values.dtype == np.float64 and not values.flags.writeable
    np.testing.assert_array_equal(day.dni, [800.0] * 3)
    assert np.isnan(day.pm10).all() and all(r.pm10 is None for r in day.records)
    assert day.spectral_records == day.records
    same = FieldDay.from_columns(DATE, day.timestamps, day.spectra,
                                 **{name: getattr(day, name) for name in COLUMNS})
    assert same == day and FieldDay(DATE, day.records) == day
    assert repr(same) == repr(day) and hash(same) == hash(day)
    assert repr(day).startswith("FieldDay(date=datetime.date(2017, 1, 2), records=(FieldRecord(")
    assert day != FieldDay(DATE, day.records[:2])
    assert day != FieldDay(DATE, [dataclasses.replace(day.records[0], pm25=1.0),
                                  *day.records[1:]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        day.dni = day.gni
    with pytest.raises(ValueError):
        day.dni[0] = 0.0


@pytest.mark.parametrize("name, value, message", [
    ("dni", -1.0, "dni must be finite and >= 0, got -1.0"),
    ("gni", math.inf, "gni must be finite and >= 0, got inf"),
    ("ghi", math.nan, "ghi must be finite and >= 0, got nan"),
    ("dhi", -1e-300, "dhi must be finite and >= 0, got -1e-300"),
    ("rainfall_mm", math.nan, "rainfall_mm must be finite and >= 0 when given, got nan"),
    ("pm10", -5.0, "pm10 must be finite and >= 0, got -5.0"),
    ("pm25", math.inf, "pm25 must be finite and >= 0, got inf"),
])
def test_field_day_refuses_a_value_its_record_does_not_check(name, value, message):
    records = list(clear_day(DATE, (1.0, 2.0, 3.0)).records)
    records[1] = dataclasses.replace(records[1], **{name: value})  # a bare record takes it
    with pytest.raises(ValueError, match=re.escape(message)):
        FieldDay(DATE, records)


@pytest.mark.parametrize("stamp, rule", [
    (dt.datetime(2017, 1, 2, 13, tzinfo=dt.timezone.utc), "all naive or all tz-aware"),
    (dt.datetime(2017, 1, 3, 13), "does not belong to day 2017-01-02"),
    (dt.datetime(2017, 1, 2, 12), "strictly increasing"),
    (dt.datetime(2017, 1, 2, 11), "strictly increasing"),
], ids=["aware-among-naive", "off-the-day", "repeated", "decreasing"])
def test_field_day_names_the_first_record_that_breaks_a_timestamp_rule(stamp, rule):
    records = list(clear_day(DATE, (1.0, 2.0, 3.0)).records)  # 12:00, 13:00, 14:00
    records[1] = dataclasses.replace(records[1], timestamp=stamp)
    with pytest.raises(ValueError, match=f"field day 2017-01-02, record 1: .*{rule}"):
        FieldDay(DATE, records)


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


def test_is_cloudy_sums_left_to_right(tmp_path):
    # 4 plus fifteen half-ulps of 4 stays 4 summed left to right, while
    # pairwise sums gather the half-ulps first and come out above 4, so
    # DNI/GNI is 0.75 (clear) one way and just below it (cloudy) the other.
    ts = dt.datetime.combine(DATE, dt.time(8, 0))
    gni = [4.0] + [2.0**-51] * 15
    dni = [3.0] + [0.0] * 15
    records = [FieldRecord(timestamp=ts + dt.timedelta(minutes=5 * i), dni=d, gni=g)
               for i, (d, g) in enumerate(zip(dni, gni))]
    left_to_right = functools.reduce(operator.add, dni) / functools.reduce(operator.add, gni)
    assert left_to_right == CLOUDY_THRESHOLD
    assert np.sum(dni) / np.sum(gni) < CLOUDY_THRESHOLD
    day = FieldDay(date=DATE, records=records)
    write_campaign_dir([], [day], tmp_path)
    read = read_field_csv(tmp_path / f"field_{DATE.isoformat()}.csv")
    assert read == day
    assert is_cloudy(day) is False and is_cloudy(read) is False


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


def test_select_refuses_two_field_days_of_one_date_in_either_order():
    clear, cloudy = clear_day(DATE), cloudy_day(DATE)
    for days in ([cloudy, clear], [clear, cloudy]):
        with pytest.raises(ValueError, match=f"field day {DATE} appears more than once"):
            select_spectra(DATE, days)
    assert select_spectra(DATE, {DATE: clear}) is clear  # a mapping is used as given


def bare_day(date, dni, gni):
    """A field day of one noon record without a spectrum."""
    ts = dt.datetime.combine(date, dt.time(12, 0))
    return FieldDay(date=date, records=(FieldRecord(timestamp=ts, dni=dni, gni=gni),))


def test_select_skips_a_neighbour_without_irradiance():
    # the day before has no record with GNI > 0, so no clear-sky test applies
    days = [cloudy_day(DATE), bare_day(DATE - dt.timedelta(days=1), 0.0, 0.0),
            clear_day(DATE + dt.timedelta(days=1))]
    assert select_spectra(DATE, days).date == DATE + dt.timedelta(days=1)


def test_select_skips_a_neighbour_outside_the_calendar():
    first, last = dt.date.min, dt.date.max
    days = [cloudy_day(first), clear_day(first + dt.timedelta(days=1))]
    assert select_spectra(first, days).date == first + dt.timedelta(days=1)
    with pytest.raises(NoClearDay):
        select_spectra(last, [cloudy_day(last)])


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


def test_zero_soiled_stack_current_rejects_week(bundled_cell):
    weeks, days = _zero_top_week_campaign()
    result = run_campaign(weeks, days, bundled_cell)
    assert [(w.accepted, w.rejection_reason) for w in result.weekly] == [
        (True, None), (False, "ZeroCurrent"), (True, None)]
    # the rejected week keeps its tau-side values
    assert result.weekly[1].ast_by_band["top"] == 0.0


def _week2_field_spectra_scaled(factor):
    """A three-week campaign whose week-2 field spectra are multiplied by
    ``factor(wavelengths_nm)``."""
    weeks, days = synth_campaign(
        CampaignScenario(weeks=3, deposition_per_week=0.02, noise_sigma=0.0))
    day = select_spectra(weeks[1].scan_date, days)
    scaled = FieldDay(day.date, tuple(
        dataclasses.replace(r, spectral_dni=r.spectral_dni.with_values(
            r.spectral_dni.values * factor(r.spectral_dni.wavelengths_nm)))
        if r.spectral_dni is not None else r
        for r in day.records))
    return weeks, [scaled if d is day else d for d in days]


@pytest.mark.parametrize("aggregation, scale", [
    pytest.param(Aggregation.NOON, 1e306, id="noon"),
    pytest.param(Aggregation.DAILY_CURRENT_WEIGHTED, 1e306, id="daily"),
    pytest.param(Aggregation.NOON, 1e308, id="noon-1e308"),
    pytest.param(Aggregation.DAILY_CURRENT_WEIGHTED, 1e308, id="daily-1e308"),
])
def test_overflowing_field_spectra_reject_the_week(bundled_cell, aggregation, scale):
    # week 2's field day: finite spectra whose broadband integrals overflow
    weeks, days = _week2_field_spectra_scaled(lambda wl: scale)
    with np.errstate(over="ignore"):
        result = run_campaign(weeks, days, bundled_cell, aggregation)
    assert [(w.accepted, w.rejection_reason) for w in result.weekly] == [
        (True, None), (False, "NonFiniteIndex"), (True, None)]
    json.dumps(result.to_json_dict(), allow_nan=False)


@pytest.mark.parametrize("aggregation", list(Aggregation))
def test_negative_field_spectra_reject_the_week(bundled_cell, aggregation):
    # week 2's field day: spectra negated below 720 nm, so its SMRs are negative
    weeks, days = _week2_field_spectra_scaled(lambda wl: np.where(wl < 720.0, -1.0, 1.0))
    result = run_campaign(weeks, days, bundled_cell, aggregation)
    assert [(w.accepted, w.rejection_reason) for w in result.weekly] == [
        (True, None), (False, "NegativeIndex"), (True, None)]


@pytest.mark.parametrize("aggregation", list(Aggregation))
def test_clear_day_without_spectral_records_rejects_the_week(toy2j, aggregation):
    # the scan day is cloudy and the day before has no spectral record
    weeks = [measurement([0.85, 0.85, 0.85])]
    before = DATE - dt.timedelta(days=1)
    days = [cloudy_day(DATE), bare_day(before, 800.0, 1000.0)]
    week = run_campaign(weeks, days, toy2j, aggregation).weekly[0]
    assert week.rejection_reason == "NoSpectralData"
    assert week.spectra_date == before
    assert week.report is None
    tau = validate_week(weeks[0], toy2j).tau
    assert week.ast_by_band == {b.name: ast(tau, b) for b in toy2j.bands}


def test_run_campaign_refuses_two_field_days_of_one_date(bundled_cell):
    weeks, days = synth_campaign(CampaignScenario(weeks=2, deposition_per_week=0.02))
    with pytest.raises(ValueError, match=f"field day {days[0].date} appears more than once"):
        run_campaign(weeks[:2], days + [days[0]], bundled_cell, Aggregation.NOON)


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
    # validate_week raised, so the week has no noise counts and no short scans.
    week = result.weekly[0].to_json_dict()
    assert [week[k] for k in ("noisy_samples", "clamped_samples", "short_scans")] == [None] * 3


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

def _report_with_ast(v):
    return IndexReport(sratio=1.0, bsratio=1.0, ssratio=1.0, smr_cleaned=1.0,
                       smr_soiled=1.0, smratio=1.0, ast={"MJ": v},
                       limiting_cleaned="top", limiting_soiled="top")


def _result_from_ast_series(values, start_week=1):
    reports = [_report_with_ast(v) for v in values]
    outcomes = tuple(
        WeeklyOutcome(
            week_id=start_week + i,
            scan_date=DATE + dt.timedelta(days=7 * i),
            rejection_reason=None, spectra_date=None,
            tau=None, report=r, ast_by_band=r.ast,
        )
        for i, r in enumerate(reports)
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


@pytest.mark.filterwarnings("error")
def test_overflowing_fit_is_recorded_and_the_campaign_goes_on(bundled_cell):
    # six demo weeks whose soiled scans are dimmed by 1e-200 over 700-940 nm:
    # every week is accepted, but the ratios to the mid band's AST are about
    # 1e200, so the sums of squares of two fits overflow; sratio and ssratio
    # are about 1e-200, and their sums of squares underflow, yet they vary
    # (its rain weeks, 18 and 37, fall after the sixth and wash nothing before it)
    scenario = dataclasses.replace(
        load_scenario(str(Path(pipeline.__file__).parent / "data" / "demo_scenario.yaml")),
        weeks=6, rain_weeks=())
    weeks, days = synth_campaign(scenario, bundled_cell)

    def dim(s):
        return s.with_values(np.where((s.wavelengths_nm >= 700.0) & (s.wavelengths_nm <= 940.0),
                                      s.values * 1e-200, s.values))

    weeks = [WeeklyMeasurement(m.week_id, m.scan_date, tuple(map(dim, m.soiled_scans)),
                               m.control_scans) for m in weeks]
    result = run_campaign(weeks, days, bundled_cell)
    assert [w.accepted for w in result.weekly] == [True] * 6
    fits = campaign_fits(result)
    assert {key: fit.get("error") for key, fit in fits.items()} == {
        "sratio_vs_ast_MJ": None,
        "bsratio_vs_ast_MJ": None,
        "ssratio_vs_ast_MJ": None,
        "smratio_vs_ast_MJ": "NonFiniteStatistic",
        "ast_top_over_mid_vs_ast_MJ": "NonFiniteStatistic",
        "ast_top_over_bot_vs_ast_MJ": None,
    }
    for key in ("sratio_vs_ast_MJ", "ssratio_vs_ast_MJ"):
        assert fits[key]["r2"] > 0.99 and 0.0 < abs(fits[key]["slope"]) < 1e-199


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
            b = read_spectrum_csv(b)
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
    noon = {r.timestamp: path for r, path in _spectrum_files(out, days[0])}[
        dt.datetime.combine(days[0].date, dt.time(12))]
    assert noon in spectra and len(spectra) == 6  # 7 records; 11:00 and 13:00 share a text
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

    def refuse(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(pipeline, "read_spectrum_csv", refuse)
    loaded_weeks, loaded = load_campaign_dir(out)
    again_weeks, again = load_campaign_dir(out)
    for m in loaded_weeks:
        for role, scans in (("soiled", m.soiled_scans), ("control", m.control_scans)):
            assert scans == tuple(out / f"week{m.week_id:02d}_{role}_{rep}.csv"
                                  for rep in (1, 2, 3))
    assert loaded_weeks == again_weeks
    assert repr(loaded_weeks) == repr(again_weeks)
    # Files are numbered by text, first seen first; both days share the hourly spectra.
    first_seen = {}
    for day in days:
        for s in day.spectra:
            if s is not None:
                first_seen.setdefault(spectrum_csv_text(s), f"spectra/{len(first_seen) + 1}.csv")
    assert len(first_seen) == 6
    for day, held in zip(loaded, days):
        assert len(day.spectral_records) == 7
        assert [r.spectral_dni for r in day.spectral_records] == [
            out / first_seen[spectrum_csv_text(s)] for s in held.spectra if s is not None]
    assert not hasattr(loaded[0].records[0], "__dict__")
    assert loaded == again
    assert repr(loaded) == repr(again)


def test_loaded_campaign_dir_writes_back_byte_for_byte(tmp_path):
    weeks, days = synth_campaign(CampaignScenario(weeks=3, deposition_per_week=0.02, seed=8))
    first = write_campaign_dir(weeks, days, tmp_path / "first")
    second = write_campaign_dir(*load_campaign_dir(first), tmp_path / "second")
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert len(files) == 28  # 18 scans, 3 field files, 6 spectra, the manifest
    for rel in files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


_CELL_VALUE = st.floats(min_value=0.0, max_value=1.7976931348623157e308,
                        allow_nan=False, allow_infinity=False)


@st.composite
def _field_days(draw):
    """A field day of finite values >= 0, some optional cells empty, with
    sub-minute timestamps, naive or at one UTC offset, a few with a spectrum."""
    tz = draw(st.none() | st.integers(-14 * 60, 14 * 60).map(
        lambda m: dt.timezone(dt.timedelta(minutes=m))))
    micros = draw(st.lists(st.integers(0, 86_400_000_000 - 1), min_size=1, max_size=8,
                           unique=True))
    start = dt.datetime.combine(DATE, dt.time(), tz)
    spectrum = flat_spectrum(300.0, 900.0, 1.0)
    records = [
        FieldRecord(timestamp=start + dt.timedelta(microseconds=us),
                    dni=draw(_CELL_VALUE), gni=draw(_CELL_VALUE),
                    ghi=draw(_CELL_VALUE), dhi=draw(_CELL_VALUE),
                    rainfall_mm=draw(st.none() | _CELL_VALUE),
                    pm10=draw(st.none() | _CELL_VALUE), pm25=draw(st.none() | _CELL_VALUE),
                    spectral_dni=spectrum if draw(st.booleans()) else None)
        for us in sorted(micros)
    ]
    return FieldDay(DATE, records)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=60, deadline=None)
@given(day=_field_days())
def test_field_file_round_trip_is_exact(day):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        write_campaign_dir([], [day], first)
        name = f"field_{DATE.isoformat()}.csv"
        back = read_field_csv(first / name)
        rows = [line.split(",") for line in (first / name).read_text().splitlines()[1:]]
        assert len(rows) == len(day.timestamps)
        assert back.timestamps == day.timestamps
        assert [t.isoformat() for t in back.timestamps] == [row[0] for row in rows]
        for j, column in enumerate(COLUMNS, start=1):
            for value, original, row in zip(getattr(back, column).tolist(),
                                            getattr(day, column).tolist(), rows):
                if row[j] == "":
                    assert math.isnan(value) and math.isnan(original)
                else:
                    assert _bits(value) == _bits(float(row[j])) == _bits(original)
        assert [s is None for s in back.spectra] == [s is None for s in day.spectra]
        write_campaign_dir([], [back], second)
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        for rel in files:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


_FIELD_ROW = "2017-01-02T12:00:00,800.0,1000.0,750.0,200.0,,,,"


@pytest.mark.parametrize("text, message", [
    ("timestamp,dni\n" + _FIELD_ROW + "\n", "f.csv: expected header "),
    (pipeline.FIELD_HEADER + "\n", "f.csv: no records"),
    (pipeline.FIELD_HEADER + "\n" + _FIELD_ROW + "\n" + _FIELD_ROW[:-1] + "\n",
     "f.csv:3: expected 9 columns, got 8: "),
], ids=["wrong-header", "header-only", "short-row"])
def test_field_csv_fault_names_the_file_and_line(tmp_path, text, message):
    # _FIELD_ROW alone is a valid file body; the short row lacks its last, empty cell
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_field_csv(path)


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


def _scan_names(week_id):
    """A week's six scan file names, in the order validate_week reads them."""
    return tuple(f"week{week_id:02d}_{role}_{rep}.csv"
                 for rep in (1, 2, 3) for role in ("soiled", "control"))


@pytest.mark.filterwarnings("error")
def test_load_campaign_dir_warns_on_short_coverage(tmp_path, toy2j):
    weeks = [measurement([0.9, 0.9, 0.9])]  # scans span [300, 900] only
    out = write_campaign_dir(weeks, [], tmp_path / "c")
    loaded = load_campaign_dir(out)
    (week,) = run_campaign(*loaded, toy2j).weekly
    assert week.short_scans == _scan_names(1)
    assert week.to_json_dict()["short_scans"] == week.short_scans
    # Scans held in memory have no file to name.
    assert validate_week(weeks[0], toy2j).short_scans == ()


@pytest.fixture(scope="module")
def six_weeks(tmp_path_factory):
    weeks, days = synth_campaign(CampaignScenario(weeks=6, deposition_per_week=0.02, seed=3))
    return write_campaign_dir(weeks, days, tmp_path_factory.mktemp("six") / "campaign")


@pytest.mark.parametrize("aggregation", list(Aggregation))
def test_streamed_campaign_holds_one_week_of_scans(six_weeks, bundled_cell, monkeypatch,
                                                   tmp_path, aggregation):
    expected = run_campaign(*load_campaign_dir(six_weeks), bundled_cell, aggregation).to_json()
    # The weeks run in this process and a forked helper, so each process logs
    # its reads to one file, with the scans it holds after each scan read.
    log = tmp_path / "reads.log"
    scans, spectra = [], []
    read = pipeline.read_spectrum_csv

    def tracked(path):
        s = read(path)
        if path.parent == six_weeks:
            scans.append(weakref.ref(s))
            gc.collect()
            line = f"{os.getpid()} scan {sum(r() is not None for r in scans)}"
        else:
            spectra.append(weakref.ref(s))
            line = f"{os.getpid()} spectrum"
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return s

    monkeypatch.setattr(pipeline, "read_spectrum_csv", tracked)
    weeks, days = load_campaign_dir(six_weeks)
    assert not log.exists()  # loading reads no scan
    result = run_campaign(weeks, days, bundled_cell, aggregation)
    assert result.to_json() == expected
    reads = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    alive_scans = {}
    for pid, kind, *alive in reads:
        if kind == "scan":
            alive_scans.setdefault(pid, []).append(int(*alive))
    # Three weeks, 18 scans, in each process, which never holds more than two.
    assert len(alive_scans) == 2 and str(os.getpid()) in alive_scans
    assert [len(a) for a in alive_scans.values()] == [18, 18]
    assert [max(a) for a in alive_scans.values()] == [2, 2]
    gc.collect()
    n_spectra = sum(kind == "spectrum" for _, kind, *_ in reads)
    assert n_spectra == (6 if aggregation is Aggregation.NOON else 42)
    assert sum(r() is not None for r in spectra) == 0 and len(days) == 6


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the processes this process forks during the test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _in_memory(m):
    """A week with its scans read into memory."""
    return dataclasses.replace(m, soiled_scans=[read_spectrum_csv(p) for p in m.soiled_scans],
                               control_scans=[read_spectrum_csv(p) for p in m.control_scans])


@pytest.mark.parametrize("aggregation", list(Aggregation))
def test_two_process_campaign_equals_the_in_memory_run(six_weeks, bundled_cell, forks,
                                                       aggregation):
    weeks, days = load_campaign_dir(six_weeks)
    expected = run_campaign([_in_memory(m) for m in weeks], days, bundled_cell, aggregation)
    assert forks == []  # in-memory weeks start no process
    run_campaign(weeks[:1], days, bundled_cell, aggregation)
    assert forks == []  # nor does a single week
    result = run_campaign(weeks, days, bundled_cell, aggregation)
    assert len(forks) == 1 and multiprocessing.active_children() == []
    # Weeks 4 to 6 ran in the helper.
    assert [w.to_json_dict() for w in result.weekly] == [w.to_json_dict() for w in expected.weekly]
    assert result.to_json() == expected.to_json()
    assert result.weekly_csv() == expected.weekly_csv()
    taus = [w.tau for w in result.weekly[3:]]
    assert len(taus) == 3 and all(tau is not None for tau in taus)
    assert not any(t.wavelengths_nm.flags.writeable or t.values.flags.writeable for t in taus)


def _quality(result):
    """Each week's noise counts and short scans, as ``campaign.json`` holds them."""
    return [(w.week_id, w.noisy_samples, w.clamped_samples, w.short_scans)
            for w in result.weekly]


@pytest.mark.filterwarnings("error")
def test_campaign_without_fork_runs_in_one_process(tmp_path, toy2j, forks, monkeypatch):
    # Each replicate pair has one transmittance sample of 1.01, at 300 nm, and
    # its scans span [300, 900] only.
    soiled = linear_spectrum(300.0, 900.0, 0.909, 0.9)
    control = flat_spectrum(300.0, 900.0, 0.9, Kind.TRANSMITTANCE)
    weeks = [WeeklyMeasurement(k, DATE + dt.timedelta(days=7 * k), [soiled] * 3, [control] * 3)
             for k in (1, 2, 3, 4)]
    loaded = load_campaign_dir(write_campaign_dir(weeks, [], tmp_path / "c"))
    forks.clear()  # the scan writer's
    result = run_campaign(*loaded, toy2j)
    assert len(forks) == 1
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    expected = run_campaign(*loaded, toy2j)
    assert len(forks) == 1
    assert result.to_json() == expected.to_json()
    # Weeks 3 and 4 ran in the helper, and carry the same data as in one process.
    assert _quality(result) == _quality(expected) == [
        (k, (1, 1, 1), (0, 0, 0), _scan_names(k)) for k in (1, 2, 3, 4)]


@pytest.mark.filterwarnings("error")
def test_helper_week_warnings_reach_the_caller_in_order(tmp_path, toy2j, forks, monkeypatch):
    weeks = [measurement([0.9, 0.9, 0.9], week_id=k, scan_date=DATE + dt.timedelta(days=7 * k))
             for k in (1, 2, 3)]  # scans span [300, 900] only
    # Week 3's first pair has a ratio of 1.05, clamped, at 300 nm, so its spread is too wide.
    weeks[2] = dataclasses.replace(weeks[2], soiled_scans=[
        linear_spectrum(300.0, 900.0, 0.945, 0.81), *weeks[2].soiled_scans[1:]])
    out = write_campaign_dir(weeks, [], tmp_path / "c")
    loaded = load_campaign_dir(out)
    forks.clear()  # the scan writer's
    result = run_campaign(*loaded, toy2j)
    assert len(forks) == 1 and multiprocessing.active_children() == []
    assert [w.rejection_reason for w in result.weekly] == ["NoClearDay"] * 2 + ["SpreadExceeded"]
    # Week 3 ran in the helper; its scans are named in read order, as those of weeks 1 and 2.
    assert _quality(result) == [
        (k, (0, 0, 0), (1, 0, 0) if k == 3 else (0, 0, 0), _scan_names(k)) for k in (1, 2, 3)]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _quality(run_campaign(*loaded, toy2j)) == _quality(result)
    assert len(forks) == 1


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_campaign_dir_writer_without_fork_writes_the_same_tree_in_one_process(tmp_path, forks,
                                                                              monkeypatch):
    weeks, days = synth_campaign(CampaignScenario(weeks=5, deposition_per_week=0.02, seed=2))
    two = write_campaign_dir(weeks, days, tmp_path / "two")
    assert len(forks) == 1 and multiprocessing.active_children() == []
    write_campaign_dir([], days[:1], tmp_path / "days")
    assert len(forks) == 1  # no scans to share out, so no helper
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    one = write_campaign_dir(weeks, days, tmp_path / "one")
    assert len(forks) == 1
    assert len(_tree_bytes(one)) == 5 * 6 + 5 + 6 + 1  # the days share 6 spectrum texts
    assert _tree_bytes(one) == _tree_bytes(two)


@pytest.mark.parametrize("name", ["manifest.yaml", "field_2017-01-09.csv", "week04_soiled_1.csv",
                                  "spectra/1.csv"])
def test_campaign_dir_writer_refuses_a_dir_holding_campaign_files(tmp_path, name):
    out = tmp_path / "c"
    (out / name).parent.mkdir(parents=True)
    (out / name).write_text("old\n")
    (out / "notes.txt").write_text("kept\n")
    with pytest.raises(FileExistsError) as info:
        write_campaign_dir([measurement([0.9] * 3)], [clear_day(DATE)], out)
    assert str(out) in str(info.value) and name in str(info.value)
    assert sorted(_tree_bytes(out)) == sorted([name, "notes.txt"])
    assert (out / name).read_text() == "old\n"
    (out / name).unlink()
    write_campaign_dir([measurement([0.9] * 3)], [clear_day(DATE)], out)  # other files stay
    assert (out / "notes.txt").read_text() == "kept\n"


def test_campaign_dir_of_week_ids_far_apart_lists_its_weeks(tmp_path):
    weeks, days = synth_campaign(CampaignScenario(weeks=2, deposition_per_week=0.02, seed=1))
    weeks[1] = dataclasses.replace(weeks[1], week_id=10**9)
    out = write_campaign_dir(weeks, days, tmp_path / "c")
    manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["weeks"] == [{"week_id": m.week_id, "scan_date": m.scan_date.isoformat()}
                                 for m in weeks]
    loaded, _ = load_campaign_dir(out)
    assert [(m.week_id, m.scan_date) for m in loaded] == [(m.week_id, m.scan_date) for m in weeks]


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
    assert sorted({path for _, path in pairs}) == sorted((out / "spectra").iterdir())
    assert len(pairs) == 21 and len({path for _, path in pairs}) == 6
    for record, path in pairs:
        write_spectrum_csv(record.spectral_dni, tmp_path / "alone.csv")
        assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes(), path.name
    # Loaded, the 21 records hold 6 distinct paths: each is read and formatted once.
    formats.clear()
    reads = []
    read = pipeline.read_spectrum_csv
    monkeypatch.setattr(pipeline, "read_spectrum_csv",
                        lambda path: reads.append(path) or read(path))
    again = write_campaign_dir([], load_campaign_dir(out)[1], tmp_path / "again")
    assert len(formats) == 6 and sorted(reads) == sorted((out / "spectra").iterdir())
    field_files = [{rel: data for rel, data in _tree_bytes(root).items()
                    if rel.startswith(("field_", "spectra/"))} for root in (out, again)]
    assert field_files[0] == field_files[1] and len(field_files[0]) == 3 + 6


_SPECTRUM_VALUES = (1.0, 2.0, 3.0)
_SHARED = {v: flat_spectrum(300.0, 900.0, v) for v in _SPECTRUM_VALUES}


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(st.none() | st.tuples(st.sampled_from(_SPECTRUM_VALUES),
                                                    st.booleans()),
                              min_size=1, max_size=6),
                     min_size=1, max_size=3))
def test_equal_spectrum_texts_share_one_file_and_distinct_ones_never_do(rows):
    # Each record holds no spectrum, or a flat one of a drawn value: the one
    # object shared by every record that draws it, or an equal object of its own.
    def held(cell):
        if cell is None:
            return None
        value, shared = cell
        return _SHARED[value] if shared else flat_spectrum(300.0, 900.0, value)

    days = []
    for i, cells in enumerate(rows):
        date = DATE + dt.timedelta(days=i)
        days.append(FieldDay(date, tuple(
            FieldRecord(timestamp=dt.datetime.combine(date, dt.time(9 + j)), dni=800.0,
                        gni=1000.0, spectral_dni=held(cell))
            for j, cell in enumerate(cells))))
    with tempfile.TemporaryDirectory() as tmp:
        out = write_campaign_dir([], days, tmp)
        pairs = [(record.spectral_dni, path) for day in days
                 for record, path in _spectrum_files(out, day)]
        assert len(pairs) == sum(cell is not None for day in rows for cell in day)
        texts = [spectrum_csv_text(s) for s, _ in pairs]
        for (_, a), text_a in zip(pairs, texts):
            for (_, b), text_b in zip(pairs, texts):
                assert (a == b) == (text_a == text_b)
        first_seen = list(dict.fromkeys(path for _, path in pairs))
        assert first_seen == [out / f"spectra/{n}.csv" for n in range(1, len(first_seen) + 1)]
        assert sorted(first_seen) == sorted(out.glob("spectra/*"))
        for (_, path), text in zip(pairs, texts):
            assert path.read_text(encoding="utf-8") == text
        for day in days:
            back = read_field_csv(out / f"field_{day.date.isoformat()}.csv")
            assert back.timestamps == day.timestamps
            for held, orig in zip(back.spectra, day.spectra):
                assert (held is None) == (orig is None)
                if held is not None:
                    np.testing.assert_array_equal(read_spectrum_csv(held).values, orig.values)


def test_tz_aware_records_an_offset_change_apart_write_and_round_trip(tmp_path):
    # 01:30 at -04:00 and then at -05:00: one local clock time, an hour apart.
    stamps = [dt.datetime(2017, 11, 5, 1, 30, tzinfo=dt.timezone(dt.timedelta(hours=h)))
              for h in (-4, -5)]
    spectra = [flat_spectrum(300.0, 900.0, 1.0), flat_spectrum(300.0, 900.0, 2.0)]
    day = FieldDay(date=dt.date(2017, 11, 5), records=tuple(
        FieldRecord(timestamp=ts, dni=800.0, gni=1000.0, spectral_dni=s)
        for ts, s in zip(stamps, spectra)))
    weeks = [measurement([0.9] * 3, week_id=w, scan_date=day.date) for w in range(3)]
    out = write_campaign_dir(weeks, [day], tmp_path / "c")
    assert [path for _, path in _spectrum_files(out, day)] == [
        out / "spectra/1.csv", out / "spectra/2.csv"]
    _, (back,) = load_campaign_dir(out)
    assert back.timestamps == tuple(stamps)
    for held, orig in zip(back.spectra, spectra):
        np.testing.assert_array_equal(read_spectrum_csv(held).values, orig.values)


def test_unreadable_field_spectrum_fails_before_any_file_is_written(tmp_path):
    weeks, days = synth_campaign(CampaignScenario(weeks=4, deposition_per_week=0.02, seed=3))
    first = write_campaign_dir(weeks, days, tmp_path / "first")
    loaded = load_campaign_dir(first)
    missing = _spectrum_files(first, days[-1])[0][1]  # read after the other days'
    missing.unlink()
    out = tmp_path / "second"
    with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
        write_campaign_dir(*loaded, out)
    assert not out.exists()


# Of 4 weeks this process writes week 1's scans and the helper the others'.
@pytest.mark.parametrize("bad", ["week01_soiled_2.csv", "week04_control_2.csv"],
                         ids=["this-process", "helper"])
def test_failed_write_removes_every_file_it_wrote(tmp_path, bad):
    weeks, days = synth_campaign(CampaignScenario(weeks=4, deposition_per_week=0.02, seed=3))
    first = write_campaign_dir(weeks, days, tmp_path / "first")
    loaded = load_campaign_dir(first)
    (first / bad).write_text("oops", encoding="utf-8")
    out = tmp_path / "second"
    with pytest.raises(ValueError, match=re.escape(str(first / bad))):
        write_campaign_dir(*loaded, out)
    assert list(out.iterdir()) == []
    # what was there before stays: a spectra/ the writer did not make, a stray file
    (out / "spectra").mkdir()
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(str(first / bad))):
        write_campaign_dir(*loaded, out)
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["notes.txt",
                                                                              "spectra"]
    assert write_campaign_dir(weeks, days, out) == out  # and the dir is not refused


@pytest.mark.parametrize("weeks, days, fragment", [
    ([measurement([0.9] * 3, week_id=-1)], [], "week id -1"),
    ([measurement([0.9] * 3, week_id=1), measurement([0.8] * 3, week_id=1)], [], "week id 1 "),
    ([measurement([0.9] * 3)], [clear_day(DATE), clear_day(DATE, (2.0,))], "2017-01-02"),
    ([measurement([0.9] * 3, week_id=1), measurement([0.9] * 4, week_id=2)], [],
     "week id 2 has 4 soiled scans"),
    ([measurement([0.9] * 3, week_id=1), measurement([], week_id=3)], [],
     "week id 3 has no scans"),
], ids=["negative-week-id", "duplicate-week-id", "duplicate-field-day", "four-scans-of-a-role",
        "week-without-scans"])
def test_campaign_dir_refuses_what_the_loader_would_drop(tmp_path, weeks, days, fragment):
    out = tmp_path / "c"
    with pytest.raises(ValueError, match=fragment):
        write_campaign_dir(weeks, days, out)
    assert not out.exists()
