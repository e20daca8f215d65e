"""Weekly campaign procedure: ingest, filter, compute, summarize.

The campaign walks the measurement protocol: weekly triplicate coupon
scans are turned into a soiling transmittance (replicates whose
full-band average transmittance spreads by more than the rejection
threshold are dropped), the matching field day supplies the direct
spectral irradiance (cloudy days are substituted by a clear neighbour
within +/-1 day), and every accepted week yields an
:class:`~soilspec.metrics.IndexReport`.

Two aggregation modes are supported because sub-daily index values can
be collapsed into a weekly value in more than one defensible way:

* ``NOON``: the spectral record closest to 12:00 local clock time.
* ``DAILY_CURRENT_WEIGHTED`` (default): junction currents and broadband
  integrals are summed over all spectral records of the day before any
  ratio is formed, which matches how a fielded system accumulates
  charge. For a day with a single spectral record the two modes agree
  exactly. The integrals are linear in the irradiance, so they are
  evaluated once per distinct wavelength grid of the day on the summed
  spectra; the results equal per-record sums up to round-off.
"""

from __future__ import annotations

import datetime as dt
import enum
import json
import math
import re
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import yaml

from .cell import CellModel
from .config import read_yaml, reject_unknown_keys, typed
from .errors import (
    ConfigError,
    IncompleteReplicates,
    NoClearDay,
    NoIrradianceRecords,
    NoWeeksFound,
    SoilspecError,
    TooFewPoints,
    ZeroVariance,
)
from .metrics import IndexReport, ast, index_report_weighted, soiling_transmittance
from .spectral import (
    Kind,
    Spectrum,
    read_spectrum_csv,
    spectrum_csv_text,
    union_grid,
    write_spectrum_csv,
    write_text_atomic,
)
from .stats import linfit

__all__ = [
    "Aggregation",
    "FieldRecord",
    "FieldDay",
    "WeeklyMeasurement",
    "WeekValidation",
    "WeeklyOutcome",
    "CampaignResult",
    "SoilingRateFit",
    "validate_week",
    "is_cloudy",
    "select_spectra",
    "run_campaign",
    "soiling_rate_fit",
    "campaign_fits",
    "read_field_csv",
    "write_field_day",
    "open_campaign_dir",
    "load_campaign_dir",
    "write_campaign_dir",
    "CLOUDY_THRESHOLD",
    "SPREAD_THRESHOLD",
    "SCAN_COVERAGE_NM",
    "CADENCE_DAYS",
]

# Days with total-DNI/total-GNI below this ratio are cloudy.
CLOUDY_THRESHOLD = 0.75
# Replicate rejection: max-min spread of full-band average transmittance,
# read as absolute in AST units (AST is already a normalized quantity).
SPREAD_THRESHOLD = 0.01
# Instrument convention for weekly coupon scans.
SCAN_COVERAGE_NM = (300.0, 2000.0)
# Days between weekly scans when the manifest does not say otherwise.
CADENCE_DAYS = 7


class Aggregation(enum.Enum):
    NOON = "noon"
    DAILY_CURRENT_WEIGHTED = "daily"


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FieldRecord:
    """One 5-minute meteorological record; spectral DNI optional.

    ``spectral_dni`` is kept as given: a :class:`Spectrum`, the path of a
    spectrum CSV (as :func:`read_field_csv` gives it), or ``None``. A path
    is read only where a spectrum is used, by :func:`run_campaign` and when
    the record is written (:func:`write_field_day`), so ``==`` and ``repr``
    read no file.
    """

    timestamp: dt.datetime
    dni: float
    gni: float
    ghi: float = 0.0
    dhi: float = 0.0
    rainfall_mm: float | None = None
    pm10: float | None = None
    pm25: float | None = None
    spectral_dni: Spectrum | Path | None = None

    def __post_init__(self) -> None:
        for fname in ("dni", "gni", "ghi", "dhi"):
            if not 0.0 <= getattr(self, fname) < math.inf:
                raise ValueError(f"{fname} must be finite and >= 0, got {getattr(self, fname)}")


@dataclass(frozen=True)
class FieldDay:
    """All records of one calendar day, in time order."""

    date: dt.date
    records: tuple[FieldRecord, ...]
    # The records that carry a spectrum; the campaign asks for them once a week.
    spectral_records: tuple[FieldRecord, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "spectral_records",
                           tuple(r for r in self.records if r.spectral_dni is not None))
        ts = [r.timestamp for r in self.records]
        if len({t.utcoffset() is None for t in ts}) > 1:
            raise ValueError(f"field day {self.date}: timestamps must be all naive or all tz-aware")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"field day {self.date}: timestamps must be strictly increasing")
        for r in self.records:
            if r.timestamp.date() != self.date:
                raise ValueError(
                    f"record at {r.timestamp} does not belong to day {self.date}"
                )


@dataclass(frozen=True)
class WeeklyMeasurement:
    """Dated triplicate soiled/control coupon scans for one week."""

    week_id: int
    scan_date: dt.date
    soiled_scans: tuple[Spectrum, ...]
    control_scans: tuple[Spectrum, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "soiled_scans", tuple(self.soiled_scans))
        object.__setattr__(self, "control_scans", tuple(self.control_scans))

    @property
    def complete(self) -> bool:
        return len(self.soiled_scans) == 3 and len(self.control_scans) == 3


@dataclass(frozen=True)
class WeekValidation:
    """Replicate-consistency verdict for one week."""

    accepted: bool
    tau: Spectrum | None
    reason: str | None
    replicate_ast: tuple[float, ...]
    spread: float


# ---------------------------------------------------------------------------
# Filtering rules
# ---------------------------------------------------------------------------

def validate_week(m: WeeklyMeasurement, cell: CellModel) -> WeekValidation:
    """Apply the triplicate-spread rejection rule and average the scans.

    Computes the soiling transmittance of each replicate pair and its
    average over the cell's full band. If max - min of the three averages
    exceeds :data:`SPREAD_THRESHOLD` (in AST units) the week is rejected
    with reason ``SpreadExceeded``. Otherwise the accepted transmittance is
    the arithmetic mean of the three replicate curves.
    """
    if not m.complete:
        raise IncompleteReplicates(
            f"week {m.week_id}: need 3 replicate pairs, got "
            f"{len(m.soiled_scans)} soiled / {len(m.control_scans)} control"
        )
    taus = [
        soiling_transmittance(s, c)
        for s, c in zip(m.soiled_scans, m.control_scans)
    ]
    asts = tuple(ast(t, cell.full_band) for t in taus)
    spread = max(asts) - min(asts)
    if spread > SPREAD_THRESHOLD:
        return WeekValidation(False, None, "SpreadExceeded", asts, spread)
    grid = union_grid(taus)
    mean_vals = np.mean(
        [np.interp(grid, t.wavelengths_nm, t.values) for t in taus], axis=0
    )
    tau = Spectrum(grid, mean_vals, Kind.TRANSMITTANCE)
    return WeekValidation(True, tau, None, asts, spread)


def is_cloudy(day: FieldDay) -> bool:
    """True iff the day's total-DNI/total-GNI ratio is below :data:`CLOUDY_THRESHOLD`.

    Sums run over records with positive GNI; a day without any raises
    :class:`NoIrradianceRecords`.
    """
    recs = [r for r in day.records if r.gni > 0.0]
    if not recs:
        raise NoIrradianceRecords(f"day {day.date}: no records with GNI > 0")
    total_dni = sum(r.dni for r in recs)
    total_gni = sum(r.gni for r in recs)
    return total_dni / total_gni < CLOUDY_THRESHOLD


def select_spectra(scan_date: dt.date,
                   days: Sequence[FieldDay] | Mapping[dt.date, FieldDay]) -> FieldDay:
    """Pick the field day whose spectra represent a scan date.

    The scan day itself if it is clear; otherwise the nearest clear day
    within +/-1 day, preferring the previous day on a tie (the coupon
    state matches the day before the scan better than the day after).
    """
    if not isinstance(days, Mapping):
        days = {d.date: d for d in days}
    for offset in (0, -1, +1):
        day = days.get(scan_date + dt.timedelta(days=offset))
        if day is None:
            continue
        try:
            cloudy = is_cloudy(day)
        except NoIrradianceRecords:
            continue
        if not cloudy:
            return day
    raise NoClearDay(f"no clear field day within +/-1 day of {scan_date}")


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeeklyOutcome:
    """Per-week result: either a full report or a rejection reason."""

    week_id: int
    scan_date: dt.date
    accepted: bool
    rejection_reason: str | None
    spectra_date: dt.date | None
    tau: Spectrum | None
    report: IndexReport | None
    ast_full: float | None
    ast_by_band: dict[str, float] | None

    def to_json_dict(self) -> dict:
        return {
            "week_id": self.week_id,
            "scan_date": self.scan_date.isoformat(),
            "accepted": self.accepted,
            "rejection_reason": self.rejection_reason,
            "spectra_date": self.spectra_date.isoformat() if self.spectra_date else None,
            "ast_full": self.ast_full,
            "ast_by_band": self.ast_by_band,
            "report": self.report.to_dict() if self.report else None,
            "tau": None
            if self.tau is None
            else {
                "wavelengths_nm": self.tau.wavelengths_nm.tolist(),
                "values": self.tau.values.tolist(),
            },
        }


@dataclass(frozen=True)
class CampaignResult:
    """All weekly outcomes plus summary statistics over accepted weeks."""

    weekly: tuple[WeeklyOutcome, ...]
    summary: dict
    ast_band_names: tuple[str, ...]
    aggregation: str
    cell_name: str

    @property
    def accepted(self) -> tuple[WeeklyOutcome, ...]:
        return tuple(w for w in self.weekly if w.accepted)

    def to_json_dict(self) -> dict:
        return {
            "cell": self.cell_name,
            "aggregation": self.aggregation,
            "ast_band_names": list(self.ast_band_names),
            "summary": self.summary,
            "weeks": [w.to_json_dict() for w in self.weekly],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def weekly_csv(self) -> str:
        """Wide CSV, one row per week, plot-ready."""
        scalar_cols = [
            "sratio", "bsratio", "ssratio",
            "smr_cleaned", "smr_soiled", "smratio",
            "limiting_cleaned", "limiting_soiled",
        ]
        ast_cols = [f"ast_{b}" for b in self.ast_band_names]
        header = ["week_id", "scan_date", "accepted", "rejection_reason",
                  "spectra_date"] + scalar_cols + ast_cols
        lines = [",".join(header)]
        for w in self.weekly:
            row = [
                str(w.week_id),
                w.scan_date.isoformat(),
                "true" if w.accepted else "false",
                w.rejection_reason or "",
                w.spectra_date.isoformat() if w.spectra_date else "",
            ]
            rep = w.report.to_dict() if w.report else {}
            for col in scalar_cols:
                v = rep.get(col)
                row.append("" if v is None else (repr(float(v)) if not isinstance(v, str) else v))
            for bname in self.ast_band_names:
                v = (w.ast_by_band or {}).get(bname)
                row.append("" if v is None else repr(float(v)))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _noon_record(day: FieldDay) -> FieldRecord | None:
    """Spectral record nearest 12:00 local clock time (earlier wins ties).

    Noon is taken in each record's own ``tzinfo``, so naive and tz-aware
    timestamps both work.
    """
    recs = day.spectral_records
    if not recs:
        return None
    noon = dt.time(12, 0)
    return min(recs, key=lambda r: abs(
        r.timestamp - dt.datetime.combine(day.date, noon, r.timestamp.tzinfo)))


def run_campaign(weeks: Iterable[WeeklyMeasurement],
                 days: Iterable[FieldDay],
                 cell: CellModel,
                 aggregation: Aggregation = Aggregation.DAILY_CURRENT_WEIGHTED,
                 pair: tuple[str, str] | None = None) -> CampaignResult:
    """Run the full weekly procedure over a campaign.

    Per-week failures are recorded as rejections (with the error kind as
    the reason) and never abort the campaign. Summary statistics cover
    accepted weeks only.

    ``weeks`` is walked once, in the order given, and no week is held
    once its outcome is built, so the weeks of :func:`open_campaign_dir`
    are read one at a time, and a scan that cannot be read raises the
    reader's error, which names the file, and ends the run. The outcomes
    are sorted by week id, so the result does not depend on that order.

    A field record's ``spectral_dni`` that is a path is read here, once
    per use, and dropped when its week is done: the noon record of the
    selected day in ``NOON`` mode, every spectral record of that day
    otherwise. A file that cannot be read ends the run the same way.
    """
    day_map = {d.date: d for d in days}
    # Unlike a for loop's variable, map keeps no week while it fetches the next one.
    outcomes = sorted(
        map(lambda m: _week_outcome(m, day_map, cell, aggregation, pair), weeks),
        key=lambda w: w.week_id)
    return CampaignResult(
        weekly=tuple(outcomes),
        summary=_summarize(outcomes),
        ast_band_names=tuple(b.name for b in cell.bands),
        aggregation=aggregation.value,
        cell_name=cell.name,
    )


def _week_outcome(m: WeeklyMeasurement, day_map: Mapping[dt.date, FieldDay], cell: CellModel,
                  aggregation: Aggregation, pair: tuple[str, str] | None) -> WeeklyOutcome:
    """One week of :func:`run_campaign`; a :class:`SoilspecError` becomes its rejection."""
    scan_date = m.scan_date
    tau = None
    spectra_date = None
    report = None
    ast_full = None
    ast_by_band = None
    accepted = False
    reason: str | None = None
    try:
        v = validate_week(m, cell)
        if not v.accepted:
            reason = v.reason
        else:
            tau = v.tau
            day = select_spectra(scan_date, day_map)
            spectra_date = day.date
            if aggregation is Aggregation.NOON:
                rec = _noon_record(day)
                spectra = [] if rec is None else [_spectrum(rec)]
            else:
                spectra = [_spectrum(r) for r in day.spectral_records]
            if not spectra:
                reason = "NoSpectralData"
            else:
                report = index_report_weighted(spectra, cell, tau, pair)
                accepted = True
    except SoilspecError as exc:
        reason = exc.kind
    if tau is not None:
        # An accepted tau covers every band of the cell, so ast cannot raise.
        ast_by_band = (report.ast if report is not None
                       else {b.name: ast(tau, b) for b in cell.bands})
        ast_full = ast_by_band[cell.full_band.name]
    return WeeklyOutcome(
        week_id=m.week_id,
        scan_date=scan_date,
        accepted=accepted,
        rejection_reason=None if accepted else reason,
        spectra_date=spectra_date,
        tau=tau,
        report=report,
        ast_full=ast_full,
        ast_by_band=ast_by_band,
    )


def _spectrum(record: FieldRecord) -> Spectrum | None:
    """A record's spectrum, read anew if it is held as a path."""
    s = record.spectral_dni
    return read_spectrum_csv(s) if isinstance(s, Path) else s


def _summarize(outcomes: Sequence[WeeklyOutcome]) -> dict:
    accepted = [w for w in outcomes if w.accepted]
    columns: dict[str, list[float]] = {}
    for w in accepted:
        for key, value in w.report.to_dict().items():
            if isinstance(value, float):
                columns.setdefault(key, []).append(value)
    indexes = {
        key: {"mean": float(np.mean(vals)), "min": float(np.min(vals)), "max": float(np.max(vals))}
        for key, vals in columns.items()
    }
    return {
        "n_weeks": len(outcomes),
        "n_accepted": len(accepted),
        "n_rejected": len(outcomes) - len(accepted),
        "indexes": indexes,
    }


# ---------------------------------------------------------------------------
# Regression analyses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoilingRateFit:
    """Weekly transmittance derate over a dry stretch."""

    slope_per_week: float
    r2: float
    n: int
    degenerate: bool


def soiling_rate_fit(result: CampaignResult,
                     week_range: tuple[int, int] | None = None) -> SoilingRateFit:
    """OLS of full-band AST against week index over accepted weeks.

    ``week_range`` is an inclusive (first, last) week-id window. A
    constant AST series is reported as slope 0, r2 0 with the
    ``degenerate`` flag set.
    """
    pts = [
        (w.week_id, w.ast_full)
        for w in result.accepted
        if week_range is None or week_range[0] <= w.week_id <= week_range[1]
    ]
    if len(pts) < 3:
        raise TooFewPoints(f"soiling-rate fit needs >= 3 accepted weeks, got {len(pts)}")
    x = [p[0] for p in pts]
    y = [p[1] for p in pts]
    try:
        fit = linfit(x, y)
    except ZeroVariance:
        return SoilingRateFit(slope_per_week=0.0, r2=0.0, n=len(pts), degenerate=True)
    return SoilingRateFit(slope_per_week=fit.slope, r2=fit.r2, n=fit.n, degenerate=False)


def campaign_fits(result: CampaignResult) -> dict:
    """Linear fits of each index against the full-band AST.

    Mirrors the campaign regression analyses: sratio, bsratio, ssratio
    and smratio against ast_full, plus the first junction band's AST
    ratio against each other junction band. Fits that cannot be computed
    carry an ``error`` kind instead of coefficients.
    """
    accepted = result.accepted
    full = result.ast_band_names[0]
    x = [w.ast_full for w in accepted]
    fits: dict = {}

    def _fit(key: str, y: list[float]) -> None:
        try:
            fits[key] = linfit(x, y).to_dict()
        except SoilspecError as exc:
            fits[key] = {"error": exc.kind}

    for index in ("sratio", "bsratio", "ssratio", "smratio"):
        _fit(f"{index}_vs_ast_{full}", [getattr(w.report, index) for w in accepted])
    bands = result.ast_band_names[1:]
    if len(bands) >= 2:
        first = bands[0]
        for other in bands[1:]:
            y = [w.ast_by_band[first] / w.ast_by_band[other] for w in accepted]
            _fit(f"ast_{first}_over_{other}_vs_ast_{full}", y)
    return fits


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

FIELD_HEADER = ("timestamp_iso8601,dni_wm2,gni_wm2,ghi_wm2,dhi_wm2,"
                "rainfall_mm,pm10,pm25,spectrum_file")
_SCAN_RE = re.compile(r"^week(\d+)_(soiled|control)_([123])\.csv$")


def _opt_float(text: str) -> float | None:
    return None if text == "" else float(text)


def read_field_csv(path: str | Path) -> FieldDay:
    """Read one day of field records.

    The ``spectrum_file`` column, when present, is a path relative to the
    CSV's own directory. The spectrum is not read here: the record's
    ``spectral_dni`` is that path, ``path.parent / spectrum_file``.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != FIELD_HEADER:
        raise ValueError(f"{path}: expected header {FIELD_HEADER!r}")
    records = []
    try:
        for lineno, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            parts = raw.split(",")
            if len(parts) != 9:
                raise ValueError(f"expected 9 columns, got {len(parts)}: {raw!r}")
            records.append(
                FieldRecord(
                    timestamp=dt.datetime.fromisoformat(parts[0]),
                    dni=float(parts[1]),
                    gni=float(parts[2]),
                    ghi=float(parts[3]),
                    dhi=float(parts[4]),
                    rainfall_mm=_opt_float(parts[5]),
                    pm10=_opt_float(parts[6]),
                    pm25=_opt_float(parts[7]),
                    spectral_dni=path.parent / parts[8] if parts[8] else None,
                )
            )
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise ValueError(f"{path}: no records")
    try:
        return FieldDay(date=records[0].timestamp.date(), records=tuple(records))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _spectrum_name(timestamp: dt.datetime) -> str:
    """A record's spectrum file, relative to the data dir (see :func:`write_field_day`)."""
    fmt = "%Y-%m-%dT%H-%M"
    if timestamp.second or timestamp.microsecond:
        fmt += "-%S"
    if timestamp.microsecond:
        fmt += "-%f"
    return f"spectra/{timestamp.strftime(fmt)}.csv"


def write_field_day(day: FieldDay, out_dir: str | Path) -> Path:
    """Write one field day into a data dir, its spectra under ``spectra/``.

    A record's spectrum goes to ``spectra/<YYYY-MM-DD>T<HH>-<MM>.csv``,
    named by its local timestamp, with ``-<SS>`` appended when the seconds
    or microseconds are non-zero and ``-<ffffff>`` when the microseconds
    are. Two tz-aware records a UTC-offset change apart can share a local
    time, and so a name; that raises ``ValueError`` naming the day and
    both timestamps before any file of the day is written.
    """
    return _write_field_day(day, Path(out_dir), {}, _spectrum_names(day))


def _spectrum_names(day: FieldDay) -> list[str]:
    """Each record's spectrum file name (``""`` without a spectrum); a name
    two records would share raises ``ValueError``."""
    names = [_spectrum_name(r.timestamp) if r.spectral_dni is not None else ""
             for r in day.records]
    taken: dict[str, dt.datetime] = {}
    for r, rel in zip(day.records, names):
        if not rel:
            continue
        if rel in taken:
            raise ValueError(f"field day {day.date}: records at {taken[rel].isoformat()} and "
                             f"{r.timestamp.isoformat()} would both write {rel}")
        taken[rel] = r.timestamp
    return names


def _write_field_day(day: FieldDay, out_dir: Path, texts: dict[Spectrum, str],
                     spec_rels: list[str]) -> Path:
    """:func:`write_field_day` with the names of :func:`_spectrum_names`,
    taking each spectrum's CSV text from ``texts`` and adding the ones it
    formats, so a spectrum object that several records share is formatted
    once per ``texts``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if day.spectral_records:
        (out_dir / "spectra").mkdir(exist_ok=True)
    rows = [FIELD_HEADER]
    for r, spec_rel in zip(day.records, spec_rels):
        if spec_rel:
            s = _spectrum(r)
            text = texts.get(s)
            if text is None:
                text = texts[s] = spectrum_csv_text(s)
            write_text_atomic(out_dir / spec_rel, text)
        rows.append(",".join([
            r.timestamp.isoformat(),
            repr(float(r.dni)),
            repr(float(r.gni)),
            repr(float(r.ghi)),
            repr(float(r.dhi)),
            "" if r.rainfall_mm is None else repr(float(r.rainfall_mm)),
            "" if r.pm10 is None else repr(float(r.pm10)),
            "" if r.pm25 is None else repr(float(r.pm25)),
            spec_rel,
        ]))
    path = out_dir / f"field_{day.date.isoformat()}.csv"
    write_text_atomic(path, "\n".join(rows) + "\n")
    return path


def _write_scans(m: WeeklyMeasurement, out_dir: Path) -> None:
    """Write one week's coupon scans; :func:`write_campaign_dir` runs it in
    its helper process."""
    for role, scans in (("soiled", m.soiled_scans), ("control", m.control_scans)):
        for rep, scan in enumerate(scans, start=1):
            write_spectrum_csv(scan, out_dir / f"week{m.week_id:02d}_{role}_{rep}.csv")


def write_campaign_dir(weeks: Sequence[WeeklyMeasurement],
                       days: Sequence[FieldDay],
                       out_dir: str | Path) -> Path:
    """Write a complete campaign data directory the loader can ingest.

    A negative or repeated week id, two field days of one date, or two
    records of one day whose spectra would share a file name (see
    :func:`write_field_day`) would write files the loader skips or reads
    as one, so each raises ``ValueError`` naming it. Every check runs
    before any file is written.

    One helper process writes the weekly coupon scans, a week per task,
    while this process writes the field days; the manifest is written
    last. A spectrum object that several field records share is formatted
    once and its text written to each record's file. If either side
    fails, the helper's pending weeks are cancelled and the first error is
    raised: this process's own, or else the scan write of the earliest
    week that failed, with its type and file name. A helper that dies
    raises ``OSError`` naming ``out_dir``.
    """
    weeks = sorted(weeks, key=lambda w: w.week_id)
    days = sorted(days, key=lambda d: d.date)
    if weeks and weeks[0].week_id < 0:
        raise ValueError(f"week id {weeks[0].week_id} is negative; week ids must be >= 0")
    for a, b in zip(weeks, weeks[1:]):
        if a.week_id == b.week_id:
            raise ValueError(f"week id {b.week_id} appears more than once")
    for a, b in zip(days, days[1:]):
        if a.date == b.date:
            raise ValueError(f"field day {b.date} appears more than once")
    spec_rels = [_spectrum_names(day) for day in days]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Imported here: multiprocessing costs every `import soilspec` about 16 ms.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=1) as helper:
        pending: deque = deque()
        try:
            pending.extend(helper.submit(_write_scans, m, out_dir) for m in weeks)
            texts: dict[Spectrum, str] = {}
            for day, names in zip(days, spec_rels):
                while pending and pending[0].done():
                    pending.popleft().result()  # a failed week stops the field days too
                _write_field_day(day, out_dir, texts, names)
            while pending:
                pending.popleft().result()
        except BrokenProcessPool as exc:
            raise OSError(f"{out_dir}: the process writing the coupon scans "
                          f"ended unexpectedly") from exc
        finally:
            for f in pending:
                f.cancel()
    manifest: dict = {"cadence_days": CADENCE_DAYS}
    if weeks:
        first = weeks[0]
        manifest["start_date"] = first.scan_date.isoformat()
        regular = all(
            m.scan_date == first.scan_date
            + dt.timedelta(days=CADENCE_DAYS * (m.week_id - first.week_id))
            for m in weeks
        )
        if not regular:
            manifest["weeks"] = [
                {"week_id": m.week_id, "scan_date": m.scan_date.isoformat()}
                for m in weeks
            ]
    write_text_atomic(out_dir / "manifest.yaml",
                      yaml.safe_dump(manifest, sort_keys=True))
    return out_dir


def open_campaign_dir(data_dir: str | Path
                      ) -> tuple[Iterator[WeeklyMeasurement], list[FieldDay]]:
    """Open a campaign data directory: index its scans, read its field days.

    Weekly scans follow the ``week<NN>_<soiled|control>_<1|2|3>.csv``
    convention; ``manifest.yaml`` may carry ``start_date`` and
    ``cadence_days`` (default :data:`CADENCE_DAYS`; scan dates default to
    start + cadence * week offset) plus explicit per-week ``scan_date``
    overrides. A manifest key other than ``start_date``, ``cadence_days``
    and ``weeks``, or a ``weeks`` entry key other than ``week_id`` and
    ``scan_date``, is a :class:`ConfigError`, and so are two scan files
    that name one week, role and replicate (``week01_soiled_1.csv`` and
    ``week1_soiled_1.csv``) and two field files whose records fall on one
    date.

    The manifest, the scan file names and every field-file row are read
    and checked here. A field record's spectrum CSV is not: the record's
    ``spectral_dni`` is its path, and :func:`run_campaign` reads it only
    for the day a week selects (see :class:`FieldRecord`). Nor are the
    scans: the returned iterator reads a week's six scans when iteration
    reaches that week, in week-id order, so a bad scan raises only then.
    Scans that do not span :data:`SCAN_COVERAGE_NM` draw a warning as they
    are read; weeks whose scans cannot cover the analysis cell's full band
    are later rejected by the campaign run. The iterator can be walked
    once.
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise FileNotFoundError(f"campaign data dir not found: {data_dir}")

    days, day_files = [], {}
    for p in sorted(data_dir.glob("field_*.csv")):
        day = read_field_csv(p)
        if day.date in day_files:
            raise ConfigError(f"{data_dir}: {day_files[day.date].name} and {p.name} both "
                              f"hold field day {day.date}")
        day_files[day.date] = p
        days.append(day)

    manifest_path = data_dir / "manifest.yaml"
    manifest = read_yaml(manifest_path) if manifest_path.is_file() else {}
    reject_unknown_keys(manifest, ("start_date", "cadence_days", "weeks"), manifest_path,
                        "manifest")

    scans: dict[int, dict[str, dict[int, Path]]] = {}
    for p in sorted(data_dir.iterdir()):
        m = _SCAN_RE.match(p.name)
        if m is None:
            continue
        wid, role, rep = int(m.group(1)), m.group(2), int(m.group(3))
        replicates = scans.setdefault(wid, {"soiled": {}, "control": {}})[role]
        if rep in replicates:
            raise ConfigError(f"{data_dir}: {replicates[rep].name} and {p.name} are both "
                              f"week {wid} {role} scan {rep}")
        replicates[rep] = p
    if not scans:
        raise NoWeeksFound(f"no weekly coupon scans found in {data_dir}")

    overrides = {}
    for e in typed(manifest, "weeks", list, manifest_path, default=[]):
        overrides[typed(e, "week_id", int, manifest_path)] = typed(
            e, "scan_date", dt.date, manifest_path, default=None)
        reject_unknown_keys(e, ("week_id", "scan_date"), manifest_path, "manifest week")

    cadence = typed(manifest, "cadence_days", int, manifest_path, default=CADENCE_DAYS,
                    positive=True)
    start_date = typed(manifest, "start_date", dt.date, manifest_path,
                       default=days[0].date if days else None)
    if start_date is None:
        raise ConfigError(
            f"{data_dir}: cannot date weekly scans; provide manifest.yaml "
            "with start_date or include field_*.csv files"
        )
    first_wid = min(scans)

    weeks = (
        WeeklyMeasurement(
            week_id=wid,
            scan_date=overrides.get(wid) or start_date + dt.timedelta(
                days=cadence * (wid - first_wid)),
            soiled_scans=_read_scans(scans[wid]["soiled"]),
            control_scans=_read_scans(scans[wid]["control"]),
        )
        for wid in sorted(scans)
    )
    return weeks, days


def load_campaign_dir(data_dir: str | Path) -> tuple[list[WeeklyMeasurement], list[FieldDay]]:
    """:func:`open_campaign_dir` with every week's scans read, in week-id order.

    Holds all scans at once; :func:`run_campaign` over the iterator of
    :func:`open_campaign_dir` holds one week's.
    """
    weeks, days = open_campaign_dir(data_dir)
    return list(weeks), days


def _read_scans(paths: Mapping[int, Path]) -> tuple[Spectrum, ...]:
    out = []
    for rep in sorted(paths):
        s = read_spectrum_csv(paths[rep])
        lo, hi = s.support
        if lo > SCAN_COVERAGE_NM[0] or hi < SCAN_COVERAGE_NM[1]:
            warnings.warn(
                f"{paths[rep].name}: scan covers [{lo}, {hi}] nm, less than "
                f"the {SCAN_COVERAGE_NM} nm convention",
                UserWarning,
                stacklevel=2,
            )
        out.append(s)
    return tuple(out)
