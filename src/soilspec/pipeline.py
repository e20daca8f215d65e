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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

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
    ZeroDenominator,
    ZeroVariance,
)
from .metrics import (
    IndexReport,
    ast,
    ast_rows,
    clamp_ratio,
    index_report_weighted,
    soiling_ratio,
)
from .spectral import (
    Kind,
    Spectrum,
    read_spectrum_csv,
    sample_on_union,
    spectrum_csv_text,
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

    A record is one row of a :class:`FieldDay` as an object: the day's
    ``records`` and ``spectral_records`` build them on access. A record
    does not check itself; the day it is given to checks its values.

    ``spectral_dni`` is kept as given: a :class:`Spectrum`, the path of a
    spectrum CSV (as :func:`read_field_csv` gives it), or ``None``. A path
    is read only where a spectrum is used, by :func:`run_campaign` and when
    the record is written (:func:`write_campaign_dir`), so ``==`` and
    ``repr`` read no file.
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


# The value columns of a field day; the last three are optional, NaN where empty.
_COLUMNS = ("dni", "gni", "ghi", "dhi", "rainfall_mm", "pm10", "pm25")
_OPTIONAL = _COLUMNS[4:]


class _RowFault(ValueError):
    """A field-day row, counted from 0, that breaks ``rule``."""

    def __init__(self, date: dt.date, row: int, rule: str) -> None:
        super().__init__(f"field day {date}, record {row}: {rule}")
        self.row, self.rule = row, rule


@dataclass(frozen=True, eq=False, repr=False, init=False)
class FieldDay:
    """All records of one calendar day, in time order, held as columns.

    ``timestamps`` is a tuple of ``datetime``; each value column is a
    read-only float64 array, with NaN for an empty ``rainfall_mm``,
    ``pm10`` or ``pm25`` cell; ``spectra`` holds each row's spectral DNI
    as :class:`FieldRecord` does, or ``None``. ``FieldDay(date, records)``
    takes the rows as records and :meth:`from_columns` as columns; both
    check every row once. Each value must be finite and >= 0 (an optional
    one when given); the timestamps must be all naive or all tz-aware,
    each on ``date`` and each after the one before. The first row that
    breaks a rule raises ``ValueError`` naming the row and the rule.
    """

    date: dt.date
    timestamps: tuple[dt.datetime, ...]
    dni: np.ndarray
    gni: np.ndarray
    ghi: np.ndarray
    dhi: np.ndarray
    rainfall_mm: np.ndarray
    pm10: np.ndarray
    pm25: np.ndarray
    spectra: tuple[Spectrum | Path | None, ...]

    def __init__(self, date: dt.date, records: Iterable[FieldRecord] = ()) -> None:
        records = tuple(records)
        columns = {name: [getattr(r, name) for r in records] for name in _COLUMNS}
        for name in _OPTIONAL:  # NaN marks an empty cell, so a NaN given is refused
            if any(v != v for v in columns[name] if v is not None):
                raise ValueError(f"{name} must be finite and >= 0 when given, got nan")
            columns[name] = [math.nan if v is None else v for v in columns[name]]
        self._hold(date, [r.timestamp for r in records], [r.spectral_dni for r in records],
                   columns)

    @classmethod
    def from_columns(cls, date: dt.date, timestamps: Sequence[dt.datetime],
                     spectra: Sequence[Spectrum | Path | None], *,
                     dni, gni, ghi, dhi, rainfall_mm, pm10, pm25) -> FieldDay:
        """A day from its columns, one value per timestamp in each; NaN
        marks an empty cell of an optional column."""
        day = cls.__new__(cls)
        day._hold(date, timestamps, spectra, {
            "dni": dni, "gni": gni, "ghi": ghi, "dhi": dhi,
            "rainfall_mm": rainfall_mm, "pm10": pm10, "pm25": pm25})
        return day

    def _hold(self, date, timestamps, spectra, columns) -> None:
        timestamps, spectra = tuple(timestamps), tuple(spectra)
        n = len(timestamps)
        setattr_ = object.__setattr__
        for name in _COLUMNS:
            values = np.array(columns[name], dtype=float)
            if values.shape != (n,):
                raise ValueError(f"field day {date}: {name} holds {values.shape} values "
                                 f"for {n} timestamps")
            values.flags.writeable = False
            setattr_(self, name, values)
        if len(spectra) != n:
            raise ValueError(f"field day {date}: {len(spectra)} spectra for {n} timestamps")
        setattr_(self, "date", date)
        setattr_(self, "timestamps", timestamps)
        setattr_(self, "spectra", spectra)
        fault = self._first_fault()
        if fault is not None:
            raise _RowFault(date, *fault)

    def _first_fault(self) -> tuple[int, str] | None:
        """The first row that breaks a rule, with the rule; a row's values
        are checked before its timestamp."""
        faults = []
        for name in _COLUMNS:
            values = getattr(self, name)
            ok = (values >= 0.0) & (values < math.inf)
            if name in _OPTIONAL:
                ok |= np.isnan(values)
            bad = np.flatnonzero(~ok)
            if bad.size:
                row = int(bad[0])
                faults.append((row, f"{name} must be finite and >= 0, got {values[row]}"))
        ts = self.timestamps
        aware = bool(ts) and ts[0].utcoffset() is not None
        for row, t in enumerate(ts):
            if (t.utcoffset() is not None) is not aware:
                rule = "timestamps must be all naive or all tz-aware"
            elif t.date() != self.date:
                rule = f"record at {t} does not belong to day {self.date}"
            elif row and t <= ts[row - 1]:
                rule = (f"record at {t} is not after the one before it, at {ts[row - 1]}; "
                        "timestamps must be strictly increasing")
            else:
                continue
            faults.append((row, rule))
            break
        return min(faults, key=lambda f: f[0], default=None)

    @property
    def records(self) -> tuple[FieldRecord, ...]:
        """The rows as :class:`FieldRecord` objects, built on each access."""
        return self._records(range(len(self.timestamps)))

    @property
    def spectral_records(self) -> tuple[FieldRecord, ...]:
        """The records that carry a spectrum, built on each access."""
        return self._records(i for i, s in enumerate(self.spectra) if s is not None)

    def _records(self, rows: Iterable[int]) -> tuple[FieldRecord, ...]:
        columns = [getattr(self, name).tolist() for name in _COLUMNS]
        return tuple(
            FieldRecord(self.timestamps[i], *(None if c[i] != c[i] else c[i] for c in columns),
                        spectral_dni=self.spectra[i])
            for i in rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldDay):
            return NotImplemented
        return (self.date == other.date and self.timestamps == other.timestamps
                and self.spectra == other.spectra
                and all(np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
                        for name in _COLUMNS))

    def __hash__(self) -> int:
        return hash((self.date, self.timestamps))

    def __repr__(self) -> str:
        return f"FieldDay(date={self.date!r}, records={self.records!r})"


@dataclass(frozen=True)
class WeeklyMeasurement:
    """Dated triplicate soiled/control coupon scans for one week.

    Each scan is kept as given, a :class:`Spectrum` or the path of its CSV
    (as :func:`load_campaign_dir` gives it), and a path is read only where
    the scan is used, as with :class:`FieldRecord`'s ``spectral_dni``.
    """

    week_id: int
    scan_date: dt.date
    soiled_scans: tuple[Spectrum | Path, ...]
    control_scans: tuple[Spectrum | Path, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "soiled_scans", tuple(self.soiled_scans))
        object.__setattr__(self, "control_scans", tuple(self.control_scans))

    @property
    def complete(self) -> bool:
        return len(self.soiled_scans) == 3 and len(self.control_scans) == 3


@dataclass(frozen=True)
class WeekValidation:
    """Replicate-consistency verdict for one week, with each replicate pair's noise
    counts and the file-held scans short of :data:`SCAN_COVERAGE_NM`, in read order."""

    accepted: bool
    tau: Spectrum | None
    reason: str | None
    replicate_ast: tuple[float, ...]
    spread: float
    noisy_samples: tuple[int, ...]
    clamped_samples: tuple[int, ...]
    short_scans: tuple[str, ...]


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

    The replicate count is checked before any scan is read; a scan held as
    a path is read with its pair and dropped once the pair's ratio is taken
    (see :func:`_scan`). When the three pairs' grids are equal, the ratios
    are one stack, clamped and averaged over the band at once and meaned
    on that grid; pairs on different grids make a spectrum each, meaned on
    the union of their grids. Both ways give the bits, and raise the
    errors, of :func:`~soilspec.metrics.soiling_transmittance` and
    :func:`~soilspec.metrics.ast` pair by pair. Each curve is built on its
    grid as it stands (see :meth:`Spectrum.on_checked_grid`): a scan's
    checked grid or a union of such grids, neither checked again. The
    accepted transmittance is dimensionless, whatever the scans' unit tags.
    """
    if not m.complete:
        raise IncompleteReplicates(
            f"week {m.week_id}: need 3 replicate pairs, got "
            f"{len(m.soiled_scans)} soiled / {len(m.control_scans)} control"
        )
    short: list[str] = []
    ratios = [soiling_ratio(_scan(s, short), _scan(c, short))
              for s, c in zip(m.soiled_scans, m.control_scans)]
    (grid, _), *rest = ratios
    if all(g is grid or np.array_equal(g, grid) for g, _ in rest):
        taus, noisy, clamped = clamp_ratio(np.array([r for _, r in ratios]))
        asts = tuple(ast_rows(grid, taus, cell.full_band))
    else:
        values, noisy, clamped = zip(*(clamp_ratio(r) for _, r in ratios))
        spectra = [Spectrum.on_checked_grid(g, v, Kind.TRANSMITTANCE)
                   for (g, _), v in zip(ratios, values)]
        asts = tuple(ast(t, cell.full_band) for t in spectra)
        grid, taus = sample_on_union(spectra)
    spread = max(asts) - min(asts)
    quality = (tuple(map(int, noisy)), tuple(map(int, clamped)), tuple(short))
    if spread > SPREAD_THRESHOLD:
        return WeekValidation(False, None, "SpreadExceeded", asts, spread, *quality)
    # np.mean's operations on float64, without its Python wrapper
    tau = Spectrum.on_checked_grid(grid, np.add.reduce(taus, axis=0) / len(taus),
                                   Kind.TRANSMITTANCE)
    return WeekValidation(True, tau, None, asts, spread, *quality)


def _scan(held: Spectrum | Path, short: list[str]) -> Spectrum:
    """A coupon scan as :func:`_spectrum` gives it; one read from a file that
    does not span :data:`SCAN_COVERAGE_NM` has its name appended to ``short``."""
    s = _spectrum(held)
    lo, hi = s.support
    if isinstance(held, Path) and (lo > SCAN_COVERAGE_NM[0] or hi < SCAN_COVERAGE_NM[1]):
        short.append(held.name)
    return s


def is_cloudy(day: FieldDay) -> bool:
    """True iff the day's total-DNI/total-GNI ratio is below :data:`CLOUDY_THRESHOLD`.

    Sums run over records with positive GNI; a day without any raises
    :class:`NoIrradianceRecords`.
    """
    lit = day.gni > 0.0
    if not lit.any():
        raise NoIrradianceRecords(f"day {day.date}: no records with GNI > 0")
    # Summed left to right, row by row: np.sum adds pairwise, which can
    # round a day onto the other side of the threshold.
    total_dni = np.cumsum(day.dni[lit])[-1]
    total_gni = np.cumsum(day.gni[lit])[-1]
    return bool(total_dni / total_gni < CLOUDY_THRESHOLD)


def select_spectra(scan_date: dt.date,
                   days: Sequence[FieldDay] | Mapping[dt.date, FieldDay]) -> FieldDay:
    """Pick the field day whose spectra represent a scan date.

    The scan day itself if it is clear; otherwise the nearest clear day
    within +/-1 day, preferring the previous day on a tie (the coupon
    state matches the day before the scan better than the day after). A
    neighbour outside the calendar (before 0001-01-01, after 9999-12-31)
    is no candidate. A sequence holding two field days of one date raises
    ``ValueError`` naming the date; a mapping is used as given.
    """
    days = _day_map(days)
    for offset in (0, -1, +1):
        try:
            day = days.get(scan_date + dt.timedelta(days=offset))
        except OverflowError:
            continue
        if day is None:
            continue
        try:
            cloudy = is_cloudy(day)
        except NoIrradianceRecords:
            continue
        if not cloudy:
            return day
    raise NoClearDay(f"no clear field day within +/-1 day of {scan_date}")


def _day_map(days: Iterable[FieldDay] | Mapping) -> Mapping[dt.date, FieldDay]:
    """The field days by date, a mapping as given; two days of one date raise ``ValueError``."""
    if isinstance(days, Mapping):
        return days
    day_map = {}
    for d in days:
        if d.date in day_map:
            raise ValueError(f"field day {d.date} appears more than once")
        day_map[d.date] = d
    return day_map


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeeklyOutcome:
    """Per-week result: either a full report or a rejection reason, with the noise and
    coverage fields of its :class:`WeekValidation` (``None`` if :func:`validate_week` raised)."""

    week_id: int
    scan_date: dt.date
    rejection_reason: str | None
    spectra_date: dt.date | None
    tau: Spectrum | None
    report: IndexReport | None
    ast_by_band: dict[str, float] | None
    noisy_samples: tuple[int, ...] | None = None
    clamped_samples: tuple[int, ...] | None = None
    short_scans: tuple[str, ...] | None = None

    @property
    def accepted(self) -> bool:
        return self.report is not None

    @property
    def ast_full(self) -> float | None:
        """The first AST of ``ast_by_band``, which follows ``CellModel.bands``."""
        return None if self.ast_by_band is None else next(iter(self.ast_by_band.values()))

    def to_json_dict(self) -> dict:
        return {
            "week_id": self.week_id,
            "scan_date": self.scan_date.isoformat(),
            "accepted": self.accepted,
            "rejection_reason": self.rejection_reason,
            "noisy_samples": self.noisy_samples,
            "clamped_samples": self.clamped_samples,
            "short_scans": self.short_scans,
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


def _noon_spectrum(day: FieldDay) -> Spectrum | Path | None:
    """The spectrum of the spectral record nearest 12:00 local clock time
    (earlier wins ties).

    Noon is taken in each record's own ``tzinfo``, so naive and tz-aware
    timestamps both work.
    """
    rows = [(t, s) for t, s in zip(day.timestamps, day.spectra) if s is not None]
    if not rows:
        return None
    noon = dt.time(12, 0)
    return min(rows, key=lambda row: abs(
        row[0] - dt.datetime.combine(day.date, noon, row[0].tzinfo)))[1]


def run_campaign(weeks: Iterable[WeeklyMeasurement],
                 days: Iterable[FieldDay],
                 cell: CellModel,
                 aggregation: Aggregation = Aggregation.DAILY_CURRENT_WEIGHTED) -> CampaignResult:
    """Run the full weekly procedure over a campaign.

    Per-week failures are recorded as rejections (with the error kind as
    the reason) and never abort the campaign. Summary statistics cover
    accepted weeks only.

    ``weeks`` is walked once, in the order given; the outcomes are sorted
    by week id, so the result does not depend on that order.

    A scan or a field record's ``spectral_dni`` that is a path is read
    here, once per use, and dropped when its week is done: the week's
    scans by :func:`validate_week`, then the noon record of the selected
    day in ``NOON`` mode, every spectral record of that day otherwise. A
    file that cannot be read raises the reader's error, which names the
    file, and ends the run.

    Given two or more weeks whose scans are all held as paths (as
    :func:`load_campaign_dir` gives them) on a platform that can ``fork``,
    the run takes two processes. This process runs the first half of the
    weeks in the order given (the larger one, for an odd count), and one
    helper forked from it runs the rest, with the field days it inherits.
    Each process holds at most two scans at a time. Printed text and
    errors come out as in one process, this process's first; a helper
    that dies raises ``OSError`` naming its weeks and exit code. Other
    weeks run in this process alone.

    Two field days of one date raise ``ValueError`` naming the date.
    """
    day_map = _day_map(days)
    weeks = list(weeks)

    def run(part: list[WeeklyMeasurement]) -> list[WeeklyOutcome]:
        return [_week_outcome(m, day_map, cell, aggregation) for m in part]

    half = (len(weeks) + 1) // 2
    if half == len(weeks) or not all(isinstance(s, Path) for m in weeks
                                     for s in m.soiled_scans + m.control_scans):
        outcomes = run(weeks)
    else:
        mine, theirs = _in_two(lambda: run(weeks[:half]), run, weeks[half:],
                               f"the helper process running {len(weeks) - half} of the "
                               f"{len(weeks)} weeks, from week {weeks[half].week_id} on,")
        outcomes = mine + theirs
    outcomes.sort(key=lambda w: w.week_id)
    return CampaignResult(
        weekly=tuple(outcomes),
        summary=_summarize(outcomes),
        ast_band_names=tuple(b.name for b in cell.bands),
        aggregation=aggregation.value,
        cell_name=cell.name,
    )


def _in_two(here: Callable[[], Any], there: Callable[[list], Any], share: list,
            helper_name: str) -> tuple[Any, Any]:
    """``(here(), there(share))``: ``there`` runs in one helper forked from
    this process, inheriting its inputs unpickled, while ``here`` runs
    here. ``sys.stdout`` and ``sys.stderr`` are flushed before the fork.
    This process's error is raised first and stops the helper; else the
    helper's, with its type and message; a helper that dies raises
    ``OSError`` naming ``helper_name``. With an empty ``share`` or no
    ``fork``, both run here, ``here`` first."""
    # Imported here: multiprocessing costs every `import soilspec` about 16 ms.
    import multiprocessing

    if not share or "fork" not in multiprocessing.get_all_start_methods():
        return here(), there(share)

    def helper() -> None:
        try:
            sent = there(share), None
        except Exception as exc:
            sent = None, exc
        sender.send(sent)

    ctx = multiprocessing.get_context("fork")  # the helper inherits the inputs, unpickled
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(target=helper, daemon=True)
    process.start()  # which flushes sys.stdout and sys.stderr before it forks
    sender.close()
    try:
        mine = here()
        try:
            theirs, error = receiver.recv()
        except EOFError:
            process.join()
            raise OSError(f"{helper_name} ended unexpectedly with exit code "
                          f"{process.exitcode}") from None
    except BaseException:
        process.terminate()
        raise
    finally:
        receiver.close()
        process.join()
    if error is not None:
        raise error
    return mine, theirs


def _week_outcome(m: WeeklyMeasurement, day_map: Mapping[dt.date, FieldDay], cell: CellModel,
                  aggregation: Aggregation) -> WeeklyOutcome:
    """One week of :func:`run_campaign`; a :class:`SoilspecError` becomes its rejection."""
    tau = spectra_date = report = ast_by_band = reason = None
    quality = {}
    try:
        v = validate_week(m, cell)
        quality = {"noisy_samples": v.noisy_samples, "clamped_samples": v.clamped_samples,
                   "short_scans": v.short_scans}
        if not v.accepted:
            reason = v.reason
        else:
            tau = v.tau
            day = select_spectra(m.scan_date, day_map)
            spectra_date = day.date
            if aggregation is Aggregation.NOON:
                held = _noon_spectrum(day)
                spectra = [] if held is None else [_spectrum(held)]
            else:
                spectra = [_spectrum(s) for s in day.spectra if s is not None]
            if not spectra:
                reason = "NoSpectralData"
            else:
                report = index_report_weighted(spectra, cell, tau)
    except SoilspecError as exc:
        reason = exc.kind
    if tau is not None:
        # An accepted tau covers every band of the cell, so ast cannot raise.
        ast_by_band = (report.ast if report is not None
                       else {b.name: ast(tau, b) for b in cell.bands})
    return WeeklyOutcome(week_id=m.week_id, scan_date=m.scan_date, rejection_reason=reason,
                         spectra_date=spectra_date, tau=tau, report=report,
                         ast_by_band=ast_by_band, **quality)


def _spectrum(held: Spectrum | Path) -> Spectrum:
    """A spectrum kept as given, read anew if it is held as a path."""
    return read_spectrum_csv(held) if isinstance(held, Path) else held


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
    carry an ``error`` kind instead of coefficients; an AST ratio whose
    denominator band has an AST of 0 in an accepted week is
    ``ZeroDenominator``.
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
            key = f"ast_{first}_over_{other}_vs_ast_{full}"
            if any(w.ast_by_band[other] == 0.0 for w in accepted):
                fits[key] = {"error": ZeroDenominator.__name__}
            else:
                _fit(key, [w.ast_by_band[first] / w.ast_by_band[other] for w in accepted])
    return fits


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

FIELD_HEADER = ("timestamp_iso8601,dni_wm2,gni_wm2,ghi_wm2,dhi_wm2,"
                "rainfall_mm,pm10,pm25,spectrum_file")
_SCAN_RE = re.compile(r"^week(\d+)_(soiled|control)_([123])\.csv$")
_TMP_SUFFIX_RE = re.compile(r"\.\d+\.\d+\.tmp$")  # write_text_atomic's temp file suffix


def _loader_file(name: str) -> bool:
    """Whether a file of this name is one the campaign-dir loader reads."""
    return (name == "manifest.yaml" or (name.startswith("field_") and name.endswith(".csv"))
            or _SCAN_RE.match(name) is not None)


def read_field_csv(path: str | Path) -> FieldDay:
    """Read one day of field records.

    The ``spectrum_file`` column, when present, is a path relative to the
    CSV's own directory. The spectrum is not read here: the record's
    ``spectral_dni`` is that path, ``path.parent / spectrum_file``. The
    day's date is that of the first row. The first row that does not
    parse, or else the first that breaks a rule of :class:`FieldDay`,
    raises ``ValueError`` naming the file and the row's line; a file that
    is not UTF-8 raises ``ValueError`` naming the file.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines or lines[0] != FIELD_HEADER:
        raise ValueError(f"{path}: expected header {FIELD_HEADER!r}")
    rows = [(lineno, raw) for lineno, raw in enumerate(lines[1:], start=2) if raw.strip()]
    if not rows:
        raise ValueError(f"{path}: no records")
    try:
        timestamps, columns, spectra = _field_columns([raw for _, raw in rows], path.parent)
    except ValueError:
        for lineno, raw in rows:  # parsed again one by one, to name the first bad line
            try:
                _field_columns([raw], path.parent)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        raise
    try:
        return FieldDay.from_columns(timestamps[0].date(), timestamps, spectra, **columns)
    except _RowFault as exc:
        raise ValueError(f"{path}:{rows[exc.row][0]}: {exc.rule}") from None


def _field_columns(rows: list[str], folder: Path
                   ) -> tuple[list[dt.datetime], dict[str, np.ndarray], list[Path | None]]:
    """The timestamps, value columns and spectrum paths of field-file rows,
    parsed a column at a time; a cell that does not parse raises
    ``ValueError``. Values are parsed with ``float``, and an empty cell of
    an optional column is NaN, so one that spells NaN is refused."""
    for raw in rows:
        if raw.count(",") != 8:
            raise ValueError(f"expected 9 columns, got {raw.count(',') + 1}: {raw!r}")
    cells = ",".join(rows).split(",")  # row after row, so column j is cells[j::9]
    timestamps = list(map(dt.datetime.fromisoformat, cells[0::9]))
    columns = {name: np.array(list(map(float, cells[j::9])))
               for j, name in enumerate(_COLUMNS[:4], start=1)}
    for j, name in enumerate(_OPTIONAL, start=5):
        texts = cells[j::9]
        values = columns[name] = np.array([float(t) if t else math.nan for t in texts])
        if np.count_nonzero(np.isnan(values)) != texts.count(""):
            raise ValueError(f"{name} must be finite and >= 0 when given, got nan")
    return timestamps, columns, [folder / name if name else None for name in cells[8::9]]


def _spectrum_files(days: Sequence[FieldDay]) -> tuple[list[list[str]], dict[str, str]]:
    """Each record's spectrum file name (``""`` without a spectrum), day by
    day, and the text of each file by name: ``spectra/<n>.csv``, numbered
    from 1 in the order the texts are first seen. Each held value is read
    and formatted once, so records that hold one object or one path cost
    one format; records whose texts are equal share one file."""
    names: dict[str, str] = {}  # text -> file name, in first-seen order
    named: dict[Spectrum | Path, str] = {}  # held value -> file name

    def name(held: Spectrum | Path) -> str:
        rel = named.get(held)
        if rel is None:
            text = spectrum_csv_text(_spectrum(held))
            rel = named[held] = names.setdefault(text, f"spectra/{len(names) + 1}.csv")
        return rel

    rels = [[name(s) if s is not None else "" for s in day.spectra] for day in days]
    return rels, {rel: text for text, rel in names.items()}


def _write_field_day(day: FieldDay, out_dir: Path, spec_rels: list[str]) -> None:
    """Write one field day's CSV, naming each record's spectrum file in ``spec_rels``."""
    # A value is written with repr, which round-trips exactly; an empty cell is NaN.
    cells = zip(map(dt.datetime.isoformat, day.timestamps),
                *(["" if v != v else repr(v) for v in getattr(day, name).tolist()]
                  for name in _COLUMNS),
                spec_rels)
    write_text_atomic(out_dir / f"field_{day.date.isoformat()}.csv",
                      "\n".join([FIELD_HEADER, *map(",".join, cells)]) + "\n")


def _write_scans(weeks: Sequence[WeeklyMeasurement], out_dir: Path) -> None:
    """Write the coupon scans of ``weeks``, a week at a time."""
    for m in weeks:
        for role, scans in (("soiled", m.soiled_scans), ("control", m.control_scans)):
            for rep, scan in enumerate(scans, start=1):
                write_spectrum_csv(_spectrum(scan),
                                   out_dir / f"week{m.week_id:02d}_{role}_{rep}.csv")


def write_campaign_dir(weeks: Sequence[WeeklyMeasurement],
                       days: Sequence[FieldDay],
                       out_dir: str | Path) -> Path:
    """Write a complete campaign data directory the loader can ingest.

    Field spectra are written one file per distinct text: each is
    formatted once, before any file is written, and goes to
    ``spectra/<n>.csv``, numbered from 1 in the order first seen (days by
    date, records in row order). Every record whose spectrum has that text
    names the file in its ``spectrum_file`` column, so records that share
    a spectrum share its file. A scan or spectrum held as a path is read
    here, a field spectrum once per distinct path; one that cannot be read
    raises the reader's error before any file is written.

    A negative or repeated week id, a week without scans or with more
    than three of one role, or two field days of one date would write
    files the loader skips, drops or reads as one, so each raises
    ``ValueError`` naming it. An ``out_dir`` that already holds a file the
    loader reads (``manifest.yaml``, a ``field_*.csv`` or a scan file) or
    a spectrum file this call would write would mix two campaigns, so it
    raises ``FileExistsError`` naming ``out_dir`` and one such file. Every
    check runs before any file is written. A write that fails after that
    (say, on a scan held as a path that cannot be read) removes every file
    it wrote, and ``spectra/`` if it made it, before the error is raised.

    With ``fork``, this process writes the spectra, every field day and
    then the scans of the first two fifths of the weeks by id, rounded
    down, while one forked helper writes the other scans; the manifest
    comes last. Written in one process, the 520-week synth archive's
    spectra and field days took 0.54-1.05 s (medians 0.65 and 0.84 s over
    two rounds of 7) and its scans 1.85-4.46 s (medians 3.67 and 3.97 s),
    so the processes are about equally busy at 0.40-0.41 of the scans: two
    fifths is the round share at or below it. Without ``fork``, this
    process writes it all, its share first. Errors come as in one process,
    this process's first, so a failed helper does not cut the field days
    short; the helper's is its first failed scan write, with its type and
    file name, and a helper that dies raises ``OSError`` naming ``out_dir``.
    """
    weeks = sorted(weeks, key=lambda w: w.week_id)
    days = sorted(days, key=lambda d: d.date)
    if weeks and weeks[0].week_id < 0:
        raise ValueError(f"week id {weeks[0].week_id} is negative; week ids must be >= 0")
    for a, b in zip(weeks, weeks[1:]):
        if a.week_id == b.week_id:
            raise ValueError(f"week id {b.week_id} appears more than once")
    for m in weeks:
        if not m.soiled_scans and not m.control_scans:
            raise ValueError(f"week id {m.week_id} has no scans, so no file would hold it")
        for role, scans in (("soiled", m.soiled_scans), ("control", m.control_scans)):
            if len(scans) > 3:
                raise ValueError(f"week id {m.week_id} has {len(scans)} {role} scans; "
                                 f"scan files are numbered 1 to 3")
    _day_map(days)
    spec_rels, spectra = _spectrum_files(days)
    out_dir = Path(out_dir)
    if out_dir.is_dir():
        taken = [p.name for p in sorted(out_dir.iterdir()) if p.is_file() and _loader_file(p.name)]
        taken += [rel for rel in spectra if (out_dir / rel).is_file()]
        if taken:
            raise FileExistsError(f"{out_dir} already holds campaign file {taken[0]}; "
                                  f"write to a new directory or one without campaign files")
    out_dir.mkdir(parents=True, exist_ok=True)
    made_spectra_dir = bool(spectra) and not (out_dir / "spectra").is_dir()
    if made_spectra_dir:
        (out_dir / "spectra").mkdir()
    k = len(weeks) * 2 // 5

    def write_here() -> None:
        for rel, text in spectra.items():
            write_text_atomic(out_dir / rel, text)
        for day, rels in zip(days, spec_rels):
            _write_field_day(day, out_dir, rels)
        _write_scans(weeks[:k], out_dir)

    manifest: dict = {"cadence_days": CADENCE_DAYS}
    if weeks:
        first = weeks[0]
        manifest["start_date"] = first.scan_date.isoformat()
        regular = all(  # in days, so no date past the calendar is formed
            (m.scan_date - first.scan_date).days == CADENCE_DAYS * (m.week_id - first.week_id)
            for m in weeks
        )
        if not regular:
            manifest["weeks"] = [
                {"week_id": m.week_id, "scan_date": m.scan_date.isoformat()}
                for m in weeks
            ]
    try:
        _in_two(write_here, lambda part: _write_scans(part, out_dir), weeks[k:],
                f"{out_dir}: the helper process writing the coupon scans of {len(weeks) - k} weeks")
        write_text_atomic(out_dir / "manifest.yaml", yaml.safe_dump(manifest, sort_keys=True))
    except BaseException:
        _remove_written(out_dir, spectra, made_spectra_dir)
        raise
    return out_dir


def _remove_written(out_dir: Path, spectra: Iterable[str], made_spectra_dir: bool) -> None:
    """Remove what a failed :func:`write_campaign_dir` wrote to ``out_dir``,
    which its checks found holding none of it: every file the loader
    reads and the temp file of a write the helper was stopped in, the
    ``spectra`` files, and ``spectra/`` itself if the writer made it."""
    for p in out_dir.iterdir():
        if p.is_file() and _loader_file(_TMP_SUFFIX_RE.sub("", p.name)):
            p.unlink()
    for rel in spectra:
        (out_dir / rel).unlink(missing_ok=True)
    if made_spectra_dir:
        (out_dir / "spectra").rmdir()


def load_campaign_dir(data_dir: str | Path) -> tuple[list[WeeklyMeasurement], list[FieldDay]]:
    """Load a campaign data directory: its weeks in week-id order, its field days.

    Weekly scans follow the ``week<NN>_<soiled|control>_<1|2|3>.csv``
    convention; ``manifest.yaml`` may carry ``start_date`` and
    ``cadence_days`` (default :data:`CADENCE_DAYS`; scan dates default to
    start + cadence * week offset) plus explicit per-week ``scan_date``
    overrides. A manifest key other than ``start_date``, ``cadence_days``
    and ``weeks``, or a ``weeks`` entry key other than ``week_id`` and
    ``scan_date``, is a :class:`ConfigError`, and so are a week id that
    ``weeks`` lists twice or that has no scan files, two scan files that
    name one week, role and replicate (``week01_soiled_1.csv`` and
    ``week1_soiled_1.csv``), two field files whose records fall on one
    date and a week whose scan date, start + cadence * week offset, is
    past 9999-12-31.

    The manifest, the scan file names and every field-file row are read
    and checked here; no spectrum CSV is. Scans and field spectra are held
    as paths, which :func:`run_campaign` reads where a week uses them (see
    :func:`validate_week`); weeks whose scans cannot cover the analysis
    cell's full band are rejected there.
    """
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise FileNotFoundError(f"campaign data dir not found: {data_dir}")

    # Entries of one directory sort by name as Paths do, without Path.__lt__.
    days, day_files = [], {}
    for p in sorted(data_dir.glob("field_*.csv"), key=lambda p: p.name):
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
    for p in sorted(data_dir.iterdir(), key=lambda p: p.name):
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
        wid = typed(e, "week_id", int, manifest_path)
        if wid in overrides:
            raise ConfigError(f"{manifest_path}: week_id {wid} appears more than once in weeks")
        if wid not in scans:
            raise ConfigError(f"{manifest_path}: week_id {wid} in weeks has no scan files")
        overrides[wid] = typed(e, "scan_date", dt.date, manifest_path, default=None)
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

    # The last week dated from the start lands latest; past date.max it has no date.
    last = max((wid for wid in scans if overrides.get(wid) is None), default=first_wid)
    offset = cadence * (last - first_wid)
    if offset > (dt.date.max - start_date).days:
        scan = next(p for replicates in scans[last].values() for p in replicates.values())
        raise ConfigError(f"{scan}: week {last} scan date, start_date {start_date} + "
                          f"{last - first_wid} * cadence_days {cadence} days, is past {dt.date.max}")

    weeks = [
        WeeklyMeasurement(
            week_id=wid,
            scan_date=overrides.get(wid) or start_date + dt.timedelta(
                days=cadence * (wid - first_wid)),
            soiled_scans=[p for _, p in sorted(scans[wid]["soiled"].items())],
            control_scans=[p for _, p in sorted(scans[wid]["control"].items())],
        )
        for wid in sorted(scans)
    ]
    return weeks, days
