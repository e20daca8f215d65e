"""Synthetic soiling transmittance, spectra, and whole campaigns.

Measured coupon data is rarely at hand on a desk, so campaign-level
behaviour is exercised with a small generative model:

* soiling transmittance: tau(lambda) = exp(-k * (lambda_ref/lambda)**alpha),
  an Angstrom-like optical depth that is bounded in (0, 1], attenuates
  short wavelengths more (alpha > 0), and composes multiplicatively as
  deposits accumulate. It is a stand-in shape, not a fit to any measured
  curve.
* spectra: the bundled reference spectrum reshaped by
  (lambda_ref/lambda)**tilt and renormalised to the reference's broadband
  integral; tilt > 0 is blue-rich, tilt < 0 red-rich.
* campaigns: per week the optical depth grows by a fixed deposition,
  rain events wash a fraction of it away after that week's scan, and
  triplicate scans carry seeded multiplicative noise (default 0.2%, well
  below the 1% replicate rejection rule).
"""

from __future__ import annotations

import datetime as dt
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cell import CellModel, reference_spectrum
from .config import read_yaml, reject_unknown_keys, typed
from .errors import ConfigError, EmptyScenario
from .pipeline import FieldDay, WeeklyMeasurement
from .spectral import DIMENSIONLESS, Kind, Spectrum, Waveband, integrate, resample

__all__ = [
    "SoilingModel",
    "RainEvent",
    "CampaignScenario",
    "synth_tau",
    "synth_spectrum",
    "synth_campaign",
    "load_scenario",
]

TILT_REFERENCE_NM = 550.0


@dataclass(frozen=True)
class SoilingModel:
    """Angstrom-like soiling layer: tau = exp(-k * (lambda_ref/lambda)**alpha)."""

    k: float
    alpha: float
    lambda_ref_nm: float = 550.0

    def __post_init__(self) -> None:
        if self.k < 0.0:
            raise ValueError(f"optical-depth scale k must be >= 0, got {self.k}")
        if self.lambda_ref_nm <= 0.0:
            raise ValueError("lambda_ref_nm must be > 0")

    def tau_at(self, wavelengths_nm: np.ndarray) -> np.ndarray:
        wl = np.asarray(wavelengths_nm, dtype=float)
        return np.exp(-self.k * (self.lambda_ref_nm / wl) ** self.alpha)


def synth_tau(model: SoilingModel, grid) -> Spectrum:
    """Evaluate a soiling model on a wavelength grid."""
    g = np.asarray(grid, dtype=float)
    return Spectrum(g, model.tau_at(g), Kind.TRANSMITTANCE, DIMENSIONLESS)


def synth_spectrum(tilt: float, grid=None, reference: Spectrum | None = None) -> Spectrum:
    """Reshape the reference spectrum toward blue (tilt > 0) or red (< 0).

    The curve is multiplied by (lambda_ref/lambda)**tilt and rescaled so
    its broadband integral over its own support equals the base
    spectrum's; tilt = 0 returns the base unchanged.
    """
    base = reference if reference is not None else reference_spectrum()
    if grid is not None:
        base = resample(base, grid)
    if tilt == 0.0:
        return base
    w = base.wavelengths_nm
    shaped = base.with_values(base.values * (TILT_REFERENCE_NM / w) ** tilt)
    support = Waveband("support", *base.support)
    scale = integrate(base, support) / integrate(shaped, support)
    return shaped.with_values(shaped.values * scale)


@dataclass(frozen=True)
class RainEvent:
    """Washing event; the fraction of accumulated soiling removed."""

    week: int
    wash_fraction: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.wash_fraction <= 1.0):
            raise ValueError(f"wash_fraction must be in [0, 1], got {self.wash_fraction}")
        if self.week < 1:
            raise ValueError(f"rain week must be >= 1, got {self.week}")


@dataclass(frozen=True)
class CampaignScenario:
    """Knobs for a desk-scale synthetic campaign."""

    weeks: int
    deposition_per_week: float
    rain_weeks: tuple[RainEvent, ...] = ()
    spectrum_tilt: float = 0.0
    seed: int = 0
    alpha: float = 1.0
    lambda_ref_nm: float = 550.0
    noise_sigma: float = 0.002
    grid_min_nm: float = 300.0
    grid_max_nm: float = 2000.0
    grid_step_nm: float = 5.0
    start_date: dt.date = dt.date(2017, 1, 2)
    glass_transmittance: float = 0.92
    dni_peak_wm2: float = 850.0
    dni_to_gni: float = 0.85

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise EmptyScenario(f"scenario generates no weeks (weeks={self.weeks})")
        if self.deposition_per_week < 0.0:
            raise ValueError("deposition_per_week must be >= 0")
        if not (self.grid_min_nm < self.grid_max_nm and self.grid_step_nm > 0.0):
            raise ValueError("the grid needs grid_min_nm < grid_max_nm and grid_step_nm > 0")
        if self.seed < 0:
            raise ValueError(f"'seed' must be >= 0, got {self.seed}")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if not (0.0 < self.glass_transmittance <= 1.0):
            raise ValueError("glass_transmittance must be in (0, 1]")
        if 7 * (self.weeks - 1) > (dt.date.max - self.start_date).days:
            raise ValueError(f"week {self.weeks} would be scanned past {dt.date.max} "
                             f"(start_date {self.start_date})")
        object.__setattr__(self, "rain_weeks", tuple(self.rain_weeks))
        listed = set()
        for r in self.rain_weeks:
            if r.week in listed:
                raise ValueError(f"rain week {r.week} is listed more than once")
            if r.week > self.weeks:
                raise ValueError(f"rain week {r.week} is after the last week ({self.weeks})")
            listed.add(r.week)

    @property
    def grid(self) -> np.ndarray:
        n = int(round((self.grid_max_nm - self.grid_min_nm) / self.grid_step_nm)) + 1
        return np.linspace(self.grid_min_nm, self.grid_max_nm, n)


def _day_shape(minutes_since_8: np.ndarray, day_minutes: float) -> np.ndarray:
    # Zero at the 08:00/16:00 edges, one at noon.
    return np.sin(np.pi * minutes_since_8 / day_minutes)


@dataclass(frozen=True)
class _DayProfile:
    """The day-invariant columns of a field day, 08:00-16:00 at a 5-minute cadence."""

    offsets: tuple[dt.timedelta, ...]
    noon: np.ndarray  # True on the 12:00 row, which takes the day's rainfall
    irradiance: dict[str, np.ndarray]  # dni, gni, ghi and dhi
    spectra: tuple[Spectrum | None, ...]


def _day_profile(base_e: Spectrum, scenario: CampaignScenario) -> _DayProfile:
    """The columns every field day shares.

    Every field day has the same profile, so it is built once per campaign
    and all days share its irradiance values and frozen hourly spectra.
    """
    minutes = np.arange(0, 8 * 60 + 1, 5, dtype=float)
    shape = _day_shape(minutes, 8 * 60)
    spectra_minutes = {(h - 8) * 60 for h in range(9, 16)}  # hourly spectra 09:00-15:00
    dni = scenario.dni_peak_wm2 * shape
    gni = dni / scenario.dni_to_gni
    return _DayProfile(
        offsets=tuple(dt.timedelta(minutes=m) for m in minutes.tolist()),
        noon=minutes == 4 * 60,
        irradiance={"dni": dni, "gni": gni, "ghi": 0.75 * gni, "dhi": gni - dni},
        spectra=tuple(base_e.with_values(base_e.values * s) if m in spectra_minutes and s > 0.0
                      else None for m, s in zip(minutes.tolist(), shape.tolist())),
    )


def _field_day(date: dt.date, profile: _DayProfile, rainfall_mm: float, k: float) -> FieldDay:
    pm10 = np.full(len(profile.offsets), 20.0 + 200.0 * k)
    start = dt.datetime.combine(date, dt.time(8, 0))
    return FieldDay.from_columns(
        date, [start + offset for offset in profile.offsets], profile.spectra,
        rainfall_mm=np.where(profile.noon, rainfall_mm, 0.0), pm10=pm10, pm25=0.5 * pm10,
        **profile.irradiance)


def synth_campaign(scenario: CampaignScenario,
                   cell: CellModel | None = None,
                   ) -> tuple[list[WeeklyMeasurement], list[FieldDay]]:
    """Generate a campaign: weekly triplicate scans plus field days.

    Per week the optical depth grows by the deposition, that week's scan
    is taken, and any rain event then washes its fraction away, so a full
    wash returns the next week to the one-week-deposition state. Scan
    noise uses a per-week sub-seed derived from (seed, week), keeping
    generation deterministic and parallelizable across weeks.
    Every field day shares the same seven hourly spectra (09:00-15:00)
    and the same irradiance values; a day's records share its PM values.
    Every coupon scan holds one read-only grid array.
    """
    if cell is not None:
        lo, hi = scenario.grid_min_nm, scenario.grid_max_nm
        if cell.full_band.lambda_min_nm < lo or cell.full_band.lambda_max_nm > hi:
            raise ConfigError(
                f"scenario grid [{lo}, {hi}] nm does not cover cell full band "
                f"[{cell.full_band.lambda_min_nm}, {cell.full_band.lambda_max_nm}] nm"
            )
    grid = scenario.grid
    profile = _day_profile(synth_spectrum(scenario.spectrum_tilt, grid), scenario)
    wash = {r.week: r.wash_fraction for r in scenario.rain_weeks}
    glass = scenario.glass_transmittance
    scan = Spectrum(grid, np.full(grid.size, glass), Kind.TRANSMITTANCE)

    weeks: list[WeeklyMeasurement] = []
    days: list[FieldDay] = []
    k = 0.0
    for w in range(1, scenario.weeks + 1):
        k += scenario.deposition_per_week
        model = SoilingModel(k, scenario.alpha, scenario.lambda_ref_nm)
        tau_true = model.tau_at(grid)
        rng = np.random.default_rng([scenario.seed, w])
        soiled = []
        control = []
        for _ in range(3):
            noise_s = 1.0 + scenario.noise_sigma * rng.standard_normal(grid.size)
            noise_c = 1.0 + scenario.noise_sigma * rng.standard_normal(grid.size)
            soiled.append(scan.with_values(glass * tau_true * noise_s))
            control.append(scan.with_values(glass * noise_c))
        scan_date = scenario.start_date + dt.timedelta(days=7 * (w - 1))
        rainfall = 40.0 * wash.get(w, 0.0)
        weeks.append(
            WeeklyMeasurement(
                week_id=w,
                scan_date=scan_date,
                soiled_scans=tuple(soiled),
                control_scans=tuple(control),
            )
        )
        days.append(_field_day(scan_date, profile, rainfall, k))
        if w in wash:
            k *= 1.0 - wash[w]
    return weeks, days


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def load_scenario(path: str | Path) -> CampaignScenario:
    """Load a scenario YAML; its keys and types are those of :class:`CampaignScenario`."""
    path = Path(path)
    doc = read_yaml(path)
    kinds = typing.get_type_hints(CampaignScenario)
    reject_unknown_keys(doc, kinds, path, "scenario")
    rain = []
    for e in typed(doc, "rain_weeks", list, path, default=[]):
        rain.append((typed(e, "week", int, path), typed(e, "wash_fraction", float, path)))
        reject_unknown_keys(e, ("week", "wash_fraction"), path, "rain week")
    kwargs = {f.name: typed(doc, f.name, kinds[f.name], path, f.default)
              for f in fields(CampaignScenario) if f.name != "rain_weeks"}
    try:
        return CampaignScenario(rain_weeks=tuple(RainEvent(*r) for r in rain), **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
