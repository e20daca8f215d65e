"""Wavelength-grid data model and numerical substrate.

A :class:`Spectrum` is a sampled function of wavelength: an irradiance
density, a transmittance, or a spectral response. All downstream indexes
reduce to three operations on spectra: resampling onto a new grid,
pointwise products, and definite integrals over a :class:`Waveband`.

Curves on one grid take their band integrals from :func:`integrate_rows`,
which integrates each row of a stack, such as a week's replicate
transmittances, in one call. :func:`integrate` is its one-row case, and
:func:`integrate_product` its one-row case on the factors' product,
formed without building the product spectrum, so it equals
``integrate(pointwise_product(...), band)`` bit for bit.
A report's integrals come from a :class:`ReportLayout`, everything that
depends only on the grids (each junction's union grids, the SRs sampled
on them and where each band cuts its grid), built once and evaluated
with one ``np.interp`` call per spectrum and one reduction for every
band; each result has the bits of the single call it stands for. A cell
holds the layout it last built (see
:meth:`~soilspec.cell.CellModel.report_layout`).
:func:`pointwise_product` stays for callers that need the product curve.

Conventions
-----------
* Wavelengths are in nanometres, strictly increasing, at least two samples.
* Interpolation is linear and never extrapolates: ratios of spectra amplify
  extrapolation artifacts, so any request outside the sampled support is an
  error.
* Integration is the trapezoidal rule on the native sample grid, exact for
  piecewise-linear measured data; band limits are inserted by ``np.interp``
  unless both are samples, which it would give back bit for bit.
* Units ride along as a metadata tag, combined on multiplication; only a
  cell loading an SR or EQE file checks them. Every junction-current and
  index operation checks the kind of its inputs (:class:`KindMismatch`).
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import math
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BandOutOfSupport,
    GridOutOfSupport,
    KindMismatch,
    NoOverlap,
)

__all__ = [
    "Kind",
    "Spectrum",
    "Waveband",
    "resample",
    "integrate",
    "integrate_rows",
    "integrate_product",
    "ReportLayout",
    "pointwise_product",
    "sample_on_union",
    "read_spectrum_csv",
    "spectrum_csv_text",
    "write_spectrum_csv",
    "write_text_atomic",
    "IRRADIANCE_UNITS",
    "SR_UNITS",
    "DIMENSIONLESS",
    "CURRENT_DENSITY_UNITS",
    "TRANSMITTANCE_EPS",
]


class Kind(enum.Enum):
    """What a sampled curve physically represents."""

    IRRADIANCE = "Irradiance"
    TRANSMITTANCE = "Transmittance"
    SPECTRAL_RESPONSE = "SpectralResponse"


IRRADIANCE_UNITS = "W*m^-2*nm^-1"
SR_UNITS = "A*W^-1"
DIMENSIONLESS = "dimensionless"
CURRENT_DENSITY_UNITS = "A*m^-2*nm^-1"

# Headroom above 1.0 tolerated on transmittance values (measurement noise).
TRANSMITTANCE_EPS = 0.02

_DEFAULT_UNITS = {
    Kind.IRRADIANCE: IRRADIANCE_UNITS,
    Kind.TRANSMITTANCE: DIMENSIONLESS,
    Kind.SPECTRAL_RESPONSE: SR_UNITS,
}

# Product kind: the "densest" factor wins, so irradiance-weighted curves
# stay integrable as densities.
_KIND_RANK = {Kind.TRANSMITTANCE: 0, Kind.SPECTRAL_RESPONSE: 1, Kind.IRRADIANCE: 2}


def _combine_units(a: str, b: str) -> str:
    if a == DIMENSIONLESS:
        return b
    if b == DIMENSIONLESS:
        return a
    if {a, b} == {IRRADIANCE_UNITS, SR_UNITS}:
        return CURRENT_DENSITY_UNITS
    return f"{a}*{b}"


@dataclass(frozen=True)
class Waveband:
    """A named wavelength interval [lambda_min_nm, lambda_max_nm]."""

    name: str
    lambda_min_nm: float
    lambda_max_nm: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lambda_min_nm < self.lambda_max_nm):
            raise ValueError(
                f"waveband {self.name!r}: need 0 < lambda_min < lambda_max, "
                f"got [{self.lambda_min_nm}, {self.lambda_max_nm}]"
            )

    @property
    def width_nm(self) -> float:
        return self.lambda_max_nm - self.lambda_min_nm


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A sampled function of wavelength with unit metadata.

    Parameters
    ----------
    wavelengths_nm : array_like
        Sample wavelengths in nm, finite, strictly increasing, length >= 2.
    values : array_like
        Sample values, same length, all finite. Transmittance values must
        lie in [0, 1 + TRANSMITTANCE_EPS]; out-of-range values must be
        clamped explicitly with :meth:`clamped`, never silently.
    kind : Kind
        Physical meaning of the curve.
    units : str, optional
        Unit tag; defaults to the canonical units for ``kind``.
    """

    wavelengths_nm: np.ndarray
    values: np.ndarray
    kind: Kind
    units: str = field(default="")

    def __post_init__(self) -> None:
        if not isinstance(self.kind, Kind):
            raise TypeError(f"spectrum kind must be a Kind member, got {self.kind!r}")
        w = np.asarray(self.wavelengths_nm, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if w.ndim != 1 or v.ndim != 1 or w.size != v.size:
            raise ValueError("wavelengths and values must be 1-D and equal length")
        if w.size < 2:
            raise ValueError("a spectrum needs at least 2 samples")
        if not np.all(np.isfinite(w)):
            raise ValueError("wavelengths must be finite")
        if not np.all(w[1:] > w[:-1]):  # np.diff can overflow to inf and warn
            raise ValueError("wavelengths must be strictly increasing")
        w = w.copy()
        w.flags.writeable = False
        self._hold(w, v, self.kind, self.units)

    def _hold(self, w: np.ndarray, v: np.ndarray, kind: Kind, units: str) -> None:
        """Check the values ``v``, one per sample of the checked read-only
        grid ``w``, and hold ``w`` as given with a read-only copy of ``v``.
        The fields are set in declaration order, as ``__init__`` sets them,
        so that every spectrum has one attribute layout."""
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum values must be finite")
        if kind is Kind.TRANSMITTANCE:
            if v.min() < 0.0 or v.max() > 1.0 + TRANSMITTANCE_EPS:
                raise ValueError(
                    "transmittance values outside [0, "
                    f"{1.0 + TRANSMITTANCE_EPS}]: range "
                    f"[{v.min():.6g}, {v.max():.6g}]; clamp explicitly if intended"
                )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "wavelengths_nm", w)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "units", units or _DEFAULT_UNITS[kind])

    def __reduce__(self):
        # Rebuilt through __init__, which checks the arrays and makes them read-only again.
        return Spectrum, (self.wavelengths_nm, self.values, self.kind, self.units)

    # -- basic queries -------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        """(first, last) sampled wavelength."""
        return float(self.wavelengths_nm[0]), float(self.wavelengths_nm[-1])

    @property
    def n_samples(self) -> int:
        return int(self.wavelengths_nm.size)

    def covers(self, band: Waveband) -> bool:
        lo, hi = self.support
        return lo <= band.lambda_min_nm and band.lambda_max_nm <= hi

    def value_at(self, wavelength_nm: float) -> float:
        """Linear interpolation at one wavelength inside the support."""
        lo, hi = self.support
        if not (lo <= wavelength_nm <= hi):
            raise GridOutOfSupport(
                f"{wavelength_nm} nm outside support [{lo}, {hi}] nm"
            )
        return float(np.interp(wavelength_nm, self.wavelengths_nm, self.values))

    def clamped(self, lo: float = 0.0, hi: float = 1.0) -> "Spectrum":
        """Return a copy with values clipped to [lo, hi] (explicit request)."""
        return self.with_values(np.clip(self.values, lo, hi))

    def with_values(self, values: np.ndarray) -> "Spectrum":
        """A spectrum of this kind and units with new ``values`` on this
        spectrum's grid: the same read-only ``wavelengths_nm`` object, checked
        when this spectrum was built; the values are checked and copied."""
        return Spectrum.on_checked_grid(self.wavelengths_nm, values, self.kind, self.units)

    @staticmethod
    def on_checked_grid(wavelengths_nm: np.ndarray, values: np.ndarray, kind: Kind,
                        units: str = "") -> "Spectrum":
        """A spectrum on a grid that is already known to be valid: a
        spectrum's ``wavelengths_nm``, or the union of such grids that
        :func:`sample_on_union` returns, which is sorted and distinct by
        construction. The grid is held as given, not checked or copied
        again; a writable one is held through a read-only view. The values
        are checked and copied as ``Spectrum(...)`` checks and copies them,
        and ``units`` defaults to the canonical units for ``kind``."""
        w, v = wavelengths_nm, np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size != w.size:
            raise ValueError("wavelengths and values must be 1-D and equal length")
        if w.flags.writeable:
            w = w.view()
            w.flags.writeable = False
        s = Spectrum.__new__(Spectrum)
        s._hold(w, v, kind, units)
        return s


def resample(s: Spectrum, grid: Sequence[float] | np.ndarray) -> Spectrum:
    """Resample a spectrum onto a new wavelength grid.

    Linear interpolation, exact at original sample points; points outside
    the support raise :class:`GridOutOfSupport` (no extrapolation, ever).
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        # Single-point lookups go through value_at; a Spectrum needs >= 2
        # samples.
        raise ValueError("grid must be 1-D with at least 2 points; use value_at")
    if not np.all(g[1:] > g[:-1]):  # np.diff can overflow to inf and warn
        raise ValueError("grid must be strictly increasing")
    lo, hi = s.support
    if g[0] < lo or g[-1] > hi:
        raise GridOutOfSupport(
            f"grid [{g[0]}, {g[-1]}] nm exceeds support [{lo}, {hi}] nm"
        )
    vals = np.interp(g, s.wavelengths_nm, s.values)
    return Spectrum(g, vals, s.kind, s.units)


def _trapezoids(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The trapezoid of each interval of the samples (x, y), of each row
    of ``y`` for a stack: the one formula of every band integral."""
    return (x[1:] - x[:-1]) * (y[..., 1:] + y[..., :-1]) / 2.0


def _require_cover(first: float, last: float, band: Waveband) -> None:
    """Raise :class:`BandOutOfSupport` when the band leaves [first, last]."""
    if band.lambda_min_nm < first or band.lambda_max_nm > last:
        raise BandOutOfSupport(f"band {band.name!r} [{band.lambda_min_nm}, {band.lambda_max_nm}] nm "
                               f"not covered by support [{float(first)}, {float(last)}] nm")


def _band_cut(w: np.ndarray, band: Waveband) -> tuple[int, int, float | None, float | None]:
    """Where a band inside [w[0], w[-1]] cuts the grid ``w``: ``(i0, i1, d0,
    d1)``, with w[i0-1] <= lo < w[i0] and w[i1-1] < hi <= w[i1].

    ``d0`` and ``d1`` are None when both limits are samples (w[i0-1] == lo
    and w[i1] == hi), the whole grid among them: the trapezoids of w[i0-1]
    to w[i1] are then the band's as they stand, since closing them would
    take ``np.interp``'s values at the limits, the samples themselves, and
    redo the same operations on the same doubles. Otherwise the limits
    replace the samples outside them, and ``d0`` and ``d1`` are the widths
    of the two end trapezoids; a band inside one interval (i0 == i1) is
    one trapezoid, of width ``d0`` and with ``d1`` None.
    """
    lo, hi = band.lambda_min_nm, band.lambda_max_nm
    if lo == w.item(0) and hi == w.item(-1):
        return 1, w.size - 1, None, None
    # one search for both limits: the samples <= lo are those below the
    # next double up from lo
    i0, i1 = w.searchsorted((math.nextafter(lo, math.inf), hi)).tolist()
    if w.item(i0 - 1) == lo and w.item(i1) == hi:
        return i0, i1, None, None
    if i0 == i1:
        return i0, i1, hi - lo, None
    return i0, i1, w.item(i0) - lo, hi - w.item(i1 - 1)


def _end_terms(cuts: Sequence[tuple[int, int, float, float | None]], limits: Sequence[float],
               inner: Sequence[float]) -> list[float]:
    """The trapezoids that close each band of ``cuts`` (see :func:`_band_cut`),
    from ``limits``, the values ``np.interp`` gives at the two limits of
    each band, and ``inner``, its two samples next to them (``v[i0]`` and
    ``v[i1-1]``): the first and the last of a band's trapezoids, or the
    one of a band inside one interval. They have the bits of the
    trapezoids of the band's own samples."""
    terms: list[float] = []
    for k, (_, _, d0, d1) in enumerate(cuts):
        ylo, yhi = limits[2 * k], limits[2 * k + 1]
        if d1 is None:
            terms.append(d0 * (yhi + ylo) / 2.0)
        else:
            terms += d0 * (inner[2 * k] + ylo) / 2.0, d1 * (yhi + inner[2 * k + 1]) / 2.0
    return terms


def integrate(s: Spectrum, band: Waveband) -> float:
    """Definite integral of a spectrum over a waveband.

    Trapezoidal rule over all samples inside the band plus the two band
    endpoints inserted by interpolation. Exact for piecewise-linear
    integrands on the sample grid. Raises :class:`BandOutOfSupport` when
    the band leaves the spectrum's support.
    """
    return integrate_rows(s.wavelengths_nm, s.values[None], band)[0]


def integrate_rows(wavelengths_nm: np.ndarray, rows: np.ndarray, band: Waveband) -> list[float]:
    """The :func:`integrate` of each row of a stack of curves sampled on
    one grid, in one call: the one band integral of curves on a grid.

    ``wavelengths_nm`` is a spectrum's grid, as :class:`Spectrum` checks
    it, and ``rows`` a 2-D array of curves on it, one per row. The
    trapezoids of the band's samples are formed for the whole stack at
    once. A band whose limits are samples sums them as they are; any
    other replaces each row's first and last trapezoid with the ones that
    close it (see :func:`_band_cut` and :func:`_end_terms`) before the sum.
    Each row is summed alike whatever the stack's memory layout. Raises
    :class:`BandOutOfSupport` when the band leaves the grid.
    """
    w = wavelengths_nm
    _require_cover(w.item(0), w.item(-1), band)
    cut = i0, i1, d0, _ = _band_cut(w, band)
    # numpy sums each row of a C-ordered stack pairwise, as it sums one curve
    rows = np.ascontiguousarray(rows)
    t = _trapezoids(w[i0 - 1:i1 + 1], rows[:, i0 - 1:i1 + 1])
    if d0 is not None:
        limits = (band.lambda_min_nm, band.lambda_max_nm)
        for k in range(len(rows)):  # indexing: iterating an array costs about 0.5 us more
            v = rows[k]
            ends = _end_terms((cut,), np.interp(limits, w, v).tolist(), (v.item(i0), v.item(i1 - 1)))
            t[k, 0], t[k, -1] = ends[0], ends[-1]
    return np.add.reduce(t, axis=1).tolist()


def _equal_grids(w: np.ndarray, g: np.ndarray) -> bool:
    """Whether two grids are the same array, or of one size and equal."""
    return w is g or (w.size == g.size and bool((w == g).all()))


def _no_overlap(spectra: Sequence[Spectrum]) -> NoOverlap:
    return NoOverlap("spectra supports do not overlap: "
                     + ", ".join(f"[{s.support[0]}, {s.support[1]}]" for s in spectra))


def _union(grids: Sequence[np.ndarray], lo: float, hi: float) -> np.ndarray:
    """The distinct points of the grids in [lo, hi], sorted; lo and hi are
    points of the grids."""
    pts = np.concatenate(grids)
    pts.sort(kind="stable")  # the grids are sorted runs, which a stable sort merges
    # Cut [lo, hi] (both sample points, so kept) and keep the first of each
    # run of equal points. That is np.unique's bytes as long as equal points
    # share their bytes: no grid mixes 0.0 with -0.0.
    pts = pts[pts.searchsorted(lo, side="left"):pts.searchsorted(hi, side="right")]
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    np.not_equal(pts[1:], pts[:-1], out=keep[1:])
    return pts[keep]


def sample_on_union(spectra: Sequence[Spectrum]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The union of the spectra's grids over the overlap of their supports
    and each one's values on it. When every grid is the first one's (see
    :func:`_equal_grids`), that grid is the union and is returned as it is;
    a spectrum on the union keeps its own read-only ``values``, which
    ``np.interp`` would reproduce bit for bit."""
    if not spectra:
        raise ValueError("need at least one spectrum")
    grid = spectra[0].wavelengths_nm
    for s in spectra[1:]:  # a loop: all() over a generator costs about 1 us more a call
        if not _equal_grids(s.wavelengths_nm, grid):
            break
    else:
        return grid, [s.values for s in spectra]
    lo = max([s.wavelengths_nm[0] for s in spectra])
    hi = min([s.wavelengths_nm[-1] for s in spectra])
    if lo >= hi:
        raise _no_overlap(spectra)
    grid = _union([s.wavelengths_nm for s in spectra], lo, hi)
    # grid.size points from lo to hi, all of them union points, are the union.
    return grid, [s.values if (w := s.wavelengths_nm).size == grid.size and w[0] == lo
                  and w[-1] == hi else np.interp(grid, w, s.values) for s in spectra]


def _product(spectra: Sequence[Spectrum]) -> tuple[np.ndarray, np.ndarray]:
    """Union grid of the factors and their product sampled on it."""
    grid, (vals, *rest) = sample_on_union(spectra)
    for v in rest:
        vals = vals * v
    return grid, vals


def pointwise_product(*spectra: Spectrum) -> Spectrum:
    """Pointwise product of two or more spectra.

    Each factor is resampled onto the union of the sample grids restricted
    to the overlap of the supports, so no measured sample inside the
    overlap is lost. Units are multiplied; the result kind is the densest
    of the factor kinds (irradiance > spectral response > transmittance).
    """
    if len(spectra) < 2:
        raise ValueError("need at least two spectra")
    grid, vals = _product(spectra)
    units = DIMENSIONLESS
    for s in spectra:
        units = _combine_units(units, s.units)
    kind = max((s.kind for s in spectra), key=_KIND_RANK.__getitem__)
    return Spectrum(grid, vals, kind, units)


def integrate_product(*spectra: Spectrum, band: Waveband) -> float:
    """Integral over ``band`` of the pointwise product of the spectra.

    Equal to ``integrate(pointwise_product(*spectra), band)``, bit for
    bit, without building the product :class:`Spectrum`: the factors are
    multiplied in argument order on their union grid and the band
    trapezoid is applied to the result. The product is not checked for
    finite values. Raises :class:`NoOverlap` when the supports do not
    overlap and :class:`BandOutOfSupport` when the overlap does not
    cover the band.
    """
    grid, vals = _product(spectra)
    return integrate_rows(grid, vals[None], band)[0]


class ReportLayout:
    """The part of a report's band integrals that depends only on the
    grids, built before a value is read.

    Built from an irradiance ``e`` and a soiling transmittance ``tau``, of
    which it reads only the grids, a cell's ``(sr, band)`` pairs in stack
    order (``responses``), its ``full_band`` and the AST bands
    ``tau_bands``. :meth:`integrals` returns, for each pair, its cleaned
    current and then its soiled one, with the bits of
    ``integrate_product(e, sr, band=band)`` and ``integrate_product(e,
    tau, sr, band=band)``; then those of ``integrate(e, full_band)`` and
    ``integrate_product(e, tau, band=full_band)``; then those of
    ``integrate(tau, b)`` for each band ``b`` of ``tau_bands``. Building
    checks the supports in the order of those single calls, so the first
    that would raise :class:`NoOverlap` or :class:`BandOutOfSupport`
    raises it here, with the same message. The layout holds:

    * each junction's union of E's and its SR's grids (cleaned current),
      and of E's, tau's and its SR's (soiled current), which are one union
      when tau is on E's grid (see :meth:`fits`); and the union of E's
      and tau's grids, which is then E's grid. It builds them with
      :func:`_union`, from the overlaps it has already checked;
    * those grids laid end to end with E's and tau's, and the differences
      of that concatenated grid;
    * each SR sampled on its junction's unions;
    * where each band cuts its product's grid (see :func:`_band_cut`) and
      the offsets of the one ``np.add.reduceat`` call that sums every band.

    :meth:`integrals` evaluates it for an E and a tau on the grids it was
    built for, and :meth:`fits` tells whether they are. A layout is not
    changed after it is built, so threads may share one.
    """

    __slots__ = ("_we", "_wt", "_shared", "_x_e", "_x_tau", "_at", "_n_clean", "_n_sr", "_sr",
                 "_dx", "_interps", "_tau_limits", "_cuts", "_inner", "_gather", "_scatter",
                 "_zeros", "_firsts")

    def __init__(self, e: Spectrum, tau: Spectrum,
                 responses: Sequence[tuple[Spectrum, Waveband]], full_band: Waveband,
                 tau_bands: Sequence[Waveband]) -> None:
        we, wt = e.wavelengths_nm, tau.wavelengths_nm
        shared = _equal_grids(we, wt)
        e0, e1, t0, t1 = we.item(0), we.item(-1), wt.item(0), wt.item(-1)
        cleaned: list[np.ndarray] = []  # each junction's union for E * SR
        soiled: list[np.ndarray] = []  # and for E * tau * SR
        for sr, band in responses:
            ws = sr.wavelengths_nm
            lo, hi = max(e0, ws.item(0)), min(e1, ws.item(-1))
            if lo >= hi:
                raise _no_overlap((e, sr))
            _require_cover(lo, hi, band)
            cleaned.append(we if _equal_grids(we, ws) else _union((we, ws), lo, hi))
            if not shared:
                lo, hi = max(lo, t0), min(hi, t1)
                if lo >= hi:
                    raise _no_overlap((e, tau, sr))
                _require_cover(lo, hi, band)
                soiled.append(_union((we, wt, ws), lo, hi))
        _require_cover(e0, e1, full_band)
        if shared:
            soiled, w = cleaned, we
        else:
            lo, hi = max(e0, t0), min(e1, t1)
            if lo >= hi:
                raise _no_overlap((e, tau))
            _require_cover(lo, hi, full_band)
            w = _union((we, wt), lo, hi)
        for band in tau_bands:
            _require_cover(t0, t1, band)

        # The products' grids end to end: the cleaned currents', the soiled
        # ones', then those of E * tau, E and tau.
        n = len(cleaned)
        grids = [*cleaned, *soiled, w, we, wt]
        x = np.concatenate(grids)
        starts = list(itertools.accumulate([g.size for g in grids], initial=0))
        # E is sampled on x[:end], the unions and w, and tau on x[at:end], the
        # soiled unions and w, where E * tau is formed. When tau is on E's grid
        # the soiled unions are the cleaned ones and w is E's grid, so both are
        # sampled on the cleaned unions alone.
        at, end = (0, starts[n]) if shared else (starts[n], starts[2 * n + 1])
        # Each SR is sampled with one np.interp call over its junction's unions.
        sr_clean, sr_soiled = [], []
        for (sr, _), a, b in zip(responses, cleaned, soiled):
            s = np.interp(a if shared else np.concatenate((a, b)), sr.wavelengths_nm, sr.values)
            sr_clean.append(s[:a.size])
            sr_soiled.append(s[-b.size:])
        self._we, self._wt, self._shared = we, wt, shared
        self._x_e, self._x_tau, self._at = x[:end], x[at:end], at
        self._n_clean, self._n_sr = starts[n], starts[2 * n]
        self._sr = np.concatenate([*sr_clean, *sr_soiled]) if n else x[:0]
        self._dx = x[1:] - x[:-1]

        # Each band: its product's segment of the concatenated values, and
        # where it cuts that segment's grid. Its terms go behind a 0.0 into
        # one array, gathered from the trapezoids at once, and its end
        # trapezoids and the 0.0s are written over their places, so that
        # one np.add.reduceat call sums every band: it adds a band's
        # trapezoids to the 0.0 before them, as np.add.reduce adds them to
        # 0.0, so with its bits.
        segments = []
        for j, (_, band) in enumerate(responses):
            segments += (j, band), (n + j, band)
        segments += (2 * n + 1, full_band), (2 * n, full_band)
        segments += [(2 * n + 2, band) for band in tau_bands]
        self._interps, self._tau_limits, self._cuts = [], [], []
        firsts, sizes, offsets, ends, inner = [], [], [], [], []
        size = 0
        for g, band in segments:
            i, j = starts[g], starts[g + 1]
            cut = i0, i1, d0, d1 = _band_cut(grids[g], band)
            firsts.append(size)
            source, count = i + i0 - 1, i1 - i0 + 1
            if d0 is not None:
                limits = (band.lambda_min_nm, band.lambda_max_nm)
                if g == 2 * n + 2:
                    self._tau_limits += limits
                else:
                    self._interps.append((limits, grids[g], i, j))
                self._cuts.append(cut)
                inner += i + i0, i + i1 - 1  # the samples next to the limits
                ends += (size + 1,) if d1 is None else (size + 1, size + count)
            # where the band's 0.0 and terms are taken from the trapezoids:
            # its 0.0 from the place before its first term, which it replaces
            offsets.append(source - size - 1)
            sizes.append(count + 1)
            size += count + 1
        m, k = len(firsts), len(firsts) + len(ends)
        places = np.array(firsts + ends + inner + offsets + sizes, dtype=np.intp)
        self._firsts, self._scatter, self._inner = places[:m], places[:k], places[k:k + len(inner)]
        self._gather = places[-2 * m:-m].repeat(places[-m:])
        self._gather += np.arange(size)
        self._zeros = [0.0] * len(firsts)

    def fits(self, e: Spectrum, tau: Spectrum) -> bool:
        """Whether ``e`` and ``tau`` are on the grids this layout was built
        for: each the same array, or of the same size and then with the
        same samples."""
        return (_equal_grids(e.wavelengths_nm, self._we)
                and _equal_grids(tau.wavelengths_nm, self._wt))

    def integrals(self, e: Spectrum, tau: Spectrum) -> list[float]:
        """The band integrals of E under tau, in the order that
        :class:`ReportLayout` gives. E and tau must be on the grids the
        layout was built for (see :meth:`fits`).

        E and tau are each sampled with one ``np.interp`` call over all the
        unions they are needed on; at a point of its own grid ``np.interp``
        gives a spectrum's sample back, so a factor whose grid is the union
        keeps its values. Each product is formed in argument order, the
        products are laid out end to end with E and tau, and their
        trapezoids are formed at once. A band whose limits are not both
        samples is closed on its grid; one ``np.add.reduceat`` sums all.
        """
        ev = np.interp(self._x_e, e.wavelengths_nm, e.values)
        et = ev[self._at:] * np.interp(self._x_tau, tau.wavelengths_nm, tau.values)
        # E * tau is a part of et unless tau is on E's grid
        ew = (e.values * tau.values,) if self._shared else ()
        y = np.concatenate((ev[:self._n_clean], et, *ew, e.values, tau.values))
        y[:self._n_sr] *= self._sr
        t = y[1:] + y[:-1]  # the trapezoids, as _trapezoids forms them, in place
        t *= self._dx
        t /= 2.0
        limits = []  # the values at each cut band's limits
        for lims, w, i, j in self._interps:
            limits += np.interp(lims, w, y[i:j]).tolist()
        if self._tau_limits:
            limits += np.interp(self._tau_limits, tau.wavelengths_nm, tau.values).tolist()
        terms = t[self._gather]
        terms[self._scatter] = self._zeros + _end_terms(self._cuts, limits,
                                                        y[self._inner].tolist())
        return np.add.reduceat(terms, self._firsts).tolist()


def require_kind(s: Spectrum, kind: Kind, what: str) -> None:
    """Gate an operation on the spectrum kind; raises KindMismatch."""
    if s.kind is not kind:
        raise KindMismatch(f"{what} must be kind {kind.value}, got {s.kind.value}")


# ---------------------------------------------------------------------------
# File format: two-column CSV with a sidecar metadata line, e.g.
#
#   # kind=Irradiance units=W*m^-2*nm^-1
#   wavelength_nm,value
#   300.0,0.0125
# ---------------------------------------------------------------------------

_META_RE = re.compile(r"^#\s*kind=(\S+)\s+units=(\S+)\s*$")
_HEADER = "wavelength_nm,value"


def read_spectrum_csv(path: str | Path) -> Spectrum:
    """Read a spectrum from the two-column CSV format.

    The first line must be the sidecar metadata line
    ``# kind=<Irradiance|Transmittance|SpectralResponse> units=<...>``;
    additional ``#`` comment lines after it are skipped. A file that is
    not UTF-8, or a data row that is not two comma-separated numbers,
    raises ``ValueError`` naming the file (and ``path:line`` for a row).

    The file is read once. The body is parsed with one
    :func:`numpy.loadtxt` call. When that does not give an ``(n, 2)``
    array, the rows are walked one by one with ``float``, which accepts
    what ``float`` accepts (blank lines, ``1_000``) and numbers the first
    bad row as it reaches it; both parsers give bit-identical values.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    m = _META_RE.match(lines[0])
    if m is None:
        raise ValueError(
            f"{path}: first line must be '# kind=<...> units=<...>', got {lines[0]!r}"
        )
    kind_name, units = m.group(1), m.group(2)
    try:
        kind = Kind(kind_name)
    except ValueError:
        raise ValueError(f"{path}: unknown spectrum kind {kind_name!r}") from None
    lines.append("")  # a file that ends early has an empty header line
    head = 1
    while lines[head].startswith("#"):
        head += 1
    if lines[head] != _HEADER:
        raise ValueError(f"{path}: expected header {_HEADER!r}, got {lines[head]!r}")
    body = lines[head + 1:]
    data = None
    # A body without rows makes loadtxt warn, so one whose first line is
    # blank takes the row walk.
    if body[0].strip():
        with contextlib.suppress(ValueError):
            data = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
    if data is not None and data.shape[1] == 2 and len(data):
        wl, vals = data[:, 0], data[:, 1]
    else:
        wl, vals = [], []
        for lineno, raw in enumerate(body, start=head + 2):
            raw = raw.strip()
            if not raw:
                continue
            try:
                a, b = raw.split(",")
                wl.append(float(a))
                vals.append(float(b))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected 'wavelength_nm,value' numbers, got {raw!r}"
                ) from None
    try:
        return Spectrum(np.asarray(wl), np.asarray(vals), kind, units)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_text_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write a text file via temp-then-rename so readers never see a torn file.

    ``text`` is a ``str``, written whole, or an iterable of ``str`` chunks,
    written one after another as they come, so a large document (say, the
    chunks of an encoder that yields JSON as it goes) never exists as one
    string. The temp name is unique to the writing process and thread, so
    concurrent writers of one path each rename a whole file of their own
    and the last rename wins. If writing fails, the temp file is removed
    and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def spectrum_csv_text(s: Spectrum) -> str:
    """A spectrum in the two-column CSV format, as the text of the file.

    Floats are written with ``repr``, which round-trips exactly.
    """
    rows = zip(map(repr, s.wavelengths_nm.tolist()), map(repr, s.values.tolist()))
    body = "\n".join(map(",".join, rows))
    return f"# kind={s.kind.value} units={s.units}\n{_HEADER}\n{body}\n"


def write_spectrum_csv(s: Spectrum, path: str | Path) -> None:
    """Write a spectrum in the two-column CSV format (deterministic, atomic)."""
    write_text_atomic(path, spectrum_csv_text(s))
