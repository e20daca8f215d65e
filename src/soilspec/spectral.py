"""Wavelength-grid data model and numerical substrate.

A :class:`Spectrum` is a sampled function of wavelength: an irradiance
density, a transmittance, or a spectral response. All downstream indexes
reduce to three operations on spectra: resampling onto a new grid,
pointwise products, and definite integrals over a :class:`Waveband`.

Junction currents and soiled broadband integrals are integrals of a
product; :func:`integrate_product` computes them from the factors'
arrays without building the product spectrum, and equals
``integrate(pointwise_product(...), band)`` bit for bit.
:func:`pointwise_product` stays for callers that need the product curve.

Conventions
-----------
* Wavelengths are in nanometres, strictly increasing, at least two samples.
* Interpolation is linear and never extrapolates: ratios of spectra amplify
  extrapolation artifacts, so any request outside the sampled support is an
  error.
* Integration is the trapezoidal rule on the native sample grid with the
  band endpoints inserted by interpolation. Measured spectra are
  piecewise-linear samples, so the rule is exact for the data as given.
* Units ride along as a metadata tag, combined on multiplication; only a
  cell loading an SR or EQE file checks them. Every junction-current and
  index operation checks the kind of its inputs (:class:`KindMismatch`).
"""

from __future__ import annotations

import contextlib
import enum
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
    "integrate_product",
    "pointwise_product",
    "union_grid",
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
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size != self.wavelengths_nm.size:
            raise ValueError("wavelengths and values must be 1-D and equal length")
        s = Spectrum.__new__(Spectrum)
        s._hold(self.wavelengths_nm, v, self.kind, self.units)
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


def _band_trapezoid(w: np.ndarray, v: np.ndarray, band: Waveband) -> float:
    """Trapezoid of samples (w, v) over a band, endpoints interpolated.

    The band's interior samples are bracketed by the two band limits, at
    the values interpolated there. Raises :class:`BandOutOfSupport` when
    the band leaves [w[0], w[-1]].
    """
    lo, hi = band.lambda_min_nm, band.lambda_max_nm
    w0, wn = w[0], w[-1]
    if lo < w0 or hi > wn:
        raise BandOutOfSupport(
            f"band {band.name!r} [{lo}, {hi}] nm not covered by support "
            f"[{float(w0)}, {float(wn)}] nm"
        )
    if lo == w0 and hi == wn:  # np.interp would return the end samples
        x, y = w, v
    else:
        i0 = int(w.searchsorted(lo, side="right"))
        i1 = int(w.searchsorted(hi, side="left"))
        # w[i0-1] <= lo < w[i0] and w[i1-1] < hi <= w[i1]: the slice holds the
        # interior samples plus one on each side, which the limits replace.
        # np.interp finds the same interval, so the same bits, in the slice.
        x, y = w[i0 - 1:i1 + 1].copy(), v[i0 - 1:i1 + 1].copy()
        y[0], y[-1] = np.interp((lo, hi), x, y)
        x[0], x[-1] = lo, hi
    return float(((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0).sum())


def integrate(s: Spectrum, band: Waveband) -> float:
    """Definite integral of a spectrum over a waveband.

    Trapezoidal rule over all samples inside the band plus the two band
    endpoints inserted by interpolation. Exact for piecewise-linear
    integrands on the sample grid.
    """
    return _band_trapezoid(s.wavelengths_nm, s.values, band)


def union_grid(spectra: Iterable[Spectrum]) -> np.ndarray:
    """Union of sample grids restricted to the common overlap."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("need at least one spectrum")
    lo = max([s.wavelengths_nm[0] for s in spectra])
    hi = min([s.wavelengths_nm[-1] for s in spectra])
    if lo >= hi:
        raise NoOverlap(
            "spectra supports do not overlap: "
            + ", ".join(f"[{s.support[0]}, {s.support[1]}]" for s in spectra)
        )
    pts = np.concatenate([s.wavelengths_nm for s in spectra])
    pts.sort()
    # Cut [lo, hi] (both sample points, so kept) and keep the first of each
    # run of equal points. That is np.unique's bytes as long as equal points
    # share their bytes: no grid mixes 0.0 with -0.0.
    pts = pts[pts.searchsorted(lo, side="left"):pts.searchsorted(hi, side="right")]
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    np.not_equal(pts[1:], pts[:-1], out=keep[1:])
    return pts[keep]


def sample_on_union(spectra: Sequence[Spectrum]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The :func:`union_grid` of the spectra and each one's values on it:
    its own read-only ``values`` for a spectrum already on that grid, which
    ``np.interp`` would reproduce bit for bit."""
    grid = union_grid(spectra)
    lo, hi, n = grid[0], grid[-1], grid.size
    # n points from lo to hi, all of them union points, are the union.
    return grid, [s.values if (w := s.wavelengths_nm).size == n and w[0] == lo and w[-1] == hi
                  else np.interp(grid, w, s.values) for s in spectra]


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
    return _band_trapezoid(*_product(spectra), band)


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
    written one after another as they come, so a large document (say,
    from ``json.JSONEncoder.iterencode``) never exists as one string. The
    temp name is unique to the writing process and thread, so concurrent
    writers of one path each rename a whole file of their own and the last
    rename wins. If writing fails, the temp file is removed and ``path``
    is left as it was.
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
