"""Soiling indexes for multi-junction concentrator cells.

All indexes derive from two ingredients: junction short-circuit currents
(irradiance x soiling transmittance x spectral response, integrated over
the junction band) and broadband irradiance integrals over the cell's
full band.

* ``sratio``  - soiled/cleaned stack current (total soiling impact).
* ``bsratio`` - soiled/cleaned broadband irradiance (average attenuation).
* ``ssratio`` - sratio/bsratio, the purely spectral part of the impact.
* ``smr``     - top/mid current ratio normalised to the reference
  spectrum; with a soiling transmittance it is the soiled variant.
* ``smratio`` - soiled/cleaned SMR. The reference currents cancel, so it
  is the SMR form with the cleaned currents in place of the reference
  ones and never needs calibration: SMR and SMratio share one formula.
* ``ast``     - average of the soiling transmittance over a waveband,
  reported per band of ``CellModel.bands``.

SMR and SMratio take the cell's first two junctions, the top and middle
subcells of a standard stack.

The standalone functions and the report share each formula and its zero
and finiteness guards; a report with a zero index raises ``ZeroCurrent``,
one with a negative index (from a negative irradiance) raises
``NegativeIndex``, and an infinite or NaN index (an integral that
overflowed) or a day's summed irradiance that overflowed raises
``NonFiniteIndex``, so a campaign rejects that week. The identities
sratio == bsratio * ssratio and smratio == smr_soiled / smr_cleaned hold
to floating-point round-off by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cell import CellModel, jsc_cell, jsc_junction, stack_current
from .errors import (
    ControlBelowFloor,
    NegativeIndex,
    NonFiniteIndex,
    ZeroCleanCurrent,
    ZeroCurrent,
    ZeroDenominator,
)
from .spectral import (
    DIMENSIONLESS,
    TRANSMITTANCE_EPS,
    Kind,
    Spectrum,
    Waveband,
    integrate,
    integrate_product,
    integrate_rows,
    report_integrals,
    require_kind,
    sample_on_union,
)

__all__ = [
    "IndexReport",
    "Transmittance",
    "soiling_transmittance",
    "soiling_ratio",
    "clamp_ratio",
    "sratio",
    "bsratio",
    "ssratio",
    "smr",
    "smratio",
    "ast",
    "ast_rows",
    "index_report",
    "index_report_weighted",
    "CONTROL_FLOOR",
]

# Control-coupon transmittance below this value signals a corrupted scan:
# low-iron glass transmits far more than 5% everywhere in 300-2000 nm.
CONTROL_FLOOR = 0.05


class Transmittance(NamedTuple):
    """A soiling transmittance with the count of its noisy samples, kept in
    (1, 1 + 0.02], and of those clamped to that bound."""

    tau: Spectrum
    noisy: int
    clamped: int


def soiling_transmittance(soiled: Spectrum, control: Spectrum) -> Transmittance:
    """Soiling transmittance from a soiled/control coupon scan pair.

    The :func:`soiling_ratio` of the pair, soiled/control on the union
    grid over the overlap of the two scans, kept or clamped and counted
    by :func:`clamp_ratio`: values in (1, 1 + 0.02] are kept (noise) and
    counted as ``noisy``; values above that are clamped to the bound and
    counted as ``clamped``. A control value below :data:`CONTROL_FLOOR`
    anywhere in the overlap raises :class:`ControlBelowFloor`.
    """
    grid, ratio = soiling_ratio(soiled, control)
    tau, noisy, clamped = clamp_ratio(ratio)
    return Transmittance(Spectrum(grid, tau, Kind.TRANSMITTANCE, DIMENSIONLESS),
                         int(noisy), int(clamped))


def soiling_ratio(soiled: Spectrum, control: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The union grid of a soiled/control coupon scan pair over their
    overlap (see :func:`~soilspec.spectral.sample_on_union`) and the
    ratio soiled/control on it, before :func:`clamp_ratio`.

    Both scans must be transmittances (:class:`KindMismatch`); a control
    value below :data:`CONTROL_FLOOR` anywhere in the overlap raises
    :class:`ControlBelowFloor`.
    """
    require_kind(soiled, Kind.TRANSMITTANCE, "soiled scan")
    require_kind(control, Kind.TRANSMITTANCE, "control scan")
    grid, (s, c) = sample_on_union([soiled, control])
    if c.min() < CONTROL_FLOOR:
        raise ControlBelowFloor(
            f"control transmittance {c.min():.4g} below floor {CONTROL_FLOOR} "
            f"near {grid[int(np.argmin(c))]:.1f} nm"
        )
    return grid, s / c


def clamp_ratio(ratio: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Soiling transmittance values from :func:`soiling_ratio` ratios, with
    their noise counts: ``(values, noisy, clamped)``.

    ``ratio`` is one curve, or a stack of curves on one grid, one per
    row, counted per curve. A ratio in (1, 1 + 0.02] is kept and counted
    as noisy; one above that is clamped to the bound and counted as
    clamped.
    """
    hi = 1.0 + TRANSMITTANCE_EPS
    clamped = (ratio > hi).sum(axis=-1)
    noisy = (ratio > 1.0).sum(axis=-1) - clamped
    return np.minimum(ratio, hi), noisy, clamped


def ast(tau: Spectrum, band: Waveband) -> float:
    """Average spectral transmittance of soiling over a waveband."""
    require_kind(tau, Kind.TRANSMITTANCE, "soiling transmittance")
    return ast_rows(tau.wavelengths_nm, tau.values[None], band)[0]


def ast_rows(wavelengths_nm: np.ndarray, taus: np.ndarray, band: Waveband) -> list[float]:
    """The :func:`ast` of each row of ``taus``, a stack of soiling
    transmittance curves sampled on one grid, in one call (see
    :func:`~soilspec.spectral.integrate_rows`): each with the bits of
    :func:`ast` of a spectrum of that row."""
    return [x / band.width_nm for x in integrate_rows(wavelengths_nm, taus, band)]


def _sum_by_grid(spectra: Sequence[Spectrum]) -> list[Spectrum]:
    """One irradiance spectrum per distinct wavelength grid, in first-seen
    order, holding the sum of the values of the spectra on that grid; a sum
    that overflows raises :class:`NonFiniteIndex`.

    Grids are grouped by content, so equal grids held by different arrays
    share a group. A grid's bytes are read only when the grid array differs
    from the previous spectrum's, as it does not along spectra built by
    :meth:`Spectrum.with_values` from one another."""
    if len(spectra) == 1:
        return list(spectra)
    groups: dict[bytes, list[Spectrum]] = {}
    grid = key = None
    for e in spectra:
        if e.wavelengths_nm is not grid:
            grid = e.wavelengths_nm
            key = grid.tobytes()
        groups.setdefault(key, []).append(e)
    summed = []
    for group in groups.values():
        if len(group) == 1:
            summed.append(group[0])
            continue
        total = np.sum([e.values for e in group], axis=0)
        if not np.isfinite(total).all():
            raise NonFiniteIndex(f"the summed irradiance of {len(group)} spectra on one grid "
                                 f"is not finite")
        summed.append(group[0].with_values(total))
    return summed


# ---------------------------------------------------------------------------
# Index operations
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float, error: type[Exception], what: str) -> float:
    """num / den, raising ``error`` when the denominator is zero and
    :class:`NonFiniteIndex` when the quotient is infinite or NaN."""
    if den == 0.0:
        raise error(f"{what} is zero")
    q = num / den
    if not math.isfinite(q):
        raise NonFiniteIndex(f"ratio to the {what} is {q} ({num} / {den})")
    return q


def _matching(num: Mapping[str, float], den: Mapping[str, float], cell: CellModel) -> float:
    """The matching-ratio form (num_i / num_j) * (den_j / den_i) of SMR and
    SMratio, i and j being the cell's first two junctions (top and mid)."""
    i, j = cell.junctions[0].name, cell.junctions[1].name
    if num[j] == 0.0 or den[i] == 0.0:
        raise ZeroCurrent(f"matching-ratio denominator is zero ({j}: {num[j]}, {i}: {den[i]})")
    m = (num[i] / num[j]) * (den[j] / den[i])
    if not math.isfinite(m):
        raise NonFiniteIndex(f"{i}/{j} matching ratio is {m} "
                             f"({i}: {num[i]} / {den[i]}, {j}: {num[j]} / {den[j]})")
    return m


def sratio(e: Spectrum, cell: CellModel, tau: Spectrum) -> float:
    """Soiling ratio: soiled/cleaned stack short-circuit current."""
    clean = jsc_cell(e, cell).value
    return _ratio(jsc_cell(e, cell, tau).value, clean, ZeroCleanCurrent,
                  "cleaned stack current")


def bsratio(e: Spectrum, cell: CellModel, tau: Spectrum) -> float:
    """Broadband soiling ratio over the cell's full band."""
    require_kind(e, Kind.IRRADIANCE, "irradiance spectrum")
    require_kind(tau, Kind.TRANSMITTANCE, "soiling transmittance")
    den = integrate(e, cell.full_band)
    return _ratio(integrate_product(e, tau, band=cell.full_band), den, ZeroDenominator,
                  "broadband irradiance integral")


def ssratio(e: Spectrum, cell: CellModel, tau: Spectrum) -> float:
    """Spectral soiling ratio: sratio / bsratio."""
    b = bsratio(e, cell, tau)
    return _ratio(sratio(e, cell, tau), b, ZeroDenominator, "broadband soiling ratio")


def smr(e: Spectrum, cell: CellModel, tau: Spectrum | None = None) -> float:
    """Spectral matching ratio of the cell's first two junctions (top/mid).

    (J_top / J_mid) * (J_mid* / J_top*) with the starred currents taken
    under the cell's reference spectrum. With ``tau`` the currents are the
    soiled ones; without it, the cleaned ones.
    """
    currents = {j.name: jsc_junction(e, j, tau) for j in cell.junctions[:2]}
    return _matching(currents, cell.reference_currents, cell)


def smratio(e: Spectrum, cell: CellModel, tau: Spectrum) -> float:
    """Soiling mismatch ratio of the cell's first two junctions (top/mid).

    Soiled-to-cleaned SMR. The reference currents cancel, so this is
    computed as (J_soiled_top / J_soiled_mid) * (J_cleaned_mid / J_cleaned_top).
    """
    soiled = {j.name: jsc_junction(e, j, tau) for j in cell.junctions[:2]}
    cleaned = {j.name: jsc_junction(e, j) for j in cell.junctions[:2]}
    return _matching(soiled, cleaned, cell)


# ---------------------------------------------------------------------------
# The full report
# ---------------------------------------------------------------------------

_IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class IndexReport:
    """All soiling indexes for one instant (or one aggregated day).

    ``ast`` maps band name to average spectral transmittance; the first
    entry is the cell's full band, followed by the junction bands in
    stack order.
    """

    sratio: float
    bsratio: float
    ssratio: float
    smr_cleaned: float
    smr_soiled: float
    smratio: float
    ast: dict[str, float]
    limiting_cleaned: str
    limiting_soiled: str

    def __post_init__(self) -> None:
        for fname in ("sratio", "bsratio", "ssratio", "smr_cleaned", "smr_soiled", "smratio"):
            if not 0.0 < getattr(self, fname) < math.inf:
                raise ValueError(f"{fname} must be finite and > 0")
        if abs(self.sratio - self.bsratio * self.ssratio) > _IDENTITY_RTOL * abs(self.sratio):
            raise ValueError("identity sratio = bsratio * ssratio violated")
        if abs(self.smratio - self.smr_soiled / self.smr_cleaned) > _IDENTITY_RTOL * abs(self.smratio):
            raise ValueError("identity smratio = smr_soiled / smr_cleaned violated")
        for band, value in self.ast.items():
            if not (0.0 <= value <= 1.0 + TRANSMITTANCE_EPS):
                raise ValueError(f"ast[{band!r}] = {value} outside [0, {1.0 + TRANSMITTANCE_EPS}]")

    def to_dict(self) -> dict:
        """Flat mapping with stable keys (ast bands become ast_<name>)."""
        out: dict = {
            "sratio": self.sratio,
            "bsratio": self.bsratio,
            "ssratio": self.ssratio,
            "smr_cleaned": self.smr_cleaned,
            "smr_soiled": self.smr_soiled,
            "smratio": self.smratio,
            "limiting_cleaned": self.limiting_cleaned,
            "limiting_soiled": self.limiting_soiled,
        }
        for band, value in self.ast.items():
            out[f"ast_{band}"] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_header(self) -> str:
        return ",".join(self.to_dict().keys())

    def csv_row(self) -> str:
        cells = []
        for v in self.to_dict().values():
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        return ",".join(cells)


def index_report_weighted(spectra: Sequence[Spectrum], cell: CellModel,
                          tau: Spectrum) -> IndexReport:
    """Indexes from per-junction currents summed over several spectra.

    This is the daily-current-weighted aggregation: every current and
    broadband integral is summed over the given spectra before any ratio
    is taken. With a single spectrum it reduces exactly to the
    instantaneous report.

    Each current and integral is linear in the irradiance, so spectra
    that share a wavelength grid are summed first and evaluated once:
    there is one evaluation per distinct grid, and the results equal the
    per-spectrum sums up to floating-point round-off. Grids are told apart
    by their samples, not by the array holding them, and evaluated in the
    order each is first seen; so the report is the same, bit for bit,
    whether equal grids share one array or each spectrum has its own copy.
    Each grid's currents and broadband integrals, and with the first grid
    the AST band integrals of ``tau``, come from one
    :func:`report_integrals` call, whose every result has the bits of
    the :func:`jsc_junction`, :func:`integrate` or
    :func:`integrate_product` call it stands for.
    """
    if len(spectra) == 0:
        raise ValueError("need at least one irradiance spectrum")
    require_kind(tau, Kind.TRANSMITTANCE, "soiling transmittance")
    for e in spectra:
        require_kind(e, Kind.IRRADIANCE, "irradiance spectrum")
    n = len(cell.junctions)
    cleaned = {j.name: 0.0 for j in cell.junctions}
    soiled = {j.name: 0.0 for j in cell.junctions}
    b_clean = 0.0
    b_soil = 0.0
    responses = [(j.sr, j.band) for j in cell.junctions]
    bands = cell.bands  # integrated with the first grid only
    for e in _sum_by_grid(spectra):
        got = report_integrals(e, tau, responses, cell.full_band, bands)
        for j, c, s in zip(cell.junctions, got[0:2 * n:2], got[1:2 * n:2]):
            cleaned[j.name] += c
            soiled[j.name] += s
        b_clean += got[2 * n]
        b_soil += got[2 * n + 1]
        if bands:
            asts = {b.name: a / b.width_nm for b, a in zip(bands, got[2 * n + 2:])}
            bands = ()
    clean_stack = stack_current(cleaned, cell)
    soiled_stack = stack_current(soiled, cell)
    sr = _ratio(soiled_stack.value, clean_stack.value, ZeroCleanCurrent, "cleaned stack current")
    bs = _ratio(b_soil, b_clean, ZeroDenominator, "broadband irradiance integral")
    ss = _ratio(sr, bs, ZeroDenominator, "broadband soiling ratio")
    indexes = {
        "sratio": sr,
        "bsratio": bs,
        "ssratio": ss,
        "smr_cleaned": _matching(cleaned, cell.reference_currents, cell),
        "smr_soiled": _matching(soiled, cell.reference_currents, cell),
        "smratio": _matching(soiled, cleaned, cell),
    }
    bad = {name: value for name, value in indexes.items() if not value > 0.0}
    if bad:
        error = ZeroCurrent if 0.0 in bad.values() else NegativeIndex
        raise error("indexes must be > 0, got "
                    + ", ".join(f"{name} = {value}" for name, value in bad.items()))
    return IndexReport(
        **indexes,
        ast=asts,
        limiting_cleaned=clean_stack.limiting,
        limiting_soiled=soiled_stack.limiting,
    )


def index_report(e: Spectrum, cell: CellModel, tau: Spectrum) -> IndexReport:
    """All indexes for a single irradiance spectrum."""
    return index_report_weighted([e], cell, tau)
