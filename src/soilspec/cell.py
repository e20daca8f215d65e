"""Multi-junction cell description and short-circuit current integrals.

A :class:`CellModel` is an ordered stack of :class:`Junction` objects
(waveband + spectral response), a reference spectrum and the name of
its full absorption band, which is the span of the junction bands; the
per-junction reference currents are computed under the reference
spectrum. The stack current is the minimum junction current over the
junctions eligible to limit; by default the germanium-style bottom
junction of a 3J stack is excluded from that minimum because its large
current excess keeps it from limiting under realistic soiling.

Spectral responses are external data. Configs may supply EQE curves
instead of SR; the loader converts with SR(lambda) = EQE * lambda * q/(h*c)
using exact SI values for q, h, c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .config import read_yaml, reject_unknown_keys, typed
from .errors import (
    BandCoverage,
    ConfigError,
    KindMismatch,
    MissingReferenceSpectrum,
    NoEligibleJunction,
    SoilspecError,
)
from .spectral import (
    DIMENSIONLESS,
    SR_UNITS,
    Kind,
    ReportLayout,
    Spectrum,
    Waveband,
    integrate_product,
    read_spectrum_csv,
    require_kind,
)

__all__ = [
    "Junction",
    "CellModel",
    "JscResult",
    "jsc_junction",
    "jsc_cell",
    "stack_current",
    "boxcar_cell",
    "load_cell",
    "eqe_to_sr",
    "reference_spectrum",
    "reference_spectrum_path",
    "ELEMENTARY_CHARGE_C",
    "PLANCK_J_S",
    "LIGHT_SPEED_M_S",
]

# Exact SI defining constants (2019 redefinition).
ELEMENTARY_CHARGE_C = 1.602176634e-19
PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 299792458.0


def eqe_to_sr(eqe: Spectrum) -> Spectrum:
    """Convert an external-quantum-efficiency curve to spectral response.

    SR(lambda) = EQE(lambda) * lambda * q / (h c), with lambda in metres.
    The input must be a dimensionless SpectralResponse-kind curve.
    """
    require_kind(eqe, Kind.SPECTRAL_RESPONSE, "EQE curve")
    if eqe.units != DIMENSIONLESS:
        raise KindMismatch(
            f"EQE curve must be dimensionless, got units {eqe.units!r}"
        )
    lam_m = eqe.wavelengths_nm * 1e-9
    sr_vals = eqe.values * lam_m * (ELEMENTARY_CHARGE_C / (PLANCK_J_S * LIGHT_SPEED_M_S))
    return Spectrum(eqe.wavelengths_nm, sr_vals, Kind.SPECTRAL_RESPONSE, SR_UNITS)


@dataclass(frozen=True)
class Junction:
    """One subcell: a waveband plus its spectral response.

    ``limiting_eligible`` marks whether the junction participates in the
    stack-current minimum.
    """

    name: str
    band: Waveband
    sr: Spectrum
    limiting_eligible: bool = True

    def __post_init__(self) -> None:
        require_kind(self.sr, Kind.SPECTRAL_RESPONSE, f"junction {self.name!r} SR")
        if not self.sr.covers(self.band):
            lo, hi = self.sr.support
            raise BandCoverage(
                f"junction {self.name!r}: SR support [{lo}, {hi}] nm does not "
                f"cover band [{self.band.lambda_min_nm}, {self.band.lambda_max_nm}] nm"
            )
        if self.sr.values.min() < 0.0:
            raise ValueError(f"junction {self.name!r}: SR values must be >= 0")


class JscResult(NamedTuple):
    """Stack current, name of the limiting junction, and a tie flag."""

    value: float
    limiting: str
    tie: bool


def jsc_junction(e: Spectrum, junction: Junction, tau: Spectrum | None = None) -> float:
    """Short-circuit current density of one junction, in A*m^-2.

    Integrates E(lambda) * [tau(lambda)] * SR(lambda) over the junction
    band. ``tau`` is the soiling transmittance; omit it for the cleaned
    current.
    """
    require_kind(e, Kind.IRRADIANCE, "irradiance spectrum")
    if tau is None:
        return integrate_product(e, junction.sr, band=junction.band)
    require_kind(tau, Kind.TRANSMITTANCE, "soiling transmittance")
    return integrate_product(e, tau, junction.sr, band=junction.band)


@dataclass(frozen=True)
class CellModel:
    """An ordered multi-junction stack with reference calibration.

    The cell holds only its inputs; two fields are derived from them at
    construction. ``full_band`` is the band named ``full_band_name`` that
    spans the junction bands, and ``reference_currents`` are the
    per-junction currents under ``reference_spectrum``. Band names,
    the full band's included, must be unique.

    Besides its fields, a cell holds the last report layout it built (see
    :meth:`report_layout`): one layout per cell per process. It is no
    field, so it takes no part in ``==``, ``repr`` or
    :func:`dataclasses.replace`, and a copy or a pickle of the cell starts
    without one.
    """

    name: str
    junctions: tuple[Junction, ...]
    reference_spectrum: Spectrum
    full_band_name: str = "full"
    full_band: Waveband = field(init=False)
    reference_currents: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_layout", None)
        object.__setattr__(self, "junctions", tuple(self.junctions))
        if len(self.junctions) < 2:
            raise ConfigError(f"cell {self.name!r}: need >= 2 junctions")
        names = [j.name for j in self.junctions]
        if len(set(names)) != len(names):
            raise ConfigError(f"cell {self.name!r}: duplicate junction names {names}")
        if not any(j.limiting_eligible for j in self.junctions):
            raise NoEligibleJunction(
                f"cell {self.name!r}: at least one junction must be limiting-eligible"
            )
        object.__setattr__(self, "full_band", Waveband(
            self.full_band_name,
            min(j.band.lambda_min_nm for j in self.junctions),
            max(j.band.lambda_max_nm for j in self.junctions),
        ))
        band_names = [b.name for b in self.bands]
        repeated = sorted({n for n in band_names if band_names.count(n) > 1})
        if repeated:
            raise ConfigError(f"cell {self.name!r}: repeated band names {repeated}")
        require_kind(self.reference_spectrum, Kind.IRRADIANCE, "reference spectrum")
        object.__setattr__(self, "reference_currents", {
            j.name: jsc_junction(self.reference_spectrum, j) for j in self.junctions})

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_layout": None}

    def report_layout(self, e: Spectrum, tau: Spectrum) -> ReportLayout:
        """The :class:`~soilspec.spectral.ReportLayout` of this cell's report
        of the irradiance ``e`` under the soiling transmittance ``tau``,
        with the cell's (SR, band) pairs in stack order, its full band and
        :attr:`bands` as the AST bands.

        The cell holds the one layout it last built, and returns it while a
        call's E grid and tau grid equal those it was built for (the same
        array, or the same size and then the same samples, as
        :meth:`~soilspec.spectral.ReportLayout.fits` tells). Otherwise it
        builds a new layout, which raises the first
        :class:`~soilspec.errors.NoOverlap` or
        :class:`~soilspec.errors.BandOutOfSupport` of the report's
        integrals, and holds that one; a build that raises leaves the held
        layout as it was. A campaign whose spectra share one grid and
        whose scans share another builds one layout and reuses it every
        week. Threads may share a cell: the held layout is never changed,
        only replaced whole, so a call reads one layout or the other, and
        at worst two threads each build one.
        """
        held = self._layout
        if held is not None and held.fits(e, tau):
            return held
        layout = ReportLayout(e, tau, [(j.sr, j.band) for j in self.junctions], self.full_band,
                              self.bands)
        object.__setattr__(self, "_layout", layout)
        return layout

    def junction(self, name: str) -> Junction:
        for j in self.junctions:
            if j.name == name:
                return j
        raise KeyError(f"cell {self.name!r} has no junction {name!r}")

    @property
    def junction_names(self) -> tuple[str, ...]:
        return tuple(j.name for j in self.junctions)

    @property
    def bands(self) -> tuple[Waveband, ...]:
        """The full band, then the junction bands in stack order."""
        return (self.full_band,) + tuple(j.band for j in self.junctions)


def jsc_cell(e: Spectrum, cell: CellModel, tau: Spectrum | None = None) -> JscResult:
    """Stack short-circuit current: min over limiting-eligible junctions.

    Ties are broken by junction order (first wins) and reported via the
    ``tie`` flag.
    """
    currents = {j.name: jsc_junction(e, j, tau)
                for j in cell.junctions if j.limiting_eligible}
    return stack_current(currents, cell)


def stack_current(currents: Mapping[str, float], cell: CellModel) -> JscResult:
    """Stack current from per-junction currents keyed by junction name.

    The minimum over the cell's limiting-eligible junctions; ties are
    broken by junction order (first wins) and reported via the ``tie``
    flag. Currents of ineligible junctions may be absent.
    """
    value = limiting = None
    ties = 0
    for j in cell.junctions:
        if j.limiting_eligible:
            c = currents[j.name]
            if limiting is None or c < value:  # the first minimal one wins a tie
                value, limiting, ties = c, j.name, 1
            elif c == value:
                ties += 1
    return JscResult(value=value, limiting=limiting, tie=ties > 1)


def boxcar_cell(
    bands: Sequence[tuple[str, float, float]],
    reference: Spectrum | None = None,
    not_eligible: Sequence[str] = (),
    full_band_name: str = "full",
) -> CellModel:
    """Toy cell named ``"boxcar"`` with SR == 1 A/W on each band.

    With SR == 1 the junction current reduces to the band integral of the
    irradiance, which makes hand-checked oracles easy. The default
    reference spectrum is flat 1 W*m^-2*nm^-1 over the union of bands.
    ``not_eligible`` names the bands kept out of the stack-current minimum;
    a bare string, or a name that is no band's, raises ``ValueError``.
    """
    if isinstance(not_eligible, str):
        raise ValueError(f"not_eligible must be a sequence of band names, not the string "
                         f"{not_eligible!r}")
    excluded = set(not_eligible)
    unknown = sorted(excluded - {b[0] for b in bands})
    if unknown:
        raise ValueError(f"not_eligible names no band: {unknown}")
    lo = min(b[1] for b in bands)
    hi = max(b[2] for b in bands)
    if reference is None:
        reference = Spectrum(np.array([lo, hi]), np.array([1.0, 1.0]), Kind.IRRADIANCE)
    junctions = [
        Junction(
            name=bname,
            band=Waveband(bname, bmin, bmax),
            sr=Spectrum(
                np.array([bmin, bmax]),
                np.array([1.0, 1.0]),
                Kind.SPECTRAL_RESPONSE,
            ),
            limiting_eligible=bname not in excluded,
        )
        for bname, bmin, bmax in bands
    ]
    return CellModel("boxcar", junctions, reference, full_band_name=full_band_name)


# ---------------------------------------------------------------------------
# Bundled reference spectrum and config loading
# ---------------------------------------------------------------------------

def reference_spectrum_path() -> Path:
    """Path of the bundled reference direct-normal spectrum."""
    return Path(str(resources.files("soilspec").joinpath("data/reference_spectrum.csv")))


@lru_cache(maxsize=1)
def reference_spectrum() -> Spectrum:
    """The bundled AM1.5-direct-shaped reference spectrum.

    This is a smooth stand-in with the magnitude and shape of the direct +
    circumsolar reference conditions used to rate concentrator cells; see
    the data README for provenance. For bit-exact rating work, point cell
    configs at an official reference table in the same CSV format.
    """
    path = reference_spectrum_path()
    if not path.is_file():
        raise MissingReferenceSpectrum(f"bundled reference spectrum missing: {path}")
    return read_spectrum_csv(path)


def _load_sr(entry: Mapping, config_path: Path, jname: str) -> Spectrum:
    sr_file = typed(entry, "sr_file", str, config_path, default=None)
    eqe_file = typed(entry, "eqe_file", str, config_path, default=None)
    if (sr_file is None) == (eqe_file is None):
        raise ConfigError(
            f"{config_path}: junction {jname!r}: specify exactly one of sr_file or eqe_file"
        )
    path = config_path.parent / (sr_file or eqe_file)
    if not path.is_file():
        raise ConfigError(f"{config_path}: junction {jname!r}: response file not found: {path}")
    curve = read_spectrum_csv(path)
    if sr_file is not None:
        if curve.units == DIMENSIONLESS:
            raise ConfigError(
                f"{config_path}: junction {jname!r}: {path} is dimensionless; "
                "load it via eqe_file"
            )
        return curve
    try:
        return eqe_to_sr(curve)
    except KindMismatch as exc:
        raise KindMismatch(f"{config_path}: junction {jname!r}: {exc}") from None


def load_cell(config_path: str | Path) -> CellModel:
    """Load a cell model from a YAML config document.

    The document names the junction bands and their SR/EQE data files
    (paths relative to the config file), and may override the reference
    spectrum and pin the expected reference currents::

        name: my-cell
        full_band: {name: MJ, min_nm: 300, max_nm: 1810}   # optional, checked
        reference_spectrum: my_reference.csv                # optional
        junctions:
          - name: top
            band: [300, 720]
            eqe_file: eqe_top.csv
          - name: bot
            band: [720, 1810]
            sr_file: sr_bot.csv
            limiting_eligible: false
        reference_currents: {top: 123.4, bot: 234.5}        # optional, checked

    The full band is the span of the junction bands, named ``MJ``; a
    ``full_band`` entry must equal that span and only renames it. The
    computed reference currents are used; ``reference_currents`` only
    checks them, each junction and no other, to 1e-9 relative. Any other
    key, at the top level, in a junction or in ``full_band``, is a
    :class:`ConfigError`, and so is a band or cell that fails a value
    check. A cell that fails a spectral check keeps that check's error
    (:class:`BandCoverage`, :class:`NoEligibleJunction`,
    :class:`KindMismatch`, :class:`BandOutOfSupport`, ...). Every one of
    these errors starts with the config file's path.
    """
    config_path = Path(config_path)
    doc = read_yaml(config_path)
    reject_unknown_keys(doc, ("name", "junctions", "reference_spectrum", "full_band",
                              "reference_currents"), config_path, "cell config")
    name = typed(doc, "name", str, config_path)
    jdocs = typed(doc, "junctions", list, config_path)

    ref_path = typed(doc, "reference_spectrum", str, config_path, default=None)
    if ref_path is None:
        reference = reference_spectrum()
    else:
        full = config_path.parent / ref_path
        if not full.is_file():
            raise MissingReferenceSpectrum(f"reference spectrum not found: {full}")
        reference = read_spectrum_csv(full)

    junctions = []
    for entry in jdocs:
        jname = typed(entry, "name", str, config_path)
        reject_unknown_keys(entry, ("name", "band", "sr_file", "eqe_file", "limiting_eligible"),
                            config_path, "junction")
        band = [typed({"band": limit}, "band", float, config_path)
                for limit in typed(entry, "band", list, config_path)]
        if len(band) != 2:
            raise ConfigError(f"{config_path}: 'band' must be [min_nm, max_nm], got {band}")
        junctions.append((jname, band, _load_sr(entry, config_path, jname),
                          typed(entry, "limiting_eligible", bool, config_path, default=True)))

    fb = typed(doc, "full_band", dict, config_path, default=None)
    if fb is not None:
        reject_unknown_keys(fb, ("name", "min_nm", "max_nm"), config_path, "full_band")
        fb = (typed(fb, "name", str, config_path),
              typed(fb, "min_nm", float, config_path),
              typed(fb, "max_nm", float, config_path))
    pinned = typed(doc, "reference_currents", dict, config_path, default=None)
    pinned = pinned and {jname: typed(pinned, jname, float, config_path) for jname in pinned}
    try:
        cell = CellModel(name, [Junction(jname, Waveband(jname, *band), sr, eligible)
                                for jname, band, sr, eligible in junctions],
                         reference, full_band_name="MJ" if fb is None else fb[0])
        span = cell.full_band
        if fb is not None and Waveband(*fb) != span:
            raise ConfigError(f"cell {name!r}: full band [{fb[1]}, {fb[2]}] nm must span the "
                              f"junction bands [{span.lambda_min_nm}, {span.lambda_max_nm}] nm")
        if pinned is not None:
            unknown = sorted(set(pinned) - set(cell.reference_currents))
            if unknown:
                raise ConfigError(
                    f"cell {name!r}: reference currents for unknown junctions {unknown}")
            for jname, expected in cell.reference_currents.items():
                stored = pinned.get(jname)
                if stored is None:
                    raise ConfigError(f"cell {name!r}: missing reference current for {jname!r}")
                if abs(stored - expected) > 1e-9 * max(abs(expected), abs(stored)):
                    raise ConfigError(f"cell {name!r}: reference current for {jname!r} is "
                                      f"{stored}, recomputed {expected} (tolerance 1e-9 relative)")
        return cell
    except (ValueError, SoilspecError) as exc:
        error = ConfigError if isinstance(exc, ValueError) else type(exc)
        raise error(f"{config_path}: {exc}") from None


def bundled_cell_config_path() -> Path:
    """Path of the bundled lattice-matched 3J config."""
    return Path(str(resources.files("soilspec").joinpath("data/cells/lattice_matched_3j.yaml")))


def load_bundled_3j() -> CellModel:
    """Load the bundled GaInP/GaInAs/Ge-style triple-junction config."""
    return load_cell(bundled_cell_config_path())
