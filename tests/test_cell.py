import dataclasses
import re
import shutil

import numpy as np
import pytest

from soilspec import (
    CellModel,
    Junction,
    Kind,
    Spectrum,
    Waveband,
    boxcar_cell,
    eqe_to_sr,
    integrate,
    jsc_cell,
    jsc_junction,
    load_cell,
)
from soilspec.cell import (
    ELEMENTARY_CHARGE_C,
    LIGHT_SPEED_M_S,
    PLANCK_J_S,
    bundled_cell_config_path,
)
from soilspec.errors import (
    BandCoverage,
    BandOutOfSupport,
    ConfigError,
    KindMismatch,
    MissingReferenceSpectrum,
    NoEligibleJunction,
)
from soilspec.spectral import DIMENSIONLESS, SR_UNITS, write_spectrum_csv

from conftest import flat_spectrum


def flat_sr(lo, hi, value=1.0):
    return flat_spectrum(lo, hi, value, Kind.SPECTRAL_RESPONSE)


# ---------------------------------------------------------------------------
# Junction / CellModel invariants
# ---------------------------------------------------------------------------

def test_junction_requires_band_coverage():
    with pytest.raises(BandCoverage):
        Junction("top", Waveband("top", 300, 720), flat_sr(350, 720))


def test_junction_requires_sr_kind():
    with pytest.raises(KindMismatch):
        Junction("top", Waveband("top", 300, 720),
                 flat_spectrum(300, 720, 1.0, Kind.TRANSMITTANCE))


def test_junction_rejects_negative_sr():
    sr = Spectrum(np.array([300.0, 720.0]), np.array([-0.1, 1.0]),
                  Kind.SPECTRAL_RESPONSE)
    with pytest.raises(ValueError, match=">= 0"):
        Junction("top", Waveband("top", 300, 720), sr)


def test_cell_needs_eligible_junction():
    with pytest.raises(NoEligibleJunction):
        boxcar_cell([("a", 300, 700), ("b", 700, 900)], not_eligible=("a", "b"))


def test_cell_model_computes_reference_currents_and_lists_bands():
    junctions = (
        Junction("a", Waveband("a", 300, 700), flat_sr(300, 700)),
        Junction("b", Waveband("b", 700, 900), flat_sr(700, 900, 0.5)),
    )
    cell = CellModel("c", junctions, flat_spectrum(300, 900, 1.0))
    assert cell.reference_currents == {"a": 400.0, "b": 100.0}
    assert cell.bands == (Waveband("full", 300, 900), junctions[0].band, junctions[1].band)


def test_cell_full_band_is_the_span_of_the_junction_bands():
    cell = boxcar_cell([("b", 700, 900), ("a", 350, 700)])
    assert cell.full_band == Waveband("full", 350, 900)
    renamed = boxcar_cell([("a", 350, 700), ("b", 700, 900)], full_band_name="MJ")
    assert renamed.full_band == Waveband("MJ", 350, 900)


def test_cell_model_takes_only_its_inputs():
    assert [f.name for f in dataclasses.fields(CellModel) if f.init] == [
        "name", "junctions", "reference_spectrum", "full_band_name"]


def test_replace_keeps_the_full_band_name_and_recomputes_derived_fields(bundled_cell):
    assert dataclasses.replace(bundled_cell, name="x").full_band.name == "MJ"
    cell = boxcar_cell([("a", 300, 700), ("b", 700, 900)], full_band_name="MJ")
    renamed = dataclasses.replace(cell, name="x")
    assert renamed.bands == cell.bands
    assert renamed.reference_currents == cell.reference_currents == {"a": 400.0, "b": 200.0}
    narrower = dataclasses.replace(cell, junctions=cell.junctions[:1] + (
        Junction("b", Waveband("b", 700, 850), flat_sr(700, 850, 0.5)),))
    assert narrower.full_band == Waveband("MJ", 300, 850)
    assert narrower.reference_currents == {"a": 400.0, "b": 75.0}


@pytest.mark.parametrize("bands, full_band_name, repeated", [
    ([("full", 300, 700), ("b", 700, 900)], "full", ["full"]),
    ([("a", 300, 700), ("b", 700, 900)], "b", ["b"]),
])
def test_cell_band_names_must_be_unique(bands, full_band_name, repeated):
    with pytest.raises(ConfigError, match=re.escape(f"repeated band names {repeated}")):
        boxcar_cell(bands, full_band_name=full_band_name)


def test_two_junction_bands_of_one_name_rejected():
    junctions = (
        Junction("a", Waveband("x", 300, 700), flat_sr(300, 700)),
        Junction("b", Waveband("x", 700, 900), flat_sr(700, 900)),
    )
    with pytest.raises(ConfigError, match=re.escape("repeated band names ['x']")):
        CellModel("c", junctions, flat_spectrum(300, 900, 1.0))


# ---------------------------------------------------------------------------
# jsc
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("not_eligible, named", [
    (["bott"], "['bott']"),   # a misspelt band
    ("bot", "'bot'"),         # a bare string, not a list of names
    (["bot", "x"], "['x']"),
])
def test_boxcar_not_eligible_must_name_bands(not_eligible, named):
    bands = [("top", 300.0, 700.0), ("mid", 700.0, 900.0), ("bot", 900.0, 1800.0)]
    with pytest.raises(ValueError, match=re.escape(named)):
        boxcar_cell(bands, not_eligible=not_eligible)
    cell = boxcar_cell(bands, not_eligible=["bot"])
    assert [j.limiting_eligible for j in cell.junctions] == [True, True, False]


def test_jsc_junction_flat_oracle():
    # 420 nm band x E 1 x SR 0.5 = 210
    j = Junction("top", Waveband("top", 300, 720), flat_sr(300, 720, 0.5))
    e = flat_spectrum(300, 720, 1.0)
    assert jsc_junction(e, j) == pytest.approx(210.0, rel=1e-15)
    tau = flat_spectrum(300, 720, 0.5, Kind.TRANSMITTANCE)
    assert jsc_junction(e, j, tau) == pytest.approx(105.0, rel=1e-15)


def test_jsc_junction_zero_sr():
    j = Junction("top", Waveband("top", 300, 720), flat_sr(300, 720, 0.0))
    assert jsc_junction(flat_spectrum(300, 720, 1.0), j) == 0.0


def test_jsc_junction_kind_gates():
    j = Junction("top", Waveband("top", 300, 720), flat_sr(300, 720))
    with pytest.raises(KindMismatch):
        jsc_junction(flat_spectrum(300, 720, 1.0, Kind.TRANSMITTANCE), j)
    with pytest.raises(KindMismatch):
        jsc_junction(flat_spectrum(300, 720, 1.0), j,
                     tau=flat_spectrum(300, 720, 0.5, Kind.IRRADIANCE))


def test_jsc_junction_needs_band_coverage():
    j = Junction("top", Waveband("top", 300, 720), flat_sr(300, 720))
    with pytest.raises(BandOutOfSupport):
        jsc_junction(flat_spectrum(400, 720, 1.0), j)


def test_jsc_cell_boxcar_oracle(toy2j, flat_e):
    # band widths: top 400, mid 200
    r = jsc_cell(flat_e, toy2j)
    assert (r.value, r.limiting) == (200.0, "mid")
    tau = flat_spectrum(300, 900, 0.5, Kind.TRANSMITTANCE)
    rs = jsc_cell(flat_e, toy2j, tau)
    assert rs.limiting == "mid"
    assert rs.value == pytest.approx(100.0, rel=1e-12)


def test_jsc_cell_tie_first_wins(flat_e):
    cell = boxcar_cell([("a", 300, 600), ("b", 600, 900)])
    r = jsc_cell(flat_e, cell)
    assert r.tie and r.limiting == "a" and r.value == 300.0


def test_jsc_monotone_in_irradiance(toy2j):
    rng = np.random.default_rng(11)
    w = np.linspace(300.0, 900.0, 31)
    for _ in range(20):
        lo = rng.uniform(0.1, 1.0, 31)
        hi = lo + rng.uniform(0.0, 0.5, 31)
        e_lo = Spectrum(w, lo, Kind.IRRADIANCE)
        e_hi = Spectrum(w, hi, Kind.IRRADIANCE)
        for j in toy2j.junctions:
            assert jsc_junction(e_hi, j) >= jsc_junction(e_lo, j)


def test_flat_tau_scales_exactly(toy2j):
    rng = np.random.default_rng(12)
    w = np.linspace(300.0, 900.0, 25)
    e = Spectrum(w, rng.uniform(0.2, 1.5, 25), Kind.IRRADIANCE)
    clean = jsc_cell(e, toy2j)
    for c in (0.3, 0.8, 1.0):
        tau = flat_spectrum(300, 900, c, Kind.TRANSMITTANCE)
        soiled = jsc_cell(e, toy2j, tau)
        assert soiled.value == pytest.approx(c * clean.value, rel=1e-12)
        assert soiled.limiting == clean.limiting


# ---------------------------------------------------------------------------
# EQE -> SR
# ---------------------------------------------------------------------------

def test_eqe_to_sr_hand_value():
    # EQE 1 at 1000 nm: SR = 1000e-9 * q / (h c) = 0.80655... A/W
    eqe = Spectrum(np.array([500.0, 1000.0]), np.array([1.0, 1.0]),
                   Kind.SPECTRAL_RESPONSE, DIMENSIONLESS)
    sr = eqe_to_sr(eqe)
    hand = 1000e-9 * ELEMENTARY_CHARGE_C / (PLANCK_J_S * LIGHT_SPEED_M_S)
    assert sr.values[1] == pytest.approx(hand, rel=1e-15)
    assert sr.values[1] == pytest.approx(0.806554, rel=1e-6)
    assert sr.units == SR_UNITS


def test_eqe_to_sr_requires_dimensionless():
    with pytest.raises(KindMismatch):
        eqe_to_sr(flat_spectrum(300, 900, 0.5, Kind.SPECTRAL_RESPONSE))


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def _write_sr_csv(path, lo, hi, value=1.0):
    write_spectrum_csv(flat_sr(lo, hi, value), path)


def test_load_bundled_3j(bundled_cell):
    bands = {j.band.name: (j.band.lambda_min_nm, j.band.lambda_max_nm)
             for j in bundled_cell.junctions}
    assert bands == {"top": (300.0, 720.0), "mid": (720.0, 920.0),
                     "bot": (920.0, 1810.0)}
    assert bundled_cell.full_band == Waveband("MJ", 300.0, 1810.0)
    assert not bundled_cell.junction("bot").limiting_eligible


def test_load_toy_config(tmp_path, reference):
    _write_sr_csv(tmp_path / "a.csv", 300, 700)
    _write_sr_csv(tmp_path / "b.csv", 700, 900)
    (tmp_path / "cell.yaml").write_text(
        "name: toy\n"
        "junctions:\n"
        "  - {name: a, band: [300, 700], sr_file: a.csv}\n"
        "  - {name: b, band: [700, 900], sr_file: b.csv}\n"
    )
    cell = load_cell(tmp_path / "cell.yaml")
    # boxcar SR = 1 reduces the junction current to a band integral of the
    # bundled reference spectrum
    for j in cell.junctions:
        assert cell.reference_currents[j.name] == pytest.approx(
            integrate(reference, j.band), rel=1e-12
        )


def _equal(a, b):
    """Field-by-field equality that compares spectra by their samples."""
    if isinstance(a, Spectrum):
        return ((a.kind, a.units) == (b.kind, b.units)
                and np.array_equal(a.wavelengths_nm, b.wavelengths_nm)
                and np.array_equal(a.values, b.values))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b


def test_pinning_the_computed_currents_loads_the_same_cell(tmp_path):
    cells = shutil.copytree(bundled_cell_config_path().parent, tmp_path / "cells")
    config = cells / bundled_cell_config_path().name
    unpinned = load_cell(config)
    pins = ", ".join(f"{j}: {c!r}" for j, c in unpinned.reference_currents.items())
    config.write_text(config.read_text() + f"reference_currents: {{{pins}}}\n")
    pinned = load_cell(config)
    assert _equal(pinned, unpinned)
    assert not _equal(pinned, dataclasses.replace(unpinned, full_band_name="full"))


def test_load_config_band_coverage_error(tmp_path):
    _write_sr_csv(tmp_path / "a.csv", 350, 720)  # misses [300, 350)
    _write_sr_csv(tmp_path / "b.csv", 720, 900)
    (tmp_path / "cell.yaml").write_text(
        "name: bad\n"
        "junctions:\n"
        "  - {name: a, band: [300, 720], sr_file: a.csv}\n"
        "  - {name: b, band: [720, 900], sr_file: b.csv}\n"
    )
    with pytest.raises(BandCoverage):
        load_cell(tmp_path / "cell.yaml")


def test_load_config_missing_reference(tmp_path):
    _write_sr_csv(tmp_path / "a.csv", 300, 700)
    _write_sr_csv(tmp_path / "b.csv", 700, 900)
    (tmp_path / "cell.yaml").write_text(
        "name: bad\n"
        "reference_spectrum: nope.csv\n"
        "junctions:\n"
        "  - {name: a, band: [300, 700], sr_file: a.csv}\n"
        "  - {name: b, band: [700, 900], sr_file: b.csv}\n"
    )
    with pytest.raises(MissingReferenceSpectrum):
        load_cell(tmp_path / "cell.yaml")


def test_load_config_rejects_dimensionless_sr(tmp_path):
    eqe = Spectrum(np.array([300.0, 700.0]), np.array([0.9, 0.9]),
                   Kind.SPECTRAL_RESPONSE, DIMENSIONLESS)
    write_spectrum_csv(eqe, tmp_path / "a.csv")
    _write_sr_csv(tmp_path / "b.csv", 700, 900)
    (tmp_path / "cell.yaml").write_text(
        "name: bad\n"
        "junctions:\n"
        "  - {name: a, band: [300, 700], sr_file: a.csv}\n"
        "  - {name: b, band: [700, 900], sr_file: b.csv}\n"
    )
    with pytest.raises(ConfigError, match="eqe_file"):
        load_cell(tmp_path / "cell.yaml")


def test_load_config_eqe_path(tmp_path):
    eqe = Spectrum(np.array([300.0, 700.0]), np.array([1.0, 1.0]),
                   Kind.SPECTRAL_RESPONSE, DIMENSIONLESS)
    write_spectrum_csv(eqe, tmp_path / "a.csv")
    _write_sr_csv(tmp_path / "b.csv", 700, 900)
    (tmp_path / "cell.yaml").write_text(
        "name: eqe-toy\n"
        "junctions:\n"
        "  - {name: a, band: [300, 700], eqe_file: a.csv}\n"
        "  - {name: b, band: [700, 900], sr_file: b.csv}\n"
    )
    cell = load_cell(tmp_path / "cell.yaml")
    sr = cell.junction("a").sr
    factor = ELEMENTARY_CHARGE_C / (PLANCK_J_S * LIGHT_SPEED_M_S)
    assert sr.values[0] == pytest.approx(300e-9 * factor, rel=1e-15)
