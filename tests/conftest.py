import hashlib
from importlib import resources

import numpy as np
import pytest

from soilspec import (
    Kind,
    SoilingModel,
    Spectrum,
    boxcar_cell,
    load_bundled_3j,
    load_scenario,
    reference_spectrum,
    synth_campaign,
    synth_spectrum,
    synth_tau,
)


def flat_spectrum(lo, hi, value, kind=Kind.IRRADIANCE):
    """Constant spectrum on [lo, hi]; flat curves are exact under trapz."""
    return Spectrum(np.array([lo, hi], dtype=float),
                    np.array([value, value], dtype=float), kind)


def linear_spectrum(lo, hi, v_lo, v_hi, kind=Kind.TRANSMITTANCE):
    return Spectrum(np.array([lo, hi], dtype=float),
                    np.array([v_lo, v_hi], dtype=float), kind)


def midpoint_riemann(f, lo, hi, step=0.01):
    """Brute-force midpoint rule at a fixed step (independent oracle)."""
    n = int(round((hi - lo) / step))
    h = (hi - lo) / n
    mids = lo + h * (np.arange(n) + 0.5)
    return float(np.sum(f(mids)) * h)


def sampled_eval(s):
    """Piecewise-linear evaluator of a sampled spectrum for oracles."""
    return lambda x: np.interp(x, s.wavelengths_nm, s.values)


def mixed_grid_day():
    """Five irradiance spectra of one day on two interleaved grids.

    Three sit on a 5 nm grid and two on a 4 nm grid offset by 2 nm; each
    has its own tilt and scale, so no two are proportional.
    """
    g5 = np.arange(300.0, 2000.0 + 1e-9, 5.0)
    g4 = np.arange(282.0, 1998.0 + 1e-9, 4.0)
    cases = [(g5, 0.0, 0.3), (g4, 0.4, 0.8), (g5, -0.3, 1.0), (g4, 0.8, 0.5), (g5, 0.2, 0.9)]
    spectra = []
    for grid, tilt, scale in cases:
        s = synth_spectrum(tilt, grid)
        spectra.append(s.with_values(s.values * scale))
    return spectra


def spectra_sha256(spectra):
    """sha256 over each spectrum's wavelength bytes, then its value bytes."""
    digest = hashlib.sha256()
    for s in spectra:
        digest.update(s.wavelengths_nm.tobytes())
        digest.update(s.values.tobytes())
    return digest.hexdigest()


def bundled_tau():
    """A blue-heavy soiling transmittance over the bundled cell's full band."""
    return synth_tau(SoilingModel(k=0.3, alpha=1.0), np.linspace(300, 1810, 303))


@pytest.fixture()
def toy2j():
    """Two-junction boxcar toy: bands [300,700]/[700,900], SR = 1, ref = 1."""
    return boxcar_cell([("top", 300.0, 700.0), ("mid", 700.0, 900.0)])


@pytest.fixture()
def flat_e():
    return flat_spectrum(300.0, 900.0, 1.0)


@pytest.fixture()
def linear_tau():
    """tau rising 0.5 -> 1.0 over [300, 900]."""
    return linear_spectrum(300.0, 900.0, 0.5, 1.0)


@pytest.fixture(scope="session")
def bundled_cell():
    return load_bundled_3j()


@pytest.fixture(scope="session")
def reference():
    return reference_spectrum()


@pytest.fixture(scope="session")
def demo_weeks(bundled_cell):
    """The first three weekly measurements of the bundled demo scenario."""
    scenario = load_scenario(str(resources.files("soilspec").joinpath("data/demo_scenario.yaml")))
    return synth_campaign(scenario, bundled_cell)[0][:3]
