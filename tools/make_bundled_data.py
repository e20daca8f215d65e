"""Regenerate the bundled data files under src/soilspec/data/.

Run from the repo root with:  PYTHONPATH=src python tools/make_bundled_data.py

The reference spectrum is a smooth, deterministic stand-in with the
magnitude and shape of AM1.5 direct + circumsolar conditions (blackbody
continuum attenuated by Rayleigh/aerosol/ozone terms and broad
water/oxygen/CO2 absorption dips, normalised to 900.1 W m^-2 over
280-4000 nm). It is NOT the official standard table; replace it with one
(same CSV format) for bit-exact rating work.

The EQE curves are illustrative lattice-matched 3J shapes. The middle
and bottom amplitudes are calibrated against the bundled reference so
that the middle junction sits just above the top in current and the
bottom carries roughly 30% excess, mimicking how the real cell family
behaves.
"""

import numpy as np

from soilspec.cell import Junction, eqe_to_sr, jsc_junction
from soilspec.spectral import (
    DIMENSIONLESS,
    Kind,
    Spectrum,
    Waveband,
    integrate,
    write_spectrum_csv,
)

OUT = "src/soilspec/data"

# Broad absorption dips: (center nm, sigma nm, depth).
ABSORPTION = [
    (687, 4, 0.25), (719, 8, 0.35), (761, 4, 0.50), (813, 10, 0.30),
    (940, 20, 0.65), (1130, 25, 0.80), (1380, 35, 0.98), (1870, 40, 0.97),
    (2050, 25, 0.55), (2500, 120, 0.95), (2700, 80, 0.97), (3200, 150, 0.85),
]


def make_reference() -> Spectrum:
    wl = np.concatenate([np.arange(280.0, 1702.0, 2.0),
                         np.arange(1705.0, 4005.0, 5.0)])
    wl_m = wl * 1e-9
    wl_um = wl * 1e-3
    h, c, kb, t_sun = 6.62607015e-34, 2.99792458e8, 1.380649e-23, 5778.0
    planck = wl_m ** -5 / np.expm1(h * c / (wl_m * kb * t_sun))
    am = 1.5
    rayleigh = np.exp(-0.008735 * wl_um ** -4.08 * am)
    aerosol = np.exp(-0.12 * wl_um ** -1.3 * am)
    ozone = np.exp(-8.0 * np.exp(-(wl - 260.0) / 18.0))
    dips = np.ones_like(wl)
    for center, sigma, depth in ABSORPTION:
        dips *= 1.0 - depth * np.exp(-0.5 * ((wl - center) / sigma) ** 2)
    e = Spectrum(wl, planck * rayleigh * aerosol * ozone * np.clip(dips, 0.0, None),
                 Kind.IRRADIANCE)
    return e.with_values(e.values * (900.1 / integrate(e, Waveband("support", *e.support))))


def logistic(x, center, width):
    return 1.0 / (1.0 + np.exp(-(x - center) / width))


def eqe_curve(lo, hi, amp, rise, fall) -> Spectrum:
    wl = np.arange(lo, hi + 1.0, 2.0)
    wl[-1] = hi
    vals = amp * logistic(wl, *rise) * (1.0 - logistic(wl, *fall))
    return Spectrum(wl, vals, Kind.SPECTRAL_RESPONSE, DIMENSIONLESS)


def main() -> None:
    ref = make_reference()
    write_spectrum_csv(ref, f"{OUT}/reference_spectrum.csv")
    print(f"reference: {ref.n_samples} samples, "
          f"{integrate(ref, Waveband('support', *ref.support)):.2f} W/m^2 total")

    def current(eqe, band):
        return jsc_junction(ref, Junction(band.name, band, eqe_to_sr(eqe)))

    top_band = Waveband("top", 300.0, 720.0)
    mid_band = Waveband("mid", 720.0, 920.0)
    bot_band = Waveband("bot", 920.0, 1810.0)

    mid = eqe_curve(720, 920, 0.92, (737, 9), (906, 9))
    j_mid = current(mid, mid_band)

    # Top sits just below mid in current under the reference (the usual
    # limiting junction of the family); bottom carries ~30% excess.
    top_raw = eqe_curve(300, 720, 1.0, (335, 22), (696, 11))
    top_amp = (j_mid / 1.02) / current(top_raw, top_band)
    top = top_raw.with_values(top_raw.values * top_amp)
    j_top = current(top, top_band)

    bot_raw = eqe_curve(920, 1810, 1.0, (947, 14), (1788, 24))
    bot_amp = 1.30 * j_top / current(bot_raw, bot_band)
    bot = bot_raw.with_values(bot_raw.values * bot_amp)

    for nm, curve, band in (("top", top, top_band), ("mid", mid, mid_band),
                            ("bot", bot, bot_band)):
        write_spectrum_csv(curve, f"{OUT}/cells/eqe_{nm}_illustrative.csv")
        print(f"{nm}: amp {curve.values.max():.3f}, "
              f"J_ref {current(curve, band):.2f} A/m^2")


if __name__ == "__main__":
    main()
