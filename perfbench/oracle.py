"""Plain-numpy oracle for the soiling indexes, independent of soilspec.

It restates the paper's definitions directly on arrays: every factor is
interpolated onto the union of the factors' sample grids inside their
common overlap, the product is integrated with the trapezoid rule over
the band with the band endpoints inserted by interpolation, and the
indexes are ratios of those integrals. Nothing here calls into the
package, so an agreement to 1e-9 relative is an independent check.

A cell is described as plain data (see :func:`cell_arrays`); spectra are
``(wavelengths, values)`` pairs of 1-D float arrays.
"""

from __future__ import annotations

import math

import numpy as np

# Contract constants restated: transmittance noise headroom, and the
# default replicate-spread rejection threshold (absolute, AST units).
TAU_MAX = 1.02
SPREAD_THRESHOLD = 0.01

ORACLE_RTOL = 1e-9
IDENTITY_RTOL = 1e-12


def cell_arrays(cell) -> dict:
    """Copy a CellModel's input data (not its computed values) into arrays."""
    return {
        "junctions": [
            (j.name, j.band.lambda_min_nm, j.band.lambda_max_nm,
             np.array(j.sr.wavelengths_nm), np.array(j.sr.values), j.limiting_eligible)
            for j in cell.junctions
        ],
        "full": (cell.full_band.name, cell.full_band.lambda_min_nm, cell.full_band.lambda_max_nm),
        "reference": (np.array(cell.reference_spectrum.wavelengths_nm),
                      np.array(cell.reference_spectrum.values)),
    }


def _union(curves) -> np.ndarray:
    lo = max(w[0] for w, _ in curves)
    hi = min(w[-1] for w, _ in curves)
    grid = np.unique(np.concatenate([w for w, _ in curves]))
    return grid[(grid >= lo) & (grid <= hi)]


def _product(curves) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise product of curves on their union grid over the overlap."""
    grid = _union(curves)
    vals = np.ones_like(grid)
    for w, v in curves:
        vals = vals * np.interp(grid, w, v)
    return grid, vals


def band_integral(curves, lo: float, hi: float) -> float:
    """Trapezoid integral of the product of ``curves`` over [lo, hi]."""
    grid, vals = _product(curves) if len(curves) > 1 else curves[0]
    if lo < grid[0] or hi > grid[-1]:
        raise ValueError(f"band [{lo}, {hi}] outside support [{grid[0]}, {grid[-1]}]")
    inside = (grid > lo) & (grid < hi)
    x = np.concatenate(([lo], grid[inside], [hi]))
    y = np.concatenate(([np.interp(lo, grid, vals)], vals[inside], [np.interp(hi, grid, vals)]))
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1])) / 2.0)


def accepted_tau(soiled, control, full_lo: float, full_hi: float):
    """(accepted, tau) for one week of triplicate soiled/control scans.

    Each replicate ratio soiled/control is clamped at ``TAU_MAX``; the
    week is rejected when the replicates' ASTs over [full_lo, full_hi]
    spread by more than ``SPREAD_THRESHOLD``, else tau is their mean.
    """
    taus = []
    for s, c in zip(soiled, control):
        grid = _union([s, c])
        ratio = np.interp(grid, *s) / np.interp(grid, *c)
        taus.append((grid, np.minimum(ratio, TAU_MAX)))
    asts = [band_integral([t], full_lo, full_hi) / (full_hi - full_lo) for t in taus]
    if max(asts) - min(asts) > SPREAD_THRESHOLD:
        return False, None
    grid = _union(taus)
    mean = np.mean([np.interp(grid, w, v) for w, v in taus], axis=0)
    return True, (grid, mean)


def indexes(spectra, tau, cell: dict) -> dict:
    """Index report (by name) for irradiance spectra summed over a day."""
    clean, soiled = {}, {}
    for name, lo, hi, sr_w, sr_v, _ in cell["junctions"]:
        sr = (sr_w, sr_v)
        clean[name] = sum(band_integral([e, sr], lo, hi) for e in spectra)
        soiled[name] = sum(band_integral([e, tau, sr], lo, hi) for e in spectra)
    full_name, full_lo, full_hi = cell["full"]
    bb_clean = sum(band_integral([e], full_lo, full_hi) for e in spectra)
    bb_soiled = sum(band_integral([e, tau], full_lo, full_hi) for e in spectra)

    eligible = [j[0] for j in cell["junctions"] if j[5]]
    lim_c = min(eligible, key=lambda n: clean[n])
    lim_s = min(eligible, key=lambda n: soiled[n])
    (i, ilo, ihi, iw, iv, _), (j, jlo, jhi, jw, jv, _) = cell["junctions"][:2]
    ref = cell["reference"]
    ref_i = band_integral([ref, (iw, iv)], ilo, ihi)
    ref_j = band_integral([ref, (jw, jv)], jlo, jhi)

    sratio = soiled[lim_s] / clean[lim_c]
    bsratio = bb_soiled / bb_clean
    out = {
        "sratio": sratio,
        "bsratio": bsratio,
        "ssratio": sratio / bsratio,
        "smr_cleaned": (clean[i] / clean[j]) * (ref_j / ref_i),
        "smr_soiled": (soiled[i] / soiled[j]) * (ref_j / ref_i),
        "smratio": (soiled[i] / soiled[j]) * (clean[j] / clean[i]),
        "limiting_cleaned": lim_c,
        "limiting_soiled": lim_s,
        f"ast_{full_name}": band_integral([tau], full_lo, full_hi) / (full_hi - full_lo),
    }
    for name, lo, hi, *_ in cell["junctions"]:
        out[f"ast_{name}"] = band_integral([tau], lo, hi) / (hi - lo)
    return out


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def identity_errors(report: dict) -> list[str]:
    """Violations of the two index identities, to 1e-12 relative."""
    errors = []
    if not close(report["sratio"], report["bsratio"] * report["ssratio"], IDENTITY_RTOL):
        errors.append("sratio != bsratio*ssratio")
    if not close(report["smratio"], report["smr_soiled"] / report["smr_cleaned"], IDENTITY_RTOL):
        errors.append("smratio != smr_soiled/smr_cleaned")
    return errors


def mismatches(report: dict, expected: dict) -> list[str]:
    """Index values (compared by name) that differ from the oracle."""
    errors = []
    for key, want in expected.items():
        got = report.get(key)
        if isinstance(want, str):
            if got != want:
                errors.append(f"{key}: {got!r} != {want!r}")
        elif got is None or not math.isfinite(got) or not close(got, want, ORACLE_RTOL):
            errors.append(f"{key}: {got!r} != oracle {want!r}")
    return errors


def tau_mismatch(got_w, got_v, want) -> list[str]:
    w, v = want
    if len(got_w) != len(w) or not np.allclose(got_w, w, rtol=ORACLE_RTOL, atol=0.0):
        return ["tau grid differs from oracle"]
    if not np.allclose(got_v, v, rtol=ORACLE_RTOL, atol=0.0):
        return ["tau values differ from oracle"]
    return []
