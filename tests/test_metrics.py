import dataclasses
import re

import numpy as np
import pytest

import soilspec.metrics
from soilspec import (
    IndexReport,
    Junction,
    Kind,
    Spectrum,
    Waveband,
    ast,
    boxcar_cell,
    bsratio,
    index_report,
    index_report_weighted,
    integrate,
    jsc_junction,
    pointwise_product,
    smr,
    smratio,
    soiling_transmittance,
    sratio,
    ssratio,
    synth_spectrum,
    synth_tau,
)
from soilspec.errors import (
    BandOutOfSupport,
    ControlBelowFloor,
    KindMismatch,
    NonFiniteIndex,
    NoOverlap,
    ZeroCleanCurrent,
    ZeroCurrent,
    ZeroDenominator,
)
from soilspec.cell import stack_current
from soilspec.spectral import integrate_product
from soilspec.synth import SoilingModel

from conftest import (
    bundled_tau,
    flat_spectrum,
    linear_spectrum,
    midpoint_riemann,
    mixed_grid_day,
    spectra_sha256,
    sampled_eval,
)


# ---------------------------------------------------------------------------
# soiling transmittance (coupon pair)
# ---------------------------------------------------------------------------

def test_tau_constant_ratio():
    soiled = flat_spectrum(300, 900, 0.45, Kind.TRANSMITTANCE)
    control = flat_spectrum(300, 900, 0.90, Kind.TRANSMITTANCE)
    tau = soiling_transmittance(soiled, control).tau
    np.testing.assert_allclose(tau.values, 0.5, rtol=1e-15)
    assert tau.kind is Kind.TRANSMITTANCE


def test_tau_clean_coupon():
    scan = linear_spectrum(300, 900, 0.85, 0.92)
    tau, noisy, clamped = soiling_transmittance(scan, scan)
    np.testing.assert_array_equal(tau.values, 1.0)
    assert (noisy, clamped) == (0, 0)  # a ratio of 1 is no noise


def test_tau_pointwise_division():
    soiled = linear_spectrum(300, 900, 0.45, 0.90)
    control = flat_spectrum(300, 900, 0.9, Kind.TRANSMITTANCE)
    tau = soiling_transmittance(soiled, control).tau
    f = sampled_eval(tau)
    assert f(300) == pytest.approx(0.5, rel=1e-15)
    assert f(600) == pytest.approx(0.75, rel=1e-15)
    assert f(900) == pytest.approx(1.0, rel=1e-15)


def test_tau_control_floor():
    soiled = flat_spectrum(300, 900, 0.02, Kind.TRANSMITTANCE)
    control = linear_spectrum(300, 900, 0.04, 0.9)
    with pytest.raises(ControlBelowFloor):
        soiling_transmittance(soiled, control)


@pytest.mark.filterwarnings("error")
def test_tau_noise_kept_and_flagged():
    soiled = flat_spectrum(300, 900, 0.91, Kind.TRANSMITTANCE)
    control = flat_spectrum(300, 900, 0.90, Kind.TRANSMITTANCE)
    tau, noisy, clamped = soiling_transmittance(soiled, control)
    # ratio 1.0111 is kept, not clamped, at both samples
    np.testing.assert_allclose(tau.values, 0.91 / 0.90, rtol=1e-15)
    assert (noisy, clamped) == (2, 0)


@pytest.mark.filterwarnings("error")
def test_tau_clamped_above_bound():
    soiled = flat_spectrum(300, 900, 0.95, Kind.TRANSMITTANCE)
    control = flat_spectrum(300, 900, 0.90, Kind.TRANSMITTANCE)
    tau, noisy, clamped = soiling_transmittance(soiled, control)
    np.testing.assert_allclose(tau.values, 1.02, rtol=1e-15)
    assert (noisy, clamped) == (0, 2)


@pytest.mark.filterwarnings("error")
def test_tau_counts_noisy_and_clamped_samples_apart():
    grid = np.array([300.0, 400.0, 500.0, 600.0, 700.0])
    soiled = Spectrum(grid, np.array([0.45, 0.5, 0.505, 0.51, 0.55]), Kind.TRANSMITTANCE)
    control = Spectrum(grid, np.full(5, 0.5), Kind.TRANSMITTANCE)
    tau, noisy, clamped = soiling_transmittance(soiled, control)
    # Ratios 0.9, 1, 1.01, 1 + 0.02 and 1.1: a ratio at the bound is noise, not clamped.
    assert tau.values.tolist() == [0.9, 1.0, 1.01, 1.0 + 0.02, 1.0 + 0.02]
    assert (noisy, clamped) == (2, 1)


def test_tau_requires_transmittance_kinds():
    with pytest.raises(KindMismatch):
        soiling_transmittance(flat_spectrum(300, 900, 0.5),
                              flat_spectrum(300, 900, 0.9, Kind.TRANSMITTANCE))


def test_tau_requires_overlap():
    a = flat_spectrum(300, 400, 0.5, Kind.TRANSMITTANCE)
    b = flat_spectrum(500, 600, 0.9, Kind.TRANSMITTANCE)
    with pytest.raises(NoOverlap):
        soiling_transmittance(a, b)


def test_tau_frozen_values(demo_weeks):
    # The demo scans share one grid, so both factors are on the union grid;
    # the offset pair puts neither on it.
    taus = [soiling_transmittance(s, c).tau
            for m in demo_weeks for s, c in zip(m.soiled_scans, m.control_scans)]
    assert spectra_sha256(taus) == (
        "80ace7e70421a7b46a67c4c5cb7e7c60ea8eafaf688643e2d3fbaba3e5373871")
    soiled = synth_tau(SoilingModel(k=0.3, alpha=1.2), np.arange(298.0, 1814.0, 4.0))
    control = synth_tau(SoilingModel(k=0.02, alpha=0.5), np.arange(297.5, 1815.0, 5.0))
    assert spectra_sha256([soiling_transmittance(soiled, control).tau]) == (
        "271e7be0b0914789df64affa943b14a85e9147adee0bbccbd4fcc8a3baf1e3b3")


# ---------------------------------------------------------------------------
# ratios on the analytic toy
# ---------------------------------------------------------------------------

def test_sratio_no_soiling(toy2j, flat_e):
    tau = flat_spectrum(300, 900, 1.0, Kind.TRANSMITTANCE)
    assert sratio(flat_e, toy2j, tau) == 1.0


def test_sratio_flat(toy2j, flat_e):
    tau = flat_spectrum(300, 900, 0.8, Kind.TRANSMITTANCE)
    assert sratio(flat_e, toy2j, tau) == pytest.approx(0.8, rel=1e-12)


def test_sratio_linear_tau_oracle(toy2j, flat_e, linear_tau):
    # clean min = 200 (mid); soiled mid = 200 * mean tau on [700, 900]
    # mean tau on [700, 900] of the 0.5 -> 1.0 line = (5/6 + 1)/2 = 11/12
    assert sratio(flat_e, toy2j, linear_tau) == pytest.approx(11.0 / 12.0, rel=1e-12)


def test_bsratio_flat(toy2j, flat_e):
    for c in (0.3, 0.8, 1.0):
        tau = flat_spectrum(300, 900, c, Kind.TRANSMITTANCE)
        assert bsratio(flat_e, toy2j, tau) == pytest.approx(c, rel=1e-12)


def test_bsratio_trapezoid_arithmetic():
    cell = boxcar_cell([("a", 300, 1000), ("b", 1000, 1810)])
    e = flat_spectrum(300, 1810, 1.0)
    tau = Spectrum(np.array([300.0, 1055.0, 1810.0]), np.array([0.6, 0.8, 1.0]),
                   Kind.TRANSMITTANCE)
    # hand trapezoids: 755*0.7 + 755*0.9 = 1208; / 1510 = 0.8
    assert bsratio(e, cell, tau) == pytest.approx(0.8, rel=1e-12)


def test_bsratio_linear_tau(toy2j, flat_e, linear_tau):
    assert bsratio(flat_e, toy2j, linear_tau) == pytest.approx(0.75, rel=1e-12)


def test_ssratio_flat_is_one(toy2j, flat_e):
    tau = flat_spectrum(300, 900, 0.8, Kind.TRANSMITTANCE)
    assert ssratio(flat_e, toy2j, tau) == pytest.approx(1.0, rel=1e-12)


def test_ssratio_linear_tau(toy2j, flat_e, linear_tau):
    expected = (11.0 / 12.0) / 0.75
    assert ssratio(flat_e, toy2j, linear_tau) == pytest.approx(expected, rel=1e-12)
    assert ssratio(flat_e, toy2j, linear_tau) == pytest.approx(1.2222, abs=1e-4)


def test_ssratio_times_bsratio_is_sratio(toy2j, flat_e, linear_tau):
    s = sratio(flat_e, toy2j, linear_tau)
    b = bsratio(flat_e, toy2j, linear_tau)
    ss = ssratio(flat_e, toy2j, linear_tau)
    assert b * ss == pytest.approx(s, rel=1e-12)


# ---------------------------------------------------------------------------
# SMR / SMratio
# ---------------------------------------------------------------------------

def test_smr_at_reference_is_one(toy2j, flat_e, bundled_cell, reference):
    assert smr(flat_e, toy2j) == 1.0  # toy reference is flat 1 over [300, 900]
    assert smr(reference, bundled_cell) == pytest.approx(1.0, rel=1e-12)


def test_smr_linear_tau_oracle(toy2j, flat_e, linear_tau):
    # soiled: top = 400 * 2/3 = 266.67, mid = 200 * 11/12 = 183.33
    # smr_soiled = (266.67/183.33) * (200/400) = 8/11
    assert smr(flat_e, toy2j, linear_tau) == pytest.approx(8.0 / 11.0, rel=1e-12)
    assert smr(flat_e, toy2j, linear_tau) == pytest.approx(0.7273, abs=1e-4)


def test_smr_flat_tau_cancels(toy2j):
    rng = np.random.default_rng(5)
    w = np.linspace(300.0, 900.0, 20)
    e = Spectrum(w, rng.uniform(0.3, 1.2, 20), Kind.IRRADIANCE)
    tau = flat_spectrum(300, 900, 0.6, Kind.TRANSMITTANCE)
    assert smr(e, toy2j, tau) == pytest.approx(smr(e, toy2j), rel=1e-12)


def test_smratio_flat_is_one(toy2j, flat_e):
    tau = flat_spectrum(300, 900, 0.42, Kind.TRANSMITTANCE)
    assert smratio(flat_e, toy2j, tau) == pytest.approx(1.0, rel=1e-12)


def test_smratio_linear_tau(toy2j, flat_e, linear_tau):
    assert smratio(flat_e, toy2j, linear_tau) == pytest.approx(8.0 / 11.0, rel=1e-12)


def test_smratio_blue_heavy_below_one(toy2j, flat_e):
    tau = synth_tau(SoilingModel(k=0.3, alpha=1.2), np.linspace(300, 900, 121))
    assert smratio(flat_e, toy2j, tau) < 1.0


def test_smr_pairwise(bundled_cell, reference):
    # the top/mid SMR is normalised to 1 under the reference spectrum
    assert smr(reference, bundled_cell) == pytest.approx(1.0, rel=1e-12)


def test_smratio_equals_smr_quotient(bundled_cell, reference):
    tau = synth_tau(SoilingModel(k=0.25, alpha=1.0), np.linspace(300, 1810, 302))
    cancelled = smratio(reference, bundled_cell, tau)
    quotient = smr(reference, bundled_cell, tau) / smr(reference, bundled_cell)
    assert cancelled == pytest.approx(quotient, rel=1e-12)


def test_zero_clean_current(toy2j):
    dark = flat_spectrum(300, 900, 0.0)
    tau = flat_spectrum(300, 900, 0.5, Kind.TRANSMITTANCE)
    with pytest.raises(ZeroCleanCurrent):
        sratio(dark, toy2j, tau)
    with pytest.raises(ZeroDenominator):
        bsratio(dark, toy2j, tau)


def test_smr_zero_current(toy2j):
    e = Spectrum(np.array([300.0, 699.0, 700.0, 900.0]),
                 np.array([1.0, 1.0, 0.0, 0.0]), Kind.IRRADIANCE)
    with pytest.raises(ZeroCurrent):
        smr(e, toy2j)  # mid junction current is zero


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

def test_ast_flat():
    tau = flat_spectrum(300, 900, 1.0, Kind.TRANSMITTANCE)
    assert ast(tau, Waveband("b", 300, 900)) == pytest.approx(1.0, rel=1e-15)


def test_ast_linear_means(linear_tau):
    assert ast(linear_tau, Waveband("b", 300, 700)) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert ast(linear_tau, Waveband("b", 300, 900)) == pytest.approx(0.75, rel=1e-12)


def test_ast_requires_transmittance(flat_e):
    with pytest.raises(KindMismatch):
        ast(flat_e, Waveband("b", 300, 900))


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_report_no_soiling(toy2j, flat_e):
    tau = flat_spectrum(300, 900, 1.0, Kind.TRANSMITTANCE)
    rep = index_report(flat_e, toy2j, tau)
    for name in ("sratio", "bsratio", "ssratio", "smr_cleaned", "smr_soiled", "smratio"):
        assert getattr(rep, name) == pytest.approx(1.0, rel=1e-12)
    assert all(v == pytest.approx(1.0, rel=1e-12) for v in rep.ast.values())


def test_report_toy_oracle(toy2j, flat_e, linear_tau):
    rep = index_report(flat_e, toy2j, linear_tau)
    assert rep.sratio == pytest.approx(0.91667, abs=1e-4)
    assert rep.bsratio == pytest.approx(0.75, abs=1e-4)
    assert rep.ssratio == pytest.approx(1.2222, abs=1e-4)
    assert rep.smratio == pytest.approx(0.7273, abs=1e-4)
    assert rep.ast["full"] == pytest.approx(0.75, abs=1e-4)
    assert rep.limiting_cleaned == "mid" and rep.limiting_soiled == "mid"


def test_report_flat_tau(toy2j):
    rng = np.random.default_rng(9)
    w = np.linspace(300.0, 900.0, 40)
    e = Spectrum(w, rng.uniform(0.2, 1.4, 40), Kind.IRRADIANCE)
    tau = flat_spectrum(300, 900, 0.8, Kind.TRANSMITTANCE)
    rep = index_report(e, toy2j, tau)
    assert rep.sratio == pytest.approx(0.8, rel=1e-12)
    assert rep.bsratio == pytest.approx(0.8, rel=1e-12)
    assert rep.ssratio == pytest.approx(1.0, rel=1e-12)
    assert rep.smratio == pytest.approx(1.0, rel=1e-12)
    for v in rep.ast.values():
        assert v == pytest.approx(0.8, rel=1e-12)


def test_report_ast_band_order(toy2j, flat_e, linear_tau):
    rep = index_report(flat_e, toy2j, linear_tau)
    assert list(rep.ast.keys()) == ["full", "top", "mid"]


def test_report_serialization(toy2j, flat_e, linear_tau):
    rep = index_report(flat_e, toy2j, linear_tau)
    d = rep.to_dict()
    assert d["ast_full"] == rep.ast["full"]
    assert rep.csv_header().split(",")[0] == "sratio"
    assert len(rep.csv_row().split(",")) == len(d)


def test_report_rejects_broken_identity():
    with pytest.raises(ValueError, match="identity"):
        IndexReport(
            sratio=0.9, bsratio=0.8, ssratio=1.0,
            smr_cleaned=1.0, smr_soiled=1.0, smratio=1.0,
            ast={"full": 0.9}, limiting_cleaned="a", limiting_soiled="a",
        )


def test_weighted_report_sums_currents(toy2j, linear_tau):
    # two spectra: flat 1 and flat 2; daily-weighted indexes must match a
    # single run with flat 3 = 1 + 2 by linearity of every current
    e1 = flat_spectrum(300, 900, 1.0)
    e2 = flat_spectrum(300, 900, 2.0)
    e3 = flat_spectrum(300, 900, 3.0)
    combined = index_report_weighted([e1, e2], toy2j, linear_tau)
    direct = index_report(e3, toy2j, linear_tau)
    assert combined.sratio == pytest.approx(direct.sratio, rel=1e-12)
    assert combined.bsratio == pytest.approx(direct.bsratio, rel=1e-12)
    assert combined.smratio == pytest.approx(direct.smratio, rel=1e-12)


def _per_spectrum_indexes(spectra, cell, tau):
    """Indexes from currents and integrals summed spectrum by spectrum."""
    clean = {j.name: sum(jsc_junction(e, j) for e in spectra) for j in cell.junctions}
    soiled = {j.name: sum(jsc_junction(e, j, tau) for e in spectra) for j in cell.junctions}
    b_clean = sum(integrate(e, cell.full_band) for e in spectra)
    b_soil = sum(integrate(pointwise_product(e, tau), cell.full_band) for e in spectra)
    eligible = [j.name for j in cell.junctions if j.limiting_eligible]
    lim_c = min(eligible, key=lambda n: clean[n])
    lim_s = min(eligible, key=lambda n: soiled[n])
    top, mid = cell.junctions[0].name, cell.junctions[1].name
    ref = cell.reference_currents
    sr = soiled[lim_s] / clean[lim_c]
    bs = b_soil / b_clean
    return {
        "sratio": sr,
        "bsratio": bs,
        "ssratio": sr / bs,
        "smr_cleaned": (clean[top] / clean[mid]) * (ref[mid] / ref[top]),
        "smr_soiled": (soiled[top] / soiled[mid]) * (ref[mid] / ref[top]),
        "smratio": (soiled[top] / soiled[mid]) * (clean[mid] / clean[top]),
    }, (lim_c, lim_s)


def _record_kernel_calls(monkeypatch):
    """Record the arguments of every report_integrals call the report makes,
    and every jsc_junction call, of which it should make none."""
    calls, singles = [], []
    kernel = soilspec.metrics.report_integrals
    monkeypatch.setattr(soilspec.metrics, "report_integrals",
                        lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(soilspec.metrics, "jsc_junction",
                        lambda *args: singles.append(args) or jsc_junction(*args))
    return calls, singles


def _check_one_call_per_grid(calls, grids, cell, tau):
    """One kernel call per distinct grid, in first-seen order, told by the
    irradiance of each call; each with tau, the cell's (SR, band) pairs in
    stack order and its full band, and the first alone with the AST bands."""
    assert [c[0].wavelengths_nm.tobytes() for c in calls] == [g.tobytes() for g in grids]
    responses = [(j.sr, j.band) for j in cell.junctions]
    for k, (_, t, got, full_band, tau_bands) in enumerate(calls):
        assert t is tau and full_band == cell.full_band
        assert list(got) == responses
        assert tuple(tau_bands) == (cell.bands if k == 0 else ())


def _grid_sums(spectra):
    """One spectrum per distinct grid, in first-seen order, holding the sum
    of the values on that grid (np.sum over axis 0, as the report sums)."""
    groups = {}
    for e in spectra:
        groups.setdefault(e.wavelengths_nm.tobytes(), []).append(e)
    return [g[0] if len(g) == 1 else g[0].with_values(np.sum([e.values for e in g], axis=0))
            for g in groups.values()]


def test_weighted_report_mixed_grids_matches_per_spectrum_sums(bundled_cell, monkeypatch):
    spectra = mixed_grid_day()
    tau = bundled_tau()
    calls, singles = _record_kernel_calls(monkeypatch)
    report = index_report_weighted(spectra, bundled_cell, tau)
    # the 5 nm grid, then the 4 nm one, and no single-current call
    _check_one_call_per_grid(calls, [spectra[0].wavelengths_nm, spectra[1].wavelengths_nm],
                             bundled_cell, tau)
    assert singles == []
    expected, limiting = _per_spectrum_indexes(spectra, bundled_cell, tau)
    for key, value in expected.items():
        assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=0.0), key
    assert (report.limiting_cleaned, report.limiting_soiled) == limiting
    # the per-current route over the two grid sums gives the same bits
    monkeypatch.undo()
    assert _hexed(report.to_dict()) == _hexed(_per_current_report(_grid_sums(spectra),
                                                                  bundled_cell, tau))


def test_weighted_report_groups_grids_by_content(bundled_cell, monkeypatch):
    # grid A, grid B, a distinct array equal to A, then A again
    grid_a = np.arange(297.5, 1815.0, 5.0)
    a0 = synth_spectrum(0.2, grid_a)
    b = synth_spectrum(-0.1, np.arange(296.0, 1816.0, 4.0))
    a_copy = Spectrum(grid_a.copy(), 0.7 * a0.values, Kind.IRRADIANCE)
    a1 = a0.with_values(0.3 * a0.values)
    day = [a0, b, a_copy, a1]
    assert a1.wavelengths_nm is a0.wavelengths_nm
    assert a_copy.wavelengths_nm is not a0.wavelengths_nm
    tau = bundled_tau()
    calls, singles = _record_kernel_calls(monkeypatch)
    report = index_report_weighted(day, bundled_cell, tau).to_dict()
    # one evaluation per distinct grid: A (all three spectra), then B
    _check_one_call_per_grid(calls, [grid_a, b.wavelengths_nm], bundled_cell, tau)
    assert singles == []
    monkeypatch.undo()
    own_grids = [Spectrum(e.wavelengths_nm.copy(), e.values, e.kind, e.units) for e in day]
    assert index_report_weighted(own_grids, bundled_cell, tau).to_dict() == report
    summed_a = a0.with_values(np.sum([a0.values, a_copy.values, a1.values], axis=0))
    assert index_report_weighted([summed_a, b], bundled_cell, tau).to_dict() == report
    assert _hexed(report) == _hexed(_per_current_report([summed_a, b], bundled_cell, tau))


def test_weighted_report_checks_kind_of_every_spectrum(toy2j, flat_e, linear_tau):
    # a wrong-kind curve on the same grid must not be summed into the day
    stray = flat_spectrum(300, 900, 1.0, Kind.TRANSMITTANCE)
    with pytest.raises(KindMismatch):
        index_report_weighted([flat_e, flat_e, stray], toy2j, linear_tau)


# Computed with the Spectrum-building product path this report used before
# integrate_product; an equivalent rewrite must reproduce every bit.
_FROZEN_REPORT = {
    "sratio": float.fromhex("0x1.a100276cfaaeap-1"),
    "bsratio": float.fromhex("0x1.98054868022fep-1"),
    "ssratio": float.fromhex("0x1.05a25b23ea22fp+0"),
    "smr_cleaned": float.fromhex("0x1.201c5391f122fp+0"),
    "smr_soiled": float.fromhex("0x1.003d444cc2046p+0"),
    "smratio": float.fromhex("0x1.c75c936607c1cp-1"),
    "limiting_cleaned": "mid",
    "limiting_soiled": "top",
    "ast_MJ": float.fromhex("0x1.ac208992e6ebap-1"),
    "ast_top": float.fromhex("0x1.68b27c0f27b17p-1"),
    "ast_mid": float.fromhex("0x1.a8ba8222b488fp-1"),
    "ast_bot": float.fromhex("0x1.ccb62fd346bb6p-1"),
}


def test_report_frozen_values(bundled_cell):
    # E and tau on offset grids, so every current runs on a union grid
    e = synth_spectrum(0.3, np.arange(297.5, 1815.0, 5.0))
    tau = synth_tau(SoilingModel(k=0.3, alpha=1.2), np.arange(298.0, 1814.0, 4.0))
    assert index_report(e, bundled_cell, tau).to_dict() == _FROZEN_REPORT


# Computed with two jsc_junction calls per junction, before the report
# took a junction's cleaned and soiled currents from one sampling.
_FROZEN_SHARED_GRID_REPORT = {
    "sratio": float.fromhex("0x1.a0fff6942295cp-1"),
    "bsratio": float.fromhex("0x1.98058cbcbf944p-1"),
    "ssratio": float.fromhex("0x1.05a210ad59e4bp+0"),
    "smr_cleaned": float.fromhex("0x1.201c5391f122fp+0"),
    "smr_soiled": float.fromhex("0x1.003d2eada2803p+0"),
    "smratio": float.fromhex("0x1.c75c6cf99732bp-1"),
    "limiting_cleaned": "mid",
    "limiting_soiled": "top",
    "ast_MJ": float.fromhex("0x1.ac2074106bd50p-1"),
    "ast_top": float.fromhex("0x1.68b23d8628b02p-1"),
    "ast_mid": float.fromhex("0x1.a8ba7412f382fp-1"),
    "ast_bot": float.fromhex("0x1.ccb62c008f8b9p-1"),
}


def test_report_frozen_values_with_tau_on_the_irradiance_grid(bundled_cell):
    # E and tau on one 5 nm grid, held as two equal arrays, as in a campaign
    grid = np.arange(297.5, 1815.0, 5.0)
    e = synth_spectrum(0.3, grid)
    tau = synth_tau(SoilingModel(k=0.3, alpha=1.2), grid)
    assert e.wavelengths_nm is not tau.wavelengths_nm
    assert index_report(e, bundled_cell, tau).to_dict() == _FROZEN_SHARED_GRID_REPORT


def test_weighted_report_samples_each_junction_once_when_tau_is_on_the_grid(bundled_cell,
                                                                         monkeypatch):
    # three spectra on one grid, two of them holding one array and one a copy,
    # and tau on another equal copy: one distinct grid, one kernel call, and
    # one union per junction, of the grid and the junction's SR, which its
    # cleaned and soiled currents share; no single-current call
    import soilspec.spectral as spectral
    grid = np.arange(297.5, 1815.0, 5.0)
    a0 = synth_spectrum(0.2, grid)
    day = [a0, a0.with_values(0.3 * a0.values), synth_spectrum(-0.1, grid.copy())]
    tau = synth_tau(SoilingModel(k=0.3, alpha=1.2), grid.copy())
    calls, singles = _record_kernel_calls(monkeypatch)
    unions = []
    monkeypatch.setattr(spectral, "_union", lambda grids, lo, hi, f=spectral._union:
                        unions.append(grids) or f(grids, lo, hi))
    report = index_report_weighted(day, bundled_cell, tau).to_dict()
    _check_one_call_per_grid(calls, [grid], bundled_cell, tau)
    assert singles == []
    assert len(unions) == len(bundled_cell.junctions)
    for grids, j in zip(unions, bundled_cell.junctions):
        assert sorted(g.tobytes() for g in grids) == sorted([grid.tobytes(),
                                                              j.sr.wavelengths_nm.tobytes()])
    # the per-current route gives the same bits
    monkeypatch.undo()
    summed = a0.with_values(np.sum([e.values for e in day], axis=0))
    assert _hexed(report) == _hexed(_per_current_report(summed, bundled_cell, tau))


def _hexed(report):
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.items()}


def _per_current_report(e, cell, tau):
    """The report of one irradiance, or of a list of them on distinct
    grids, from single calls: jsc_junction for each current, integrate and
    integrate_product for the broadband integrals, each summed over the
    list in order from 0.0, and integrate for the ASTs, combined by the
    report's formulas."""
    spectra = [e] if isinstance(e, Spectrum) else e
    clean = {j.name: sum((jsc_junction(e, j) for e in spectra), 0.0) for j in cell.junctions}
    soiled = {j.name: sum((jsc_junction(e, j, tau) for e in spectra), 0.0) for j in cell.junctions}
    clean_stack, soiled_stack = stack_current(clean, cell), stack_current(soiled, cell)
    sr = soiled_stack.value / clean_stack.value
    bs = (sum((integrate_product(e, tau, band=cell.full_band) for e in spectra), 0.0)
          / sum((integrate(e, cell.full_band) for e in spectra), 0.0))
    top, mid = cell.junctions[0].name, cell.junctions[1].name
    ref = cell.reference_currents

    def matching(num, den):
        return (num[top] / num[mid]) * (den[mid] / den[top])

    report = {
        "sratio": sr,
        "bsratio": bs,
        "ssratio": sr / bs,
        "smr_cleaned": matching(clean, ref),
        "smr_soiled": matching(soiled, ref),
        "smratio": matching(soiled, clean),
        "limiting_cleaned": clean_stack.limiting,
        "limiting_soiled": soiled_stack.limiting,
    }
    report.update({f"ast_{b.name}": integrate(tau, b) / b.width_nm for b in cell.bands})
    return report


def _random_grid(rng):
    """A grid over the bundled cell's 300-1810 nm band, randomly offset and
    stepped (4-6 nm)."""
    step = rng.uniform(4.0, 6.0)
    start = 300.0 - rng.uniform(0.0, step)
    return start + step * np.arange(int(np.ceil((1810.0 - start) / step)) + 1)


def test_report_equals_the_per_current_route_on_random_grids(bundled_cell):
    # 200 cases with E and tau each on its own random grid, then 20 with tau
    # on E's grid (an equal copy, or the same grid array passed twice)
    rng = np.random.default_rng(30)
    cases = []
    for k in range(220):
        tilt, soil = rng.uniform(-1.0, 1.0), SoilingModel(rng.uniform(0.02, 0.6),
                                                          rng.uniform(0.5, 2.0))
        grid = _random_grid(rng)
        tau_grid = _random_grid(rng) if k < 200 else grid.copy() if k % 2 else grid
        cases.append((synth_spectrum(float(tilt), grid), synth_tau(soil, tau_grid)))
    for e, tau in cases:
        assert (_hexed(index_report(e, bundled_cell, tau).to_dict())
                == _hexed(_per_current_report(e, bundled_cell, tau)))


_GRID_5NM = np.arange(297.5, 1815.0, 5.0)


# Kinds and messages computed at the commit before the report took its
# integrals from one call shaped to it; the first integral to fail, in the
# order of the single calls, raises.
@pytest.mark.parametrize("e_grid, tau_grid, error, message", [
    (_GRID_5NM, np.arange(400.0, 2001.0, 4.0), BandOutOfSupport,
     "band 'top' [300.0, 720.0] nm not covered by support [400.0, 720.0] nm"),
    (np.arange(297.5, 1500.0, 5.0), np.arange(298.0, 1814.0, 4.0), BandOutOfSupport,
     "band 'bot' [920.0, 1810.0] nm not covered by support [920.0, 1497.5] nm"),
    (_GRID_5NM, np.arange(298.0, 1700.0, 4.0), BandOutOfSupport,
     "band 'bot' [920.0, 1810.0] nm not covered by support [920.0, 1698.0] nm"),
    (_GRID_5NM, np.arange(1000.0, 2001.0, 4.0), NoOverlap,
     "spectra supports do not overlap: [297.5, 1812.5], [1000.0, 2000.0], [300.0, 720.0]"),
], ids=["tau-from-400", "e-to-1497.5", "tau-to-1698", "tau-from-1000"])
def test_report_raises_the_first_failing_integrals_error(bundled_cell, e_grid, tau_grid, error,
                                                         message):
    e = synth_spectrum(0.3, e_grid)
    tau = synth_tau(SoilingModel(k=0.3, alpha=1.2), tau_grid)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        index_report(e, bundled_cell, tau)


# ---------------------------------------------------------------------------
# step-tau spectral gain, checked against a fine-grid oracle
# ---------------------------------------------------------------------------

def test_step_tau_ssratio_above_one(toy2j, flat_e):
    # attenuation confined to the non-limiting top band leaves the current
    # untouched but cuts the broadband integral, so ssratio > 1
    tau = Spectrum(
        np.array([300.0, 699.99, 700.01, 900.0]),
        np.array([0.6, 0.6, 1.0, 1.0]),
        Kind.TRANSMITTANCE,
    )
    s = sratio(flat_e, toy2j, tau)
    b = bsratio(flat_e, toy2j, tau)
    ss = ssratio(flat_e, toy2j, tau)
    assert ss > 1.0

    # fine-grid midpoint oracle for both ingredients
    tau_f = sampled_eval(tau)
    soiled_mid = midpoint_riemann(tau_f, 700.0, 900.0, 0.01)  # E=1, SR=1
    assert s == pytest.approx(soiled_mid / 200.0, rel=1e-6)
    broad = midpoint_riemann(tau_f, 300.0, 900.0, 0.01) / 600.0
    assert b == pytest.approx(broad, rel=1e-6)
    assert ss == pytest.approx((soiled_mid / 200.0) / broad, rel=1e-6)


# ---------------------------------------------------------------------------
# standalone index functions and the report share one formula per index
# ---------------------------------------------------------------------------

def _offset_grid(rng):
    """A randomly stepped grid over the bundled cell's full band, starting
    a random fraction of a step below it."""
    step = rng.uniform(4.0, 6.0)
    start = 300.0 - rng.uniform(0.0, step)
    return start + step * np.arange(int(np.ceil((1810.0 - start) / step)) + 1)


def test_standalone_indexes_equal_report_bit_for_bit(bundled_cell):
    rng = np.random.default_rng(17)
    for _ in range(25):
        e = synth_spectrum(float(rng.uniform(-1.0, 1.0)), _offset_grid(rng))
        model = SoilingModel(float(rng.uniform(0.02, 0.6)), float(rng.uniform(0.5, 2.0)))
        tau = synth_tau(model, _offset_grid(rng))
        rep = index_report(e, bundled_cell, tau)
        assert sratio(e, bundled_cell, tau) == rep.sratio
        assert bsratio(e, bundled_cell, tau) == rep.bsratio
        assert ssratio(e, bundled_cell, tau) == rep.ssratio
        assert smr(e, bundled_cell) == rep.smr_cleaned
        assert smr(e, bundled_cell, tau) == rep.smr_soiled
        assert smratio(e, bundled_cell, tau) == rep.smratio


_ZCC, _ZD, _ZC = ZeroCleanCurrent, ZeroDenominator, ZeroCurrent
# Per case: what (sratio, bsratio, ssratio) raise, then what (smr cleaned,
# smr soiled, smratio, index_report) raise; None where a value is returned.
# The report raises ZeroCurrent for any zero index.
_ERRORS = {
    "dark": ((_ZCC, _ZD, _ZD), (_ZC, _ZC, _ZC, _ZCC)),
    "tau0_top": ((None,) * 3, (None, None, None, _ZC)),
    "tau0_mid": ((None,) * 3, (None, _ZC, _ZC, _ZC)),
    "tau0_bot": ((None,) * 3, (None, None, None, None)),
    "tau0_all": ((None, None, _ZD), (None, _ZC, _ZC, _ZD)),
    "zero_top_sr": ((_ZCC, None, _ZCC), (_ZC, _ZC, _ZC, _ZCC)),
}


def _error_case(name, cell, reference):
    grid = np.arange(300.0, 1811.0, 1.0)

    def tau_zero_on(lo, hi):
        inside = (grid >= lo) & (grid <= hi)
        return Spectrum(grid, np.where(inside, 0.0, 0.8), Kind.TRANSMITTANCE)

    if name == "dark":
        return reference.with_values(reference.values * 0.0), bundled_tau(), cell
    if name == "tau0_all":
        return reference, tau_zero_on(300.0, 1810.0), cell
    if name == "zero_top_sr":
        top = cell.junctions[0]
        dark_top = Junction(top.name, top.band, top.sr.with_values(top.sr.values * 0.0))
        zero_top = dataclasses.replace(cell, name="zero-top",
                                       junctions=(dark_top,) + cell.junctions[1:])
        return reference, bundled_tau(), zero_top
    band = cell.junction(name.removeprefix("tau0_")).band
    return reference, tau_zero_on(band.lambda_min_nm, band.lambda_max_nm), cell


def _raised(call):
    try:
        call()
    except (ZeroCleanCurrent, ZeroDenominator, ZeroCurrent) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("name", sorted(_ERRORS))
def test_standalone_indexes_and_report_error_parity(name, bundled_cell, reference):
    e, tau, cell = _error_case(name, bundled_cell, reference)
    plain, matching = _ERRORS[name]
    assert (
        _raised(lambda: sratio(e, cell, tau)),
        _raised(lambda: bsratio(e, cell, tau)),
        _raised(lambda: ssratio(e, cell, tau)),
    ) == plain
    assert (
        _raised(lambda: smr(e, cell)),
        _raised(lambda: smr(e, cell, tau)),
        _raised(lambda: smratio(e, cell, tau)),
        _raised(lambda: index_report(e, cell, tau)),
    ) == matching


def test_overflowing_irradiance_is_a_non_finite_index(bundled_cell, reference):
    # Finite spectra whose integrals overflow: at 1e306 the broadband
    # integrals do (bsratio = inf / inf), at 1e307 the junction currents too.
    tau = bundled_tau()
    with np.errstate(over="ignore"):
        e = reference.with_values(reference.values * 1e306)
        for f in (bsratio, ssratio, index_report):
            with pytest.raises(NonFiniteIndex):
                f(e, bundled_cell, tau)
        e = reference.with_values(reference.values * 1e307)
        for f in (sratio, bsratio, ssratio, smr, smratio, index_report):
            with pytest.raises(NonFiniteIndex):
                f(e, bundled_cell, tau)
        with pytest.raises(NonFiniteIndex):
            smr(e, bundled_cell)
    with pytest.raises(ValueError, match="finite"):
        IndexReport(
            sratio=float("nan"), bsratio=float("nan"), ssratio=float("nan"),
            smr_cleaned=1.0, smr_soiled=1.0, smratio=1.0,
            ast={"full": 0.9}, limiting_cleaned="a", limiting_soiled="a",
        )
