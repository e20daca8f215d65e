"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Every tolerance is pinned here; none is deferred to calibration.
"""

import functools
import time
from importlib import resources

import numpy as np
import pytest

from soilspec import (
    CellModel,
    Junction,
    Kind,
    Spectrum,
    Waveband,
    ast,
    boxcar_cell,
    index_report,
    integrate,
    is_cloudy,
    jsc_cell,
    jsc_junction,
    linfit,
    load_bundled_3j,
    load_scenario,
    mape,
    mpe,
    r2,
    run_campaign,
    soiling_rate_fit,
    ssratio,
    synth_campaign,
    synth_spectrum,
    synth_tau,
    validate_week,
)
from soilspec.cell import bundled_cell_config_path
from soilspec.cli import main as cli_main
from soilspec.synth import SoilingModel

from conftest import flat_spectrum, midpoint_riemann
from test_pipeline import clear_day, cloudy_day, measurement

IDENTITY_RTOL = 1e-12
TABLE_BANDS = [("top", 300.0, 720.0), ("mid", 720.0, 920.0), ("bot", 920.0, 1810.0)]


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared seeded campaign (criteria 7, 8, 11 reuse the bundled scenario)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def demo_scenario_path():
    return str(resources.files("soilspec").joinpath("data/demo_scenario.yaml"))


@pytest.fixture(scope="session")
def demo_campaign(bundled_cell, demo_scenario_path):
    scenario = load_scenario(demo_scenario_path)
    t0 = time.perf_counter()
    weeks, days = synth_campaign(scenario, bundled_cell)
    result = run_campaign(weeks, days, bundled_cell)
    elapsed = time.perf_counter() - t0
    return result, elapsed


# ---------------------------------------------------------------------------
# criterion 1: identity suite on 1000 seeded random triples
# ---------------------------------------------------------------------------

def _random_cell(rng):
    lo = 300.0
    hi = float(rng.uniform(500.0, 2000.0))
    n_junctions = int(rng.integers(2, 5))
    cuts = np.concatenate(([lo], np.sort(rng.uniform(lo + 20.0, hi - 20.0,
                                                     n_junctions - 1)), [hi]))
    junctions = []
    for i in range(n_junctions):
        b_lo, b_hi = float(cuts[i]), float(cuts[i + 1])
        if rng.random() < 0.5:
            w = np.array([b_lo, b_hi])
            v = np.full(2, rng.uniform(0.1, 1.0))
        else:
            n = int(rng.integers(3, 8))
            w = np.linspace(b_lo, b_hi, n)
            v = rng.uniform(0.05, 1.0, n)
        eligible = True
        if i == n_junctions - 1 and n_junctions > 2 and rng.random() < 0.3:
            eligible = False
        junctions.append(
            Junction(f"j{i}", Waveband(f"j{i}", b_lo, b_hi),
                     Spectrum(w, v, Kind.SPECTRAL_RESPONSE),
                     limiting_eligible=eligible)
        )
    n_ref = int(rng.integers(5, 16))
    reference = Spectrum(np.linspace(lo, hi, n_ref),
                         rng.uniform(0.2, 1.5, n_ref), Kind.IRRADIANCE)
    return CellModel("random", junctions, reference), lo, hi


def _random_positive_spectrum(rng, lo, hi):
    n = int(rng.integers(4, 13))
    return Spectrum(np.linspace(lo, hi, n), rng.uniform(0.2, 1.5, n),
                    Kind.IRRADIANCE)


def _random_tau(rng, lo, hi):
    n = int(rng.integers(4, 13))
    return Spectrum(np.linspace(lo, hi, n), rng.uniform(0.3, 1.0, n),
                    Kind.TRANSMITTANCE)


@criterion(1, "identity suite: 1000 random triples, both identities at 1e-12, < 10 s")
def test_identity_suite():
    rng = np.random.default_rng(20161231)
    t0 = time.perf_counter()
    for _ in range(1000):
        cell, lo, hi = _random_cell(rng)
        e = _random_positive_spectrum(rng, lo, hi)
        tau = _random_tau(rng, lo, hi)
        rep = index_report(e, cell, tau)
        assert abs(rep.sratio - rep.bsratio * rep.ssratio) <= IDENTITY_RTOL * abs(rep.sratio)
        assert abs(rep.smratio - rep.smr_soiled / rep.smr_cleaned) \
            <= IDENTITY_RTOL * abs(rep.smratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# criterion 2: flat-tau neutrality
# ---------------------------------------------------------------------------

@criterion(2, "flat-tau neutrality: ssratio = smratio = 1, sratio = bsratio = ast = c")
def test_flat_tau_neutrality(toy2j, bundled_cell, reference):
    rng = np.random.default_rng(8)
    random_cell, lo, hi = _random_cell(rng)
    cases = [
        (toy2j, flat_spectrum(300, 900, 1.0)),
        (toy2j, Spectrum(np.linspace(300, 900, 31),
                         rng.uniform(0.2, 1.4, 31), Kind.IRRADIANCE)),
        (bundled_cell, reference),
        (random_cell, _random_positive_spectrum(rng, lo, hi)),
    ]
    for c in (0.3, 0.8, 1.0):
        for cell, e in cases:
            s_lo, s_hi = e.support
            tau = flat_spectrum(s_lo, s_hi, c, Kind.TRANSMITTANCE)
            rep = index_report(e, cell, tau)
            assert abs(rep.ssratio - 1.0) <= 1e-12
            assert abs(rep.smratio - 1.0) <= 1e-12
            assert abs(rep.sratio - c) <= 1e-12 * c
            assert abs(rep.bsratio - c) <= 1e-12 * c
            for v in rep.ast.values():
                assert abs(v - c) <= 1e-12 * c


# ---------------------------------------------------------------------------
# criterion 3: two-junction analytic toy oracle
# ---------------------------------------------------------------------------

@criterion(3, "analytic toy: sratio/bsratio/ssratio/smratio/ast within 1e-4")
def test_analytic_toy(toy2j, flat_e, linear_tau):
    rep = index_report(flat_e, toy2j, linear_tau)
    assert rep.sratio == pytest.approx(0.91667, abs=1e-4)
    assert rep.bsratio == pytest.approx(0.75, abs=1e-4)
    assert rep.ssratio == pytest.approx(1.2222, abs=1e-4)
    assert rep.smratio == pytest.approx(0.7273, abs=1e-4)
    assert rep.ast["full"] == pytest.approx(0.75, abs=1e-4)


# ---------------------------------------------------------------------------
# criterion 4: quadrature against the 0.01 nm midpoint oracle
# ---------------------------------------------------------------------------

@criterion(4, "trapezoidal integrate vs 0.01 nm midpoint oracle within 1e-6")
def test_quadrature_oracle():
    funcs = [
        lambda x: np.exp(-((x - 800.0) / 400.0) ** 2) + 0.1,
        lambda x: 1.2 - x / 4000.0 + 0.3 * np.sin(x / 300.0),
        lambda x: 0.5 + 0.4 * np.exp(-((x - 550.0) / 250.0) ** 2),
    ]
    bands = [Waveband(*b) for b in TABLE_BANDS] + [Waveband("MJ", 300.0, 1810.0)]
    w = np.arange(300.0, 1810.0 + 0.5, 0.5)
    for f in funcs:
        s = Spectrum(w, f(w), Kind.IRRADIANCE)
        for band in bands:
            oracle = midpoint_riemann(f, band.lambda_min_nm, band.lambda_max_nm, 0.01)
            assert integrate(s, band) == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# criterion 5: bundled 3J band constants
# ---------------------------------------------------------------------------

@criterion(5, "bundled 3J config: exact band edges, bottom excluded from the min")
def test_band_constants():
    cell = load_bundled_3j()
    assert cell.full_band.lambda_min_nm == 300.0
    assert cell.full_band.lambda_max_nm == 1810.0
    bands = {j.band.name: (j.band.lambda_min_nm, j.band.lambda_max_nm)
             for j in cell.junctions}
    assert bands == {"top": (300.0, 720.0), "mid": (720.0, 920.0),
                     "bot": (920.0, 1810.0)}
    assert cell.junction("top").limiting_eligible
    assert cell.junction("mid").limiting_eligible
    assert not cell.junction("bot").limiting_eligible


# ---------------------------------------------------------------------------
# criterion 6: filtering rules, exact classifications
# ---------------------------------------------------------------------------

@criterion(6, "filtering rules: 1% replicate spread and 0.75 cloudy-day cutoffs")
def test_filtering_rules(toy2j):
    assert validate_week(measurement([0.900, 0.905, 0.915]), toy2j).accepted is False
    assert validate_week(measurement([0.900, 0.905, 0.908]), toy2j).accepted is True
    import datetime as dt
    date = dt.date(2017, 6, 5)
    assert is_cloudy(cloudy_day(date)) is True    # ratio 0.70
    assert is_cloudy(clear_day(date)) is False    # ratio 0.80


# ---------------------------------------------------------------------------
# criteria 7 and 8: qualitative campaign reproduction
# ---------------------------------------------------------------------------

@criterion(7, "52-week campaign: AST ordering, ratio trend, dry-stretch fit, < 30 s")
def test_campaign_transmittance_behaviour(demo_campaign):
    result, elapsed = demo_campaign
    assert elapsed < 30.0, f"campaign took {elapsed:.1f} s"
    accepted = result.accepted
    assert len(accepted) >= 45  # the filters must not decimate the campaign
    for w in accepted:
        assert w.ast_by_band["top"] < w.ast_by_band["mid"] < w.ast_by_band["bot"]
    # AST_top/AST_mid falls strictly as AST_MJ falls
    pairs = sorted((w.ast_full, w.ast_by_band["top"] / w.ast_by_band["mid"])
                   for w in accepted)
    assert all(b[1] > a[1] for a, b in zip(pairs, pairs[1:]))
    # dry stretch before the first rain event
    fit = soiling_rate_fit(result, week_range=(1, 18))
    assert fit.slope_per_week < 0.0
    assert fit.r2 >= 0.95


@criterion(8, "52-week campaign: smratio < 1, smratio > AST_top/AST_mid, sratio fit")
def test_campaign_mismatch_behaviour(demo_campaign):
    result, _ = demo_campaign
    accepted = result.accepted
    for w in accepted:
        assert w.report.smratio < 1.0
        assert w.report.smratio > w.ast_by_band["top"] / w.ast_by_band["mid"]
    fit = linfit([w.ast_full for w in accepted],
                 [w.report.sratio for w in accepted])
    assert fit.r2 >= 0.95


# ---------------------------------------------------------------------------
# criterion 9: blue-rich mitigation and limiting-junction flip
# ---------------------------------------------------------------------------

@criterion(9, "blue-rich tilt never lowers ssratio; soiling can flip the limiter")
def test_blue_rich_mitigation(reference):
    cell3 = boxcar_cell(TABLE_BANDS, not_eligible=("bot",),
                        reference=reference, full_band_name="MJ")
    tau = synth_tau(SoilingModel(k=0.3, alpha=1.0), np.linspace(300.0, 1810.0, 303))
    values = [ssratio(synth_spectrum(tilt), cell3, tau)
              for tilt in np.linspace(-1.0, 1.0, 9)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    # constructed flip: blue-step soiling moves the limiter from mid to top
    flip_cell = boxcar_cell([("top", 300.0, 700.0), ("mid", 700.0, 900.0)])
    e = flat_spectrum(300, 900, 1.0)
    step_tau = Spectrum(np.array([300.0, 699.99, 700.01, 900.0]),
                        np.array([0.2, 0.2, 1.0, 1.0]), Kind.TRANSMITTANCE)
    clean = jsc_cell(e, flip_cell)
    soiled = jsc_cell(e, flip_cell, step_tau)
    assert clean.limiting == "mid" and soiled.limiting == "top"
    # verify the currents against the fine-grid oracle
    tau_f = lambda x: np.interp(x, step_tau.wavelengths_nm, step_tau.values)
    for j, band in (("top", (300.0, 700.0)), ("mid", (700.0, 900.0))):
        oracle = midpoint_riemann(tau_f, band[0], band[1], 0.01)
        got = jsc_junction(e, flip_cell.junction(j), step_tau)
        assert got == pytest.approx(oracle, rel=1e-6)
    assert soiled.value == pytest.approx(
        midpoint_riemann(tau_f, 300.0, 700.0, 0.01), rel=1e-6)


# ---------------------------------------------------------------------------
# criterion 10: statistics formulas
# ---------------------------------------------------------------------------

@criterion(10, "MAPE/MPE/R2 hand values; perfect affine R2 = 1 within 1e-12")
def test_stats_formulas():
    assert mape([1.0, 2.0], [1.1, 1.8]) == pytest.approx(10.0, rel=1e-12)
    assert mpe([1.0, 2.0], [1.1, 1.8]) == pytest.approx(0.0, abs=1e-12)
    measured = np.array([1.0, 2.0, 4.0, 8.0])
    assert mpe(measured, 1.05 * measured) == pytest.approx(5.0, rel=1e-12)
    assert mape(measured, 1.05 * measured) == pytest.approx(5.0, rel=1e-12)
    x = np.linspace(-3.0, 9.0, 25)
    assert r2(x, 4.2 * x - 0.7) == pytest.approx(1.0, abs=1e-12)
    fit = linfit(x, 4.2 * x - 0.7)
    assert fit.slope == pytest.approx(4.2, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 11: byte-identical synth + campaign round trip
# ---------------------------------------------------------------------------

def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@criterion(11, "cmd_synth + cmd_campaign are byte-identical across equal-seed runs")
def test_round_trip_determinism(tmp_path, demo_scenario_path, capsys):
    cell_cfg = str(bundled_cell_config_path())
    trees = {}
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}"
        out = tmp_path / f"out_{run}"
        assert cli_main(["synth", "--scenario", demo_scenario_path,
                         "--out", str(data)]) == 0
        assert cli_main(["campaign", "--cell", cell_cfg,
                         "--data", str(data), "--out", str(out)]) == 0
        trees[run] = (_tree_bytes(data), _tree_bytes(out))
    capsys.readouterr()
    assert trees["a"][0] == trees["b"][0], "synth output differs between runs"
    assert trees["a"][1] == trees["b"][1], "campaign output differs between runs"
