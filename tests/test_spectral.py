import pickle
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from soilspec import (
    Kind,
    Spectrum,
    Waveband,
    integrate,
    integrate_product,
    pointwise_product,
    resample,
)
from soilspec.errors import BandOutOfSupport, GridOutOfSupport, NoOverlap
from soilspec.spectral import (
    CURRENT_DENSITY_UNITS,
    DIMENSIONLESS,
    IRRADIANCE_UNITS,
    SR_UNITS,
    integrate_rows,
    read_spectrum_csv,
    report_integrals,
    same_grid,
    sample_on_union,
    union_grid,
    write_spectrum_csv,
    write_text_atomic,
)

from conftest import flat_spectrum, linear_spectrum, midpoint_riemann, sampled_eval


# ---------------------------------------------------------------------------
# Spectrum invariants
# ---------------------------------------------------------------------------

def test_wavelengths_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(np.array([300.0, 300.0]), np.array([1.0, 1.0]), Kind.IRRADIANCE)


def test_needs_two_samples():
    with pytest.raises(ValueError, match="2 samples"):
        Spectrum(np.array([300.0]), np.array([1.0]), Kind.IRRADIANCE)


@pytest.mark.parametrize("w", [[300.0, 400.0, np.inf], [-np.inf, 300.0, 400.0],
                               [300.0, np.nan, 400.0]])
def test_wavelengths_must_be_finite(w):
    with pytest.raises(ValueError, match="wavelengths must be finite"):
        Spectrum(np.array(w), np.ones(3), Kind.IRRADIANCE)


def test_values_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        Spectrum(np.array([300.0, 400.0]), np.array([1.0, np.nan]), Kind.IRRADIANCE)


def test_transmittance_bounds():
    with pytest.raises(ValueError, match="clamp"):
        Spectrum(np.array([300.0, 400.0]), np.array([0.5, 1.05]), Kind.TRANSMITTANCE)
    with pytest.raises(ValueError, match="clamp"):
        Spectrum(np.array([300.0, 400.0]), np.array([-0.01, 0.5]), Kind.TRANSMITTANCE)
    # 2% headroom above 1 is tolerated as-is
    Spectrum(np.array([300.0, 400.0]), np.array([0.5, 1.02]), Kind.TRANSMITTANCE)


def test_clamped_is_explicit():
    s = Spectrum(np.array([300.0, 400.0]), np.array([0.0, 1.02]), Kind.TRANSMITTANCE)
    c = s.clamped(0.0, 1.0)
    assert c.values.max() == 1.0


def test_values_are_immutable():
    s = flat_spectrum(300, 400, 1.0)
    with pytest.raises(ValueError):
        s.values[0] = 2.0


def test_with_values_and_clamped_share_the_grid():
    s = Spectrum(np.array([300.0, 350.0, 400.0]), np.array([0.2, 1.01, 0.9]),
                 Kind.TRANSMITTANCE, "custom")
    new = np.array([0.1, 0.2, 0.3])
    t = s.with_values(new)
    c = t.clamped(0.15, 0.25)
    for derived in (t, c, c.with_values(np.zeros(3))):
        assert derived.wavelengths_nm is s.wavelengths_nm
        assert (derived.kind, derived.units) == (Kind.TRANSMITTANCE, "custom")
        assert not derived.values.flags.writeable
    new[0] = 0.9  # the values are still copied
    assert t.values.tolist() == [0.1, 0.2, 0.3]
    assert c.values.tolist() == [0.15, 0.2, 0.25]


@pytest.mark.parametrize("units", ["", "custom"], ids=["default-units", "custom-units"])
def test_pickled_spectrum_stays_read_only(units):
    s = Spectrum(np.array([300.0, 350.0, 400.0]), np.array([0.2, 1.01, 0.1 + 0.2]),
                 Kind.TRANSMITTANCE, units)
    back = pickle.loads(pickle.dumps(s))
    assert back.wavelengths_nm.tobytes() == s.wavelengths_nm.tobytes()
    assert back.values.tobytes() == s.values.tobytes()
    assert (back.kind, back.units) == (s.kind, s.units)
    assert not back.wavelengths_nm.flags.writeable and not back.values.flags.writeable


@pytest.mark.parametrize("derive, match", [
    (lambda s: s.with_values(np.ones(2)), "equal length"),
    (lambda s: s.with_values(np.ones(4)), "equal length"),
    (lambda s: s.with_values(np.ones((1, 3))), "equal length"),
    (lambda s: s.with_values(np.array([0.5, np.nan, 0.5])), "finite"),
    (lambda s: s.with_values(np.array([0.5, np.inf, 0.5])), "finite"),
    (lambda s: s.with_values(np.array([0.5, 1.05, 0.5])), "clamp"),
    (lambda s: s.with_values(np.array([0.5, -0.01, 0.5])), "clamp"),
    (lambda s: s.clamped(1.5, 2.0), "clamp"),
    (lambda s: s.clamped(-1.0, -0.5), "clamp"),
])
def test_derived_spectra_still_check_values(derive, match):
    s = Spectrum(np.array([300.0, 350.0, 400.0]), np.array([0.2, 0.6, 0.9]),
                 Kind.TRANSMITTANCE)
    with pytest.raises(ValueError, match=match):
        derive(s)


def _writable():
    return np.array([300.0, 400.0]), np.array([1.0, 2.0])


def _read_only_view():
    w, v = np.array([300.0, 400.0]), np.array([1.0, 2.0])
    wv, vv = w[:], v[:]
    wv.flags.writeable = vv.flags.writeable = False
    return (w, v), (wv, vv)


def _read_only_owning():
    w, v = np.array([300.0, 400.0]), np.array([1.0, 2.0])
    w.flags.writeable = v.flags.writeable = False
    return w, v


@pytest.mark.parametrize("kind", ["writable", "read-only view", "read-only owning"])
def test_constructor_copies_caller_arrays(kind):
    if kind == "writable":
        buffers = passed = _writable()
    elif kind == "read-only view":
        buffers, passed = _read_only_view()
    else:
        buffers = passed = _read_only_owning()
    s = Spectrum(*passed, Kind.IRRADIANCE)
    for buf in buffers:
        buf.flags.writeable = True
        buf *= 2.0
    assert s.wavelengths_nm.tolist() == [300.0, 400.0]
    assert s.values.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("units", ["", IRRADIANCE_UNITS])
def test_kind_must_be_a_kind_member(units):
    with pytest.raises(TypeError, match="'Irradiance'"):
        Spectrum(np.array([300.0, 400.0]), np.array([1.0, 1.0]), "Irradiance", units)


def test_waveband_validation():
    with pytest.raises(ValueError):
        Waveband("bad", 500.0, 400.0)
    with pytest.raises(ValueError):
        Waveband("bad", -1.0, 400.0)


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------

def test_resample_constant():
    s = flat_spectrum(300, 400, 1.0)
    r = resample(s, [300.0, 350.0, 400.0])
    np.testing.assert_array_equal(r.values, [1.0, 1.0, 1.0])


def test_resample_midpoint_interpolation():
    # hand value: line 0 -> 1 over [300, 500] is 0.5 at 400
    s = linear_spectrum(300, 500, 0.0, 1.0, Kind.IRRADIANCE)
    assert s.value_at(400.0) == 0.5
    r = resample(s, [350.0, 400.0])
    assert r.values[1] == 0.5


def test_resample_rejects_out_of_support():
    s = flat_spectrum(300, 900, 1.0)
    with pytest.raises(GridOutOfSupport):
        resample(s, [250.0, 400.0])
    with pytest.raises(GridOutOfSupport):
        s.value_at(250.0)


@pytest.mark.filterwarnings("error")
def test_resample_idempotent_on_own_grid():
    for w, v in ((np.array([300.0, 333.3, 401.7, 555.5, 900.0]),
                  np.array([0.1, 0.9, 0.4, 0.7, 0.2])),
                 (np.array([-1.6e308, 1.6e308]), np.array([0.1, 0.9]))):  # np.diff overflows
        s = Spectrum(w, v, Kind.IRRADIANCE)
        r = resample(s, w)
        np.testing.assert_array_equal(r.values, v)


def test_resample_exact_at_original_points():
    w = np.array([300.0, 450.0, 900.0])
    v = np.array([0.3, 0.8, 0.1])
    s = Spectrum(w, v, Kind.IRRADIANCE)
    r = resample(s, [300.0, 400.0, 450.0, 700.0, 900.0])
    assert r.values[0] == v[0] and r.values[2] == v[1] and r.values[4] == v[2]


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_unit_rectangle():
    s = flat_spectrum(300, 400, 1.0)
    assert integrate(s, Waveband("b", 300, 400)) == pytest.approx(100.0, rel=1e-15)


def test_integrate_triangle():
    # two hand trapezoids: 50 + 50
    s = Spectrum(np.array([300.0, 400.0, 500.0]), np.array([0.0, 1.0, 0.0]),
                 Kind.IRRADIANCE)
    assert integrate(s, Waveband("b", 300, 500)) == pytest.approx(100.0, rel=1e-15)


def test_integrate_line_analytic():
    # mean of the line 0.5 -> 1.0 is 0.75; times 600 nm
    s = linear_spectrum(300, 900, 0.5, 1.0, Kind.IRRADIANCE)
    assert integrate(s, Waveband("b", 300, 900)) == pytest.approx(450.0, rel=1e-15)


def test_integrate_inserts_endpoints():
    # exact for piecewise-linear integrands even off the sample grid:
    # y = 2x + 3 sampled coarsely, band strictly inside
    w = np.array([300.0, 512.0, 700.0, 900.0])
    s = Spectrum(w, 2.0 * w + 3.0, Kind.IRRADIANCE)
    lo, hi = 310.5, 882.25
    analytic = (hi**2 - lo**2) + 3.0 * (hi - lo)
    assert integrate(s, Waveband("b", lo, hi)) == pytest.approx(analytic, rel=1e-14)


def test_integrate_band_out_of_support():
    s = flat_spectrum(300, 900, 1.0)
    with pytest.raises(BandOutOfSupport):
        integrate(s, Waveband("b", 200, 400))
    with pytest.raises(BandOutOfSupport):
        integrate(s, Waveband("b", 800, 950))


def test_integrate_additive_over_adjacent_bands():
    rng = np.random.default_rng(7)
    w = np.sort(rng.uniform(300, 900, 40))
    w[0], w[-1] = 300.0, 900.0
    s = Spectrum(w, rng.uniform(0.1, 2.0, 40), Kind.IRRADIANCE)
    left = integrate(s, Waveband("l", 300, 607.3))
    right = integrate(s, Waveband("r", 607.3, 900))
    whole = integrate(s, Waveband("w", 300, 900))
    assert left + right == pytest.approx(whole, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=30),
    alpha=st.floats(-3.0, 3.0),
    beta=st.floats(-3.0, 3.0),
)
def test_integrate_is_linear(data, alpha, beta):
    n = len(data)
    w = np.linspace(300.0, 900.0, n)
    rng = np.random.default_rng(n)
    a = np.asarray(data)
    b = rng.uniform(-2.0, 2.0, n)
    band = Waveband("b", 310.0, 890.0)
    sa = Spectrum(w, a, Kind.IRRADIANCE)
    sb = Spectrum(w, b, Kind.IRRADIANCE)
    combo = Spectrum(w, alpha * a + beta * b, Kind.IRRADIANCE)
    lhs = integrate(combo, band)
    rhs = alpha * integrate(sa, band) + beta * integrate(sb, band)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_integrate_against_midpoint_oracle():
    # smooth synthetic curves sampled at 0.5 nm vs the 0.01 nm midpoint rule
    funcs = [
        lambda x: np.exp(-((x - 800.0) / 400.0) ** 2) + 0.1,
        lambda x: 1.2 - x / 4000.0 + 0.3 * np.sin(x / 300.0),
    ]
    bands = [Waveband("top", 300, 720), Waveband("mid", 720, 920),
             Waveband("bot", 920, 1810), Waveband("MJ", 300, 1810)]
    w = np.arange(300.0, 1810.0 + 0.5, 0.5)
    for f in funcs:
        s = Spectrum(w, f(w), Kind.IRRADIANCE)
        for band in bands:
            oracle = midpoint_riemann(f, band.lambda_min_nm, band.lambda_max_nm)
            assert integrate(s, band) == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# pointwise_product
# ---------------------------------------------------------------------------

def test_product_identity_factor():
    ones = flat_spectrum(300, 900, 1.0, Kind.TRANSMITTANCE)
    b = Spectrum(np.array([400.0, 500.0, 800.0]), np.array([0.2, 0.9, 0.4]),
                 Kind.IRRADIANCE)
    p = pointwise_product(ones, b)
    assert p.support == (400.0, 800.0)
    np.testing.assert_allclose(sampled_eval(p)(np.array([400, 500, 800])),
                               [0.2, 0.9, 0.4], rtol=1e-15)


def test_product_overlap_and_value():
    a = flat_spectrum(300, 900, 0.5, Kind.TRANSMITTANCE)
    b = flat_spectrum(500, 1000, 2.0, Kind.IRRADIANCE)
    p = pointwise_product(a, b)
    assert p.support == (500.0, 900.0)
    np.testing.assert_allclose(p.values, 1.0, rtol=1e-15)


def test_product_disjoint_supports():
    a = flat_spectrum(300, 400, 1.0)
    b = flat_spectrum(500, 600, 1.0)
    with pytest.raises(NoOverlap):
        pointwise_product(a, b)


def test_product_union_grid_keeps_samples():
    a = Spectrum(np.array([300.0, 450.0, 900.0]), np.array([1.0, 2.0, 1.0]),
                 Kind.IRRADIANCE)
    b = Spectrum(np.array([350.0, 600.0, 950.0]), np.array([1.0, 1.0, 1.0]),
                 Kind.TRANSMITTANCE)
    p = pointwise_product(a, b)
    assert set(p.wavelengths_nm) == {350.0, 450.0, 600.0, 900.0}


def test_product_units_and_kind():
    e = flat_spectrum(300, 900, 1.0, Kind.IRRADIANCE)
    tau = flat_spectrum(300, 900, 0.5, Kind.TRANSMITTANCE)
    sr = flat_spectrum(300, 900, 0.4, Kind.SPECTRAL_RESPONSE)
    p = pointwise_product(e, tau, sr)
    assert p.kind is Kind.IRRADIANCE
    assert p.units == CURRENT_DENSITY_UNITS
    q = pointwise_product(tau, sr)
    assert q.kind is Kind.SPECTRAL_RESPONSE
    assert q.units == SR_UNITS


# ---------------------------------------------------------------------------
# union grid and sampling on it
# ---------------------------------------------------------------------------

def test_union_grid_needs_a_spectrum():
    with pytest.raises(ValueError, match="need at least one spectrum"):
        union_grid([])
    with pytest.raises(ValueError, match="need at least one spectrum"):
        sample_on_union([])


# Points on a 2.5 nm lattice recur across grids, some one ulp off it; free
# floats do not recur.
_LATTICE = st.integers(0, 40).map(lambda k: 300.0 + 2.5 * k)
_POINT = _LATTICE | _LATTICE.map(lambda x: float(np.nextafter(x, 0.0))) | st.floats(300.0, 400.0)


def _spectrum_on(draw, w):
    v = draw(st.lists(st.floats(-1e6, 1e6), min_size=w.size, max_size=w.size))
    return Spectrum(w, np.asarray(v), Kind.IRRADIANCE)


@st.composite
def _spectra_on_shared_points(draw):
    """1-4 spectra whose grids are drawn from one pool of points, so they
    share points, touch and overlap by one interval; optionally one more
    on the union of their grids."""
    pool = draw(st.lists(_POINT, min_size=2, max_size=20, unique=True))
    grids = [np.sort(draw(st.lists(st.sampled_from(pool), min_size=2, unique=True)))
             for _ in range(draw(st.integers(1, 4)))]
    spectra = [_spectrum_on(draw, w) for w in grids]
    lo, hi = max(w[0] for w in grids), min(w[-1] for w in grids)
    if lo < hi and draw(st.booleans()):
        pts = np.concatenate(grids)
        spectra.insert(draw(st.integers(0, len(spectra))),
                       _spectrum_on(draw, np.unique(pts[(pts >= lo) & (pts <= hi)])))
    return spectra


def _on(*grids):
    return [Spectrum(np.array(w), np.ones(len(w)), Kind.IRRADIANCE) for w in grids]


def _sharing(w, n):
    """``n`` spectra holding one grid array, each with its own values."""
    s = _on(w)[0]
    return [s.with_values(np.arange(1.0, len(w) + 1.0) * k) for k in range(1, n + 1)]


@settings(max_examples=300, deadline=None)
@given(spectra=_spectra_on_shared_points())
@example(spectra=_on([300.0, 310.0], [310.0, 320.0]))                 # touching supports
@example(spectra=_on([300.0, 310.0], [305.0, 320.0]))                 # one-interval overlap
@example(spectra=_on([300.0, 305.0, 310.0], [300.0, 310.0], [300.0, 305.0, 310.0]))
# points one ulp below lo and one ulp above hi fall outside the cut
@example(spectra=_on([300.0, 310.0, 320.0],
                     [np.nextafter(300.0, 0.0), 305.0, np.nextafter(320.0, np.inf)]))
# each overlap end is a sample point of two grids
@example(spectra=_on([300.0, 310.0, 320.0], [300.0, 315.0, 330.0], [290.0, 305.0, 320.0]))
# equal grids: one shared array, equal copies, one spectrum alone
@example(spectra=_sharing([300.0, 305.0, 312.5, 320.0], 3))
@example(spectra=_on([300.0, 305.0, 312.5], [300.0, 305.0, 312.5], [300.0, 305.0, 312.5]))
@example(spectra=_on([300.0, 310.0]))
def test_sample_on_union_equals_unique_and_interp(spectra):
    ws = [s.wavelengths_nm for s in spectra]
    lo, hi = max(w[0] for w in ws), min(w[-1] for w in ws)
    if lo >= hi:
        for f in (union_grid, sample_on_union):
            with pytest.raises(NoOverlap):
                f(spectra)
        return
    pts = np.concatenate(ws)
    expected = np.unique(pts[(pts >= lo) & (pts <= hi)])
    grid, sampled = sample_on_union(spectra)
    assert grid.tobytes() == expected.tobytes()
    assert union_grid(spectra).tobytes() == expected.tobytes()
    # union_grid takes any iterable, a one-shot generator included
    assert union_grid(s for s in spectra).tobytes() == expected.tobytes()
    assert len(sampled) == len(spectra)
    for s, v in zip(spectra, sampled):
        assert v.tobytes() == np.interp(grid, s.wavelengths_nm, s.values).tobytes()
        if s.wavelengths_nm.tobytes() == grid.tobytes():
            assert v is s.values  # passed through, not interpolated again


def test_union_of_equal_grids_is_the_first_grid_itself():
    a, b = _sharing([300.0, 305.0, 320.0], 2)
    copy = _on([300.0, 305.0, 320.0])[0]
    for spectra in ([a], [a, b], [a, copy, b], [copy, a]):
        assert same_grid(spectra[0], spectra[-1])
        assert union_grid(spectra) is spectra[0].wavelengths_nm
        grid, sampled = sample_on_union(spectra)
        assert grid is spectra[0].wavelengths_nm
        assert all(v is s.values for s, v in zip(spectra, sampled))
    # a grid of another size, and one of the same size with another sample
    for other in _on([300.0, 305.0], [300.0, 306.0, 320.0]):
        assert not same_grid(a, other)
        assert union_grid([a, other]) is not a.wavelengths_nm


# ---------------------------------------------------------------------------
# integrate_product
# ---------------------------------------------------------------------------

@st.composite
def _factor(draw, kind, vmax):
    """A spectrum whose random, strictly increasing grid spans [400, 800]."""
    lo = draw(st.floats(250.0, 400.0))
    hi = draw(st.floats(800.0, 1000.0))
    inner = draw(st.lists(st.floats(lo, hi), max_size=40))
    w = np.unique([lo, hi, *inner])
    v = draw(st.lists(st.floats(0.0, vmax), min_size=w.size, max_size=w.size))
    return Spectrum(w, np.asarray(v), kind)


@settings(max_examples=200, deadline=None)
@given(
    e=_factor(Kind.IRRADIANCE, 2.0),
    tau=st.none() | _factor(Kind.TRANSMITTANCE, 1.0),
    sr=_factor(Kind.SPECTRAL_RESPONSE, 0.7),
    f0=st.floats(0.0, 1.0),
    f1=st.floats(0.0, 1.0),
)
# lo + 1.0 * (hi - lo) rounds one ulp above hi for these supports.
@example(
    e=Spectrum(np.array([250.0, 801.0]), np.zeros(2), Kind.IRRADIANCE),
    tau=None,
    sr=Spectrum(np.array([250.18427688726564, 800.1681702649825]), np.zeros(2),
                Kind.SPECTRAL_RESPONSE),
    f0=0.0,
    f1=1.0,
)
def test_integrate_product_equals_integrated_product(e, tau, sr, f0, f1):
    fs = (e, sr) if tau is None else (e, tau, sr)
    lo = max(f.support[0] for f in fs)
    hi = min(f.support[1] for f in fs)
    # Clip the band limits: the fraction arithmetic may round past the support.
    a, b = sorted(min(max(lo + f * (hi - lo), lo), hi) for f in (f0, f1))
    assume(a < b)
    band = Waveband("b", a, b)
    assert integrate_product(*fs, band=band) == integrate(pointwise_product(*fs), band)


def _reference_trapezoid(w, v, band):
    """The band trapezoid in its plain form: copy the bracketing slice, set
    its ends to the band limits and to np.interp over the whole grid."""
    lo, hi = band.lambda_min_nm, band.lambda_max_nm
    i0 = int(w.searchsorted(lo, side="right"))
    i1 = int(w.searchsorted(hi, side="left"))
    x = w[i0 - 1:i1 + 1].copy()
    y = v[i0 - 1:i1 + 1].copy()
    x[0], x[-1] = lo, hi
    y[0], y[-1] = np.interp((lo, hi), w, v)
    return float(((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0).sum())


def _reference_product(spectra):
    """np.unique of the grid points in the overlap, and the factors
    interpolated there and multiplied in argument order."""
    ws = [s.wavelengths_nm for s in spectra]
    lo, hi = max(w[0] for w in ws), min(w[-1] for w in ws)
    pts = np.concatenate(ws)
    grid = np.unique(pts[(pts >= lo) & (pts <= hi)])
    vals = np.interp(grid, ws[0], spectra[0].values)
    for s in spectra[1:]:
        vals = vals * np.interp(grid, s.wavelengths_nm, s.values)
    return grid, vals


def _ulp_near(x):
    return st.sampled_from([x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, np.inf))])


@st.composite
def _factors_and_band(draw):
    """1-3 factors and a band in their overlap, whose limits are union
    points, their neighbouring doubles or free points."""
    fs = draw(st.lists(_factor(Kind.IRRADIANCE, 2.0), min_size=1, max_size=3))
    grid = _reference_product(fs)[0]
    lo, hi = float(grid[0]), float(grid[-1])
    limit = st.sampled_from(grid.tolist()).flatmap(_ulp_near) | st.floats(lo, hi)
    a, b = sorted(min(max(draw(limit), lo), hi) for _ in range(2))
    assume(a < b)
    return fs, Waveband("b", a, b)


_E = Spectrum(np.array([300.0, 310.0, 325.0, 340.0]),
              np.array([0.7, 1.3, 1.1, 0.9]), Kind.IRRADIANCE)
_TAU = Spectrum(np.array([300.0, 305.0, 325.0, 340.0]),
                np.array([0.91, 0.87, 0.93, 0.89]), Kind.TRANSMITTANCE)
_UP, _DOWN = float(np.nextafter(300.0, np.inf)), float(np.nextafter(340.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(case=_factors_and_band())
@example(case=([_E, _TAU], Waveband("b", 300.0, 340.0)))  # exactly the support
@example(case=([_E, _TAU], Waveband("b", _UP, _DOWN)))    # one ulp inside each end
@example(case=([_E, _TAU], Waveband("b", 311.0, 317.5)))  # inside one interval
@example(case=([_E, _TAU], Waveband("b", 305.0, 325.0)))  # limits on interior samples
def test_band_trapezoid_equals_reference_formula(case):
    # integrate_product is checked against an independent product and
    # trapezoid here, not against pointwise_product, which shares its kernel;
    # integrate_rows, row by row, on a stack of three curves on each grid.
    fs, band = case
    for f in fs:
        assert integrate(f, band).hex() == _reference_trapezoid(
            f.wavelengths_nm, f.values, band).hex()
        rows = np.array([f.values, 0.3 * f.values, f.values[::-1]])
        assert [x.hex() for x in integrate_rows(f.wavelengths_nm, rows, band)] == [
            _reference_trapezoid(f.wavelengths_nm, v, band).hex() for v in rows]
    assert integrate_product(*fs, band=band).hex() == _reference_trapezoid(
        *_reference_product(fs), band).hex()


def _grid_factors():
    e = Spectrum(np.arange(300.0, 901.0, 10.0),
                 np.linspace(0.5, 1.5, 61), Kind.IRRADIANCE)
    tau = Spectrum(np.arange(305.0, 896.0, 7.5),
                   np.linspace(0.6, 0.95, 79), Kind.TRANSMITTANCE)
    sr = linear_spectrum(300.0, 900.0, 0.2, 0.6, Kind.SPECTRAL_RESPONSE)
    return e, tau, sr


@pytest.mark.parametrize("lo, hi", [
    (400.0, 600.0),    # limits on sample points of E
    (402.5, 410.0),    # limits on sample points of tau
    (501.0, 503.0),    # inside one interval of every grid
    (305.0, 890.0),    # the full overlap of the three supports
])
def test_integrate_product_explicit_bands(lo, hi):
    e, tau, sr = _grid_factors()
    band = Waveband("b", lo, hi)
    for fs in ((e, tau, sr), (e, sr), (e, tau)):
        assert integrate_product(*fs, band=band) == integrate(pointwise_product(*fs), band)


def test_integrate_product_inside_one_interval_is_one_trapezoid():
    # the product is sampled on the union grid {300, 900} (0.5 and 2.0) and
    # is linear in between, so the band integral is one exact trapezoid
    e = linear_spectrum(300.0, 900.0, 1.0, 2.0, Kind.IRRADIANCE)
    tau = linear_spectrum(300.0, 900.0, 0.5, 1.0)
    p = [0.5 + 1.5 * (x - 300.0) / 600.0 for x in (480.0, 540.0)]
    got = integrate_product(e, tau, band=Waveband("b", 480.0, 540.0))
    assert got == pytest.approx(60.0 * (p[0] + p[1]) / 2.0, rel=1e-14)


def test_integrate_product_band_out_of_support():
    e, tau, sr = _grid_factors()
    # inside E's support but not tau's
    with pytest.raises(BandOutOfSupport):
        integrate_product(e, tau, sr, band=Waveband("b", 300.0, 600.0))


def test_integrate_product_disjoint_supports():
    a = flat_spectrum(300, 400, 1.0)
    b = flat_spectrum(500, 600, 1.0, Kind.SPECTRAL_RESPONSE)
    with pytest.raises(NoOverlap):
        integrate_product(a, b, band=Waveband("b", 300.0, 600.0))


# ---------------------------------------------------------------------------
# report_integrals
# ---------------------------------------------------------------------------

def _limits_in(draw, grid):
    """A band in the span of ``grid`` whose limits are its points, their
    neighbouring doubles or free points (the whole span if they meet)."""
    lo, hi = float(grid[0]), float(grid[-1])
    limit = st.sampled_from(grid.tolist()).flatmap(_ulp_near) | st.floats(lo, hi)
    a, b = sorted(min(max(draw(limit), lo), hi) for _ in range(2))
    return Waveband("b", a, b) if a < b else Waveband("b", lo, hi)


def _past(draw, grid):
    """A band that reaches past one end of ``grid``'s span."""
    lo, hi, past = float(grid[0]), float(grid[-1]), draw(st.floats(1e-6, 50.0))
    return draw(st.sampled_from([Waveband("b", lo - past, hi), Waveband("b", lo, hi + past)]))


@st.composite
def _reports(draw):
    """The arguments of one report_integrals call. tau is on E's grid as
    one shared array (``with_values`` keeps E's kind, which the kernel does
    not check), on an equal copy of it, or on a grid of its own; each of the
    1-3 SRs has its support drawn apart from E's, so it is often narrower.
    Each junction band lies in the overlap of E, tau and its SR, the full
    band in that of E and tau, and the 0-3 tau bands on tau's support. One
    draw in four has one band past its support, or an SR that E does not
    reach."""
    e = draw(_factor(Kind.IRRADIANCE, 2.0))
    v = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=e.n_samples,
                                 max_size=e.n_samples)))
    tau = draw(st.sampled_from([e.with_values(v),
                                Spectrum(e.wavelengths_nm.copy(), v, Kind.TRANSMITTANCE)])
               | _factor(Kind.TRANSMITTANCE, 1.0))
    srs = draw(st.lists(_factor(Kind.SPECTRAL_RESPONSE, 0.7), min_size=1, max_size=3))
    responses = [(sr, _limits_in(draw, _reference_product((e, tau, sr))[0])) for sr in srs]
    full_band = _limits_in(draw, _reference_product((e, tau))[0])
    tau_bands = [_limits_in(draw, tau.wavelengths_nm) for _ in range(draw(st.integers(0, 3)))]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(responses) + len(tau_bands)))
        if k < len(responses):
            sr = responses[k][0]
            responses[k] = draw(st.sampled_from([(sr, _past(draw, _reference_product((e, sr))[0])),
                                                 (sr, _past(draw, _reference_product((e, tau, sr))[0])),
                                                 (_APART, Waveband("b", 400.0, 800.0))]))
        elif k == len(responses):
            full_band = draw(st.sampled_from([_past(draw, e.wavelengths_nm),
                                              _past(draw, _reference_product((e, tau))[0])]))
        else:
            tau_bands[k - len(responses) - 1] = _past(draw, tau.wavelengths_nm)
    return e, tau, responses, full_band, tuple(tau_bands)


_APART = Spectrum(np.array([1100.0, 1200.0]), np.ones(2), Kind.SPECTRAL_RESPONSE)  # past every _factor


def _report_calls(e, tau, responses, full_band, tau_bands):
    """The single calls whose results report_integrals returns, in its order,
    as (factors, band): integrate for one factor, integrate_product else."""
    calls = [call for sr, band in responses for call in (((e, sr), band), ((e, tau, sr), band))]
    return calls + [((e,), full_band), ((e, tau), full_band)] + [((tau,), b) for b in tau_bands]


def _single(fs, band):
    return integrate(fs[0], band) if len(fs) == 1 else integrate_product(*fs, band=band)


_PAIR_TAU = Spectrum(_E.wavelengths_nm.copy(), _TAU.values, Kind.TRANSMITTANCE)
_NARROW_SR = Spectrum(np.array([305.0, 320.0, 335.0]), np.array([0.2, 0.5, 0.4]),
                      Kind.SPECTRAL_RESPONSE)


def _junction(e, tau, sr, band):
    """A report of one junction, whose band is also the full band and
    tau's one band."""
    return e, tau, [(sr, band)], band, (band,)


@settings(max_examples=300, deadline=None)
@given(report=_reports())
@example(report=_junction(_E, _PAIR_TAU, _NARROW_SR, Waveband("b", 305.0, 335.0)))  # SR's support
@example(report=_junction(_E, _PAIR_TAU, _NARROW_SR, Waveband("b", 310.0, 325.0)))  # on E's samples
@example(report=_junction(_E, _PAIR_TAU, _NARROW_SR, Waveband("b", 311.0, 317.5)))  # between samples
@example(report=_junction(_E, _E.with_values(_TAU.values), _NARROW_SR,
                          Waveband("b", 306.0, 334.0)))                     # one shared array
@example(report=_junction(_E, _TAU, _NARROW_SR, Waveband("b", 305.0, 325.0)))   # tau's own grid
@example(report=(_E, _TAU, [(_E.with_values(_TAU.values), Waveband("b", _UP, _DOWN))],
                 Waveband("b", _UP, _DOWN), (Waveband("b", 300.0, 340.0),)))  # SR on E's grid
@example(report=_junction(_E, _PAIR_TAU, _E.with_values(_TAU.values[::-1]),
                          Waveband("b", 300.0, 340.0)))                     # all on one grid
def test_report_integrals_equals_the_single_integrals(report):
    calls = _report_calls(*report)
    try:
        singles = [_single(fs, band) for fs, band in calls]
    except (NoOverlap, BandOutOfSupport) as error:
        # the first call that fails alone raises the same error here
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            report_integrals(*report)
        return
    got = report_integrals(*report)
    assert len(got) == len(calls)
    for value, single, (fs, band) in zip(got, singles, calls):
        assert value.hex() == _reference_trapezoid(*_reference_product(fs), band).hex()
        assert value.hex() == single.hex()


_WIDE_SR = Spectrum(np.array([300.0, 312.0, 318.0, 340.0]), np.array([0.1, 0.3, 0.6, 0.2]),
                    Kind.SPECTRAL_RESPONSE)


def test_report_integrals_samples_a_shared_grid_once(monkeypatch):
    # one union per junction when tau is on E's grid, of E's grid and the
    # SR's, which the cleaned and soiled currents share; otherwise two per
    # junction and one of E's and tau's grids
    import soilspec.spectral as spectral
    unions = []
    monkeypatch.setattr(spectral, "_union",
                        lambda grids, lo, hi, f=spectral._union: unions.append(grids) or f(grids, lo, hi))
    responses = [(_NARROW_SR, Waveband("b", 306.0, 334.0)), (_WIDE_SR, Waveband("b", 300.0, 340.0))]
    whole = Waveband("b", 300.0, 340.0)
    for tau, built in ((_PAIR_TAU, 2), (_E.with_values(_TAU.values), 2), (_TAU, 5)):
        unions.clear()
        report_integrals(_E, tau, responses, whole, (whole,))
        assert len(unions) == built
        if built == 2:
            assert [sorted(g.tobytes() for g in grids) for grids in unions] == [
                sorted([_E.wavelengths_nm.tobytes(), sr.wavelengths_nm.tobytes()])
                for sr, _ in responses]


_FAR = Spectrum(np.array([400.0, 500.0]), np.ones(2), Kind.SPECTRAL_RESPONSE)
_FAR_TAU = Spectrum(np.array([400.0, 500.0]), np.ones(2), Kind.TRANSMITTANCE)
_SHORT_TAU = Spectrum(np.array([310.0, 340.0]), np.ones(2), Kind.TRANSMITTANCE)
_WHOLE = Waveband("b", 300.0, 340.0)


@pytest.mark.parametrize("report", [
    (_E, _TAU, [(_FAR, _WHOLE)], _WHOLE, ()),
    (_E, _TAU, [], Waveband("b", 299.0, 340.0), ()),
    # the first failing call raises, though a later one fails another way
    (_E, _TAU, [(_NARROW_SR, Waveband("b", 300.0, 320.0)), (_FAR, _WHOLE)], _WHOLE, ()),
    (_E, _TAU, [(_FAR, _WHOLE)], Waveband("b", 290.0, 340.0), ()),
    (_E, _SHORT_TAU, [(_NARROW_SR, Waveband("b", 306.0, 334.0))], _WHOLE, ()),
    (_E, _FAR_TAU, [], _WHOLE, ()),
    (_E, _TAU, [(_NARROW_SR, Waveband("b", 306.0, 334.0))], _WHOLE, (_WHOLE, Waveband("b", 300.0, 341.0))),
], ids=["no-overlap", "below-the-support", "first-of-two", "no-overlap-before-the-full-band",
        "soiled-current-only", "no-overlap-of-e-and-tau", "second-tau-band"])
def test_report_integrals_raises_the_first_failing_calls_error(report):
    with pytest.raises(Exception) as expected:
        for fs, band in _report_calls(*report):
            _single(fs, band)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        report_integrals(*report)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    w = np.sort(rng.uniform(300, 2000, 50))
    s = Spectrum(w, rng.uniform(0.0, 1.5, 50), Kind.IRRADIANCE)
    path = tmp_path / "s.csv"
    write_spectrum_csv(s, path)
    r = read_spectrum_csv(path)
    np.testing.assert_array_equal(r.wavelengths_nm, s.wavelengths_nm)
    np.testing.assert_array_equal(r.values, s.values)
    assert r.kind is s.kind and r.units == s.units


def test_csv_requires_metadata_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wavelength_nm,value\n300.0,1.0\n400.0,1.0\n")
    with pytest.raises(ValueError, match="kind="):
        read_spectrum_csv(path)


def test_csv_rejects_unsorted_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"# kind=Irradiance units={IRRADIANCE_UNITS}\n"
        "wavelength_nm,value\n400.0,1.0\n300.0,1.0\n"
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        read_spectrum_csv(path)


def test_csv_rejects_infinite_wavelength_naming_the_file(tmp_path):
    # a support reaching inf would cover every band
    path = tmp_path / "scan.csv"
    path.write_text(
        f"# kind=Transmittance units={DIMENSIONLESS}\n"
        "wavelength_nm,value\n300.0,0.9\ninf,0.9\n"
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: wavelengths must be finite")):
        read_spectrum_csv(path)


_BAD_ROW_CSV = (f"# kind=Irradiance units={IRRADIANCE_UNITS}\n"
                "# comment\n"
                "wavelength_nm,value\n300.0,1.0\n\n{row}\n500.0,1.0\n")


@pytest.mark.parametrize("text, row, lineno", [
    *(pytest.param(_BAD_ROW_CSV, row, 6, id=row)
      for row in ["400.0,1.0,7.0", "400.0", "400.0,abc"]),
    pytest.param(_BAD_ROW_CSV.replace("\n", "\r\n"), "400.0,abc", 6, id="crlf"),
    pytest.param(_BAD_ROW_CSV.replace("wavelength_nm", "# comment 2\nwavelength_nm")
                 .replace("300.0,1.0\n\n", ""), "400.0,abc", 5, id="first-row-after-comments"),
])
def test_csv_bad_row_names_path_and_line(tmp_path, text, row, lineno):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.format(row=row).encode("utf-8"))
    pattern = re.escape(f"{path}:{lineno}: ") + ".*" + re.escape(repr(row))
    with pytest.raises(ValueError, match=pattern):
        read_spectrum_csv(path)


_CSV_HEAD = f"# kind=Irradiance units={IRRADIANCE_UNITS}\nwavelength_nm,value\n"


def _row_loop(path):
    """Reference parser: every non-blank body row is two ``float``s."""
    wl, vals = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if lineno <= 2 or not raw:
                continue
            try:
                a, b = raw.split(",")
                wl.append(float(a))
                vals.append(float(b))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'wavelength_nm,value' "
                                 f"numbers, got {raw!r}") from None
    try:
        return Spectrum(np.asarray(wl), np.asarray(vals), Kind.IRRADIANCE)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _assert_parses_like_row_loop(path, body):
    path.write_bytes((_CSV_HEAD + body).encode("utf-8"))
    try:
        expected = _row_loop(path)
    except ValueError as exc:
        expected = exc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = read_spectrum_csv(path)
        except ValueError as exc:
            got = exc
    if isinstance(expected, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(expected)
    else:
        assert isinstance(got, Spectrum)
        assert got.wavelengths_nm.tobytes() == expected.wavelengths_nm.tobytes()
        assert got.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("body", [
    "300.0,1.0\r\n400.0,2.0\r\n",          # CRLF
    "300.0,1.0\n\n400.0,2.0\n",              # blank line
    "300.0,1.0\n \t \n400.0,2.0\n",          # whitespace-only line
    "\n300.0,1.0\n400.0,2.0\n",              # blank first row
    "300.0,1.0\n400.0,2.0",                  # no final newline
    " 300.0 , 1.0 \n\t400.0,2.0\t\n",        # blanks around fields
    "300.0,1.0\n# note\n400.0,2.0\n",        # '#' line after the header
    "300.0\n400.0\n",                        # 1 column
    "300.0,1.0,7.0\n400.0,2.0,7.0\n",        # 3 columns
    "300.0,1.0,\n400.0,2.0,\n",              # trailing comma
    "300.0,\n400.0,2.0\n",                   # empty field
    "1_000,1.0\n2_000,2.0\n",                # float() takes underscores
    "\uff13\uff10\uff10,1.0\n400.0,2.0\n",  # full-width digits
    "nan,1.0\n400.0,2.0\n",
    "300.0,nan\n400.0,2.0\n",
    "300.0,1e400\n400.0,2.0\n",
    "300.0,1.0\n",                           # one row
    "",                                      # empty body
    "\n \n\n",                               # blank body
])
def test_csv_parse_matches_row_loop_on_edge_cases(tmp_path, body):
    _assert_parses_like_row_loop(tmp_path / "s.csv", body)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(wl=st.lists(_finite, max_size=12, unique=True), data=st.data(),
       newline=st.sampled_from(["\n", "\r\n"]), final=st.booleans())
def test_csv_parse_matches_row_loop_on_random_doubles(tmp_path_factory, wl, data, newline, final):
    wl = sorted(wl)
    vals = data.draw(st.lists(_finite, min_size=len(wl), max_size=len(wl)))
    body = newline.join(f"{a!r},{b!r}" for a, b in zip(wl, vals)) + (newline if final else "")
    _assert_parses_like_row_loop(tmp_path_factory.mktemp("csv") / "s.csv", body)


@settings(max_examples=300, deadline=None)
@given(body=st.text(alphabet="0123456789.,eE+-_ \t\r\n#naif\uff11\x0c\xa0", max_size=40))
def test_csv_parse_matches_row_loop_on_random_text(tmp_path_factory, body):
    _assert_parses_like_row_loop(tmp_path_factory.mktemp("csv") / "s.csv", body)


def test_csv_dimensionless_transmittance(tmp_path):
    path = tmp_path / "tau.csv"
    path.write_text(
        f"# kind=Transmittance units={DIMENSIONLESS}\n"
        "wavelength_nm,value\n300.0,0.9\n2000.0,0.95\n"
    )
    s = read_spectrum_csv(path)
    assert s.kind is Kind.TRANSMITTANCE and s.units == DIMENSIONLESS


def test_write_text_atomic_chunks_equal_joined_text(tmp_path):
    chunks = ["# kind=x\n", "", "\u00e9\u03bb,1.5\r\n", "7" * 20000, "\n"]
    write_text_atomic(tmp_path / "whole.txt", "".join(chunks))
    write_text_atomic(tmp_path / "chunks.txt", iter(chunks))
    write_text_atomic(tmp_path / "list.txt", chunks)
    whole = (tmp_path / "whole.txt").read_bytes()
    assert whole == "".join(chunks).encode("utf-8")
    assert (tmp_path / "chunks.txt").read_bytes() == whole
    assert (tmp_path / "list.txt").read_bytes() == whole


def test_write_text_atomic_failing_chunks_leave_old_file(tmp_path):
    path = tmp_path / "out.json"
    write_text_atomic(path, "old\n")

    def chunks():
        yield "new " * 5000
        raise RuntimeError("encoder failed")

    with pytest.raises(RuntimeError, match="encoder failed"):
        write_text_atomic(path, chunks())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_write_text_atomic_concurrent_writers(tmp_path):
    path = tmp_path / "shared.csv"
    texts = [f"writer {i}\n" * 5000 for i in range(6)]
    start = threading.Barrier(len(texts))
    errors = []

    def write(text):
        try:
            start.wait(timeout=10)
            for _ in range(25):
                write_text_atomic(path, text)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(t,)) for t in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_text(encoding="utf-8") in texts
    assert list(tmp_path.glob("*.tmp")) == []
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    assert path.stat().st_mode == plain.stat().st_mode
