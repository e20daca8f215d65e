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
    read_spectrum_csv,
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


@pytest.mark.parametrize("row", ["400.0,1.0,7.0", "400.0", "400.0,abc"])
def test_csv_bad_row_names_path_and_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"# kind=Irradiance units={IRRADIANCE_UNITS}\n"
        "# comment\n"
        "wavelength_nm,value\n300.0,1.0\n\n" + row + "\n500.0,1.0\n"
    )
    pattern = re.escape(f"{path}:6: ") + ".*" + re.escape(repr(row))
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
