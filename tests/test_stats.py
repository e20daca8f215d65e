import re

import numpy as np
import pytest

from soilspec import linfit, mape, mpe, r2
from soilspec.errors import (
    DegenerateX,
    LengthMismatch,
    NonFiniteStatistic,
    TooFewPoints,
    ZeroMeasured,
    ZeroVariance,
)


def test_mape_hand_value():
    # (|+10%| + |-10%|) / 2 = 10
    assert mape([1.0, 2.0], [1.1, 1.8]) == pytest.approx(10.0, rel=1e-12)


def test_mape_perfect_model():
    assert mape([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mape_zero_measured():
    with pytest.raises(ZeroMeasured):
        mape([1.0, 0.0], [1.0, 1.0])


def test_mape_length_mismatch():
    with pytest.raises(LengthMismatch):
        mape([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        mape([], [])


def test_mpe_hand_value():
    # (+10% - 10%) / 2 = 0
    assert mpe([1.0, 2.0], [1.1, 1.8]) == pytest.approx(0.0, abs=1e-12)


def test_mpe_uniform_bias():
    measured = np.array([1.0, 2.0, 5.0])
    assert mpe(measured, 1.05 * measured) == pytest.approx(5.0, rel=1e-12)


def test_mpe_bounded_by_mape():
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = rng.uniform(0.5, 2.0, 30)
        mod = m * rng.uniform(0.8, 1.2, 30)
        assert abs(mpe(m, mod)) <= mape(m, mod) + 1e-12


def test_r2_perfect_affine():
    x = np.linspace(0.0, 5.0, 40)
    assert r2(x, -3.7 * x + 11.0) == pytest.approx(1.0, abs=1e-12)


def test_r2_uncorrelated_noise():
    rng = np.random.default_rng(42)
    a = rng.normal(size=10_000)
    b = rng.normal(size=10_000)
    assert r2(a, b) < 0.1


def test_r2_zero_variance():
    with pytest.raises(ZeroVariance):
        r2([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_r2_affine_invariance():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.0, 1.0, 50)
    b = a + 0.2 * rng.normal(size=50)
    base = r2(a, b)
    assert r2(2.5 * a - 4.0, b) == pytest.approx(base, rel=1e-9)
    assert r2(a, -0.1 * b + 7.0) == pytest.approx(base, rel=1e-9)


def test_linfit_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = linfit(x, 2.0 * x + 1.0)
    assert fit.slope == pytest.approx(2.0, rel=1e-12)
    assert fit.intercept == pytest.approx(1.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.mape_pct == pytest.approx(0.0, abs=1e-10)
    assert fit.n == 4


def test_linfit_too_few_points():
    with pytest.raises(TooFewPoints):
        linfit([1.0, 2.0], [1.0, 2.0])


def test_linfit_degenerate_x():
    with pytest.raises(DegenerateX):
        linfit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_linfit_residuals_sum_to_zero():
    rng = np.random.default_rng(33)
    x = rng.uniform(0.0, 10.0, 60)
    y = 1.4 * x + rng.normal(size=60)
    fit = linfit(x, y)
    resid = y - (fit.slope * x + fit.intercept)
    assert abs(resid.sum()) <= 1e-9 * np.abs(y).sum()


def test_linfit_constant_y_propagates_zero_variance():
    with pytest.raises(ZeroVariance):
        linfit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", [
    # the sums of squares of R^2 overflow
    (lambda: linfit([0.1, 0.2, 0.3], [1e300, 2e300, 3e300]), "R^2 overflowed: ss_measured = inf"),
    # the sum of squares of x overflows, which left a finite slope of 0
    (lambda: linfit([1e200, 2e200, 3e200], [1.0, 2.0, 3.0]), "the linear fit overflowed: sxx = inf"),
    (lambda: mape([1e-300, 1.0], [1e10, 1.0]), "MAPE overflowed: mape = inf"),
    (lambda: mpe([1e-300, 1.0], [-1e10, 1.0]), "MPE overflowed: mpe = -inf"),
    # one sum of squares overflows and the other underflows, which read as
    # a constant series
    (lambda: r2([1e200, 2e200, 3.5e200], [1e-200, 2e-200, 3e-200]),
     "R^2 overflowed: ss_measured = inf, ss_modelled = 0.0"),
], ids=["linfit-r2", "linfit-sxx", "mape", "mpe", "r2-over-and-underflow"])
def test_overflowing_statistic_is_a_typed_error_without_a_warning(call, message):
    with pytest.raises(NonFiniteStatistic, match=f"^{re.escape(message)}"):
        call()


# Series of tiny magnitude: their sums of squares underflow, and a power-of-two
# scaling, which is exact, must leave every statistic's bits as they are.

def _series(seed, n=7):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 2.0, n)
    return a, 0.8 * a + rng.normal(scale=0.05, size=n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(5))
def test_r2_of_underflowing_series_keeps_its_bits(seed):
    a, b = _series(seed)
    assert r2(a * 2**-600, b * 2**-600).hex() == r2(a, b).hex()
    # sums of squares near 2**-2000, one series alone, and a product below
    # the smallest normal float of two sums above it
    assert r2(a * 2**-1000, b * 2**-1000).hex() == r2(a, b).hex()
    assert r2(a * 2**-600, b).hex() == r2(a, b).hex()
    assert r2(a, b * 2**-600).hex() == r2(a, b).hex()
    assert r2(a * 2**-300, b * 2**-300).hex() == r2(a, b).hex()


def test_r2_at_1e_155_is_a_number_not_a_crash():
    # ssa * ssb underflows to 0, which divided by zero
    assert r2([1e-155, 2e-155, 3.1e-155], [1e-155, 2.1e-155, 2.9e-155]) == pytest.approx(
        r2([1.0, 2.0, 3.1], [1.0, 2.1, 2.9]), rel=1e-12)


@pytest.mark.parametrize("a, b", [
    ([1e-200, 1e-200, 1e-200], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [3e-320, 3e-320, 3e-320]),
    ([1e-200, 2e-200, 3e-200], [0.1, 0.1, 0.1]),
])
def test_r2_of_a_tiny_constant_series_is_zero_variance(a, b):
    with pytest.raises(ZeroVariance, match="^a series is constant"):
        r2(a, b)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(5))
def test_linfit_of_underflowing_x_keeps_its_bits(seed):
    x, y = _series(seed)
    fit = linfit(x, y)
    for k in (600, 1000):
        tiny = linfit(x * 2.0**-k, y)
        assert tiny.slope.hex() == (fit.slope * 2.0**k).hex()
        assert [v.hex() for v in (tiny.intercept, tiny.r2, tiny.mape_pct, tiny.mpe_pct)] == [
            v.hex() for v in (fit.intercept, fit.r2, fit.mape_pct, fit.mpe_pct)]


def test_linfit_of_tiny_x_is_a_fit():
    # the sum of squares of x underflows to 0, which read as identical x
    fit = linfit([1e-200, 2e-200, 3e-200], [1.0, 2.0, 3.1])
    assert fit.slope == pytest.approx(1.05e200, rel=1e-12)
    assert fit.intercept == pytest.approx(-1 / 15, rel=1e-9)
    assert fit.r2 == pytest.approx(linfit([1.0, 2.0, 3.0], [1.0, 2.0, 3.1]).r2, rel=1e-12)


def test_linfit_of_tiny_identical_x_is_degenerate():
    with pytest.raises(DegenerateX, match="^x values are all identical$"):
        linfit([1e-200, 1e-200, 1e-200], [1.0, 2.0, 3.0])
