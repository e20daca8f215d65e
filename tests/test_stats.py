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
], ids=["linfit-r2", "linfit-sxx", "mape", "mpe"])
def test_overflowing_statistic_is_a_typed_error_without_a_warning(call, message):
    with pytest.raises(NonFiniteStatistic, match=f"^{re.escape(message)}"):
        call()
