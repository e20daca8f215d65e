"""Error metrics and ordinary least squares for campaign analyses.

MAPE and MPE are percentage errors of a modelled series against a
measured one; R^2 is the squared sample Pearson correlation (implemented
in that exact form rather than 1 - SS_res/SS_tot; the two coincide for
OLS fits with an intercept).

The sums behind a statistic can overflow for finite data of large
magnitude (say, a ratio to a band whose transmittance is 1e-200). Such
a sum or statistic, infinite or NaN, raises :class:`NonFiniteStatistic`
and numpy issues no warning, so a campaign records the fit as failed.
The sums of squares can also underflow, for series of tiny magnitude
(say, an index near 1e-200). R^2 and the fitted slope do not change when
a series is scaled by a power of two, and such a scaling is exact, so a
sum that falls below the smallest normal float is formed again from the
deviations scaled to about 1: the statistic then has the bits it would
have without underflow, and only a constant series raises
:class:`ZeroVariance` (or, for x, :class:`DegenerateX`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (
    DegenerateX,
    LengthMismatch,
    NonFiniteStatistic,
    TooFewPoints,
    ZeroMeasured,
    ZeroVariance,
)

__all__ = ["FitResult", "mape", "mpe", "r2", "linfit"]

_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class FitResult:
    """Ordinary-least-squares line plus its error statistics."""

    slope: float
    intercept: float
    r2: float
    mape_pct: float
    mpe_pct: float
    n: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.r2 <= 1.0):
            raise ValueError(f"r2 must lie in [0, 1], got {self.r2}")
        if self.n < 3:
            raise ValueError(f"a fit needs n >= 3, got {self.n}")

    def to_dict(self) -> dict:
        return asdict(self)


def _finite(what: str, **values: float) -> None:
    """Raise :class:`NonFiniteStatistic` naming ``what`` and the values
    unless every one of them is finite."""
    if not all(math.isfinite(v) for v in values.values()):
        raise NonFiniteStatistic(f"{what} overflowed: "
                                 + ", ".join(f"{k} = {v!r}" for k, v in values.items()))


def _unit_scaled(d: np.ndarray) -> tuple[np.ndarray, int]:
    """``d * 2**-e`` and ``e``, the exponent (:func:`math.frexp`) of the
    largest magnitude in ``d``, which the scaling brings into [0.5, 1).

    Scaling by a power of two is exact, so the sums of squares and
    products of the scaled values are those of ``d`` times a power of two,
    without underflow."""
    e = math.frexp(float(np.max(np.abs(d))))[1]
    return np.ldexp(d, -e), e


def _constant(a: np.ndarray) -> bool:
    return bool(a.min() == a.max())


def _paired(measured, modelled) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(measured, dtype=float)
    b = np.asarray(modelled, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size == 0:
        raise LengthMismatch(
            f"series must be 1-D, equal, nonzero length; got {a.shape} vs {b.shape}"
        )
    return a, b


@np.errstate(over="ignore", invalid="ignore")  # raised as NonFiniteStatistic
def mape(measured, modelled) -> float:
    """Mean absolute percentage error of modelled against measured, in %."""
    a, b = _paired(measured, modelled)
    if np.any(a == 0.0):
        raise ZeroMeasured("measured series contains 0; MAPE undefined")
    value = float(100.0 / a.size * np.sum(np.abs((b - a) / a)))
    _finite("MAPE", mape=value)
    return value


@np.errstate(over="ignore", invalid="ignore")  # raised as NonFiniteStatistic
def mpe(measured, modelled) -> float:
    """Signed mean percentage error of modelled against measured, in %."""
    a, b = _paired(measured, modelled)
    if np.any(a == 0.0):
        raise ZeroMeasured("measured series contains 0; MPE undefined")
    value = float(100.0 / a.size * np.sum((b - a) / a))
    _finite("MPE", mpe=value)
    return value


@np.errstate(over="ignore", invalid="ignore")  # raised as NonFiniteStatistic
def r2(measured, modelled) -> float:
    """Squared sample Pearson correlation between the two series."""
    a, b = _paired(measured, modelled)
    da = a - a.mean()
    db = b - b.mean()
    ssa = float(np.sum(da * da))
    ssb = float(np.sum(db * db))
    if ssa < _TINY or ssb < _TINY or ssa * ssb < _TINY:
        # underflow, or a constant series: see the module docstring
        if _constant(a) or _constant(b):
            raise ZeroVariance("a series is constant; correlation undefined")
        if math.isfinite(ssa) and math.isfinite(ssb):  # an overflow is raised below
            (da, _), (db, _) = _unit_scaled(da), _unit_scaled(db)
            ssa = float(np.sum(da * da))
            ssb = float(np.sum(db * db))
    num = float(np.sum(da * db))
    val = (num * num) / (ssa * ssb)
    _finite("R^2", ss_measured=ssa, ss_modelled=ssb, cross_sum=num, r2=val)
    # Guard against 1 + few-ulp from rounding.
    return float(min(max(val, 0.0), 1.0))


@np.errstate(over="ignore", invalid="ignore")  # raised as NonFiniteStatistic
def linfit(x, y) -> FitResult:
    """Ordinary least squares y = slope*x + intercept.

    The returned MAPE/MPE compare y (measured) against the fitted line
    (modelled). Raises TooFewPoints for n < 3 and DegenerateX when x has
    zero variance; a constant y propagates ZeroVariance from ``r2``. A
    sum, coefficient or statistic that overflows raises
    NonFiniteStatistic.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size:
        raise LengthMismatch(f"x and y must be 1-D equal length, got {xa.shape} vs {ya.shape}")
    n = int(xa.size)
    if n < 3:
        raise TooFewPoints(f"linear fit needs >= 3 points, got {n}")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(np.sum(dx * dx))
    if sxx < _TINY:  # underflow, or all x equal: see the module docstring
        if _constant(xa):
            raise DegenerateX("x values are all identical")
        # The slope against x * 2**-e is the slope against x times 2**e.
        scaled, e = _unit_scaled(dx)
        slope = float(np.ldexp(np.sum(scaled * dy) / np.sum(scaled * scaled), -e))
    else:
        slope = float(np.sum(dx * dy) / sxx)
    intercept = float(ya.mean() - slope * xa.mean())
    _finite("the linear fit", sxx=sxx, slope=slope, intercept=intercept)
    yhat = slope * xa + intercept
    return FitResult(
        slope=slope,
        intercept=intercept,
        r2=r2(ya, yhat),
        mape_pct=mape(ya, yhat),
        mpe_pct=mpe(ya, yhat),
        n=n,
    )
