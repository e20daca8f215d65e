"""Exception hierarchy shared across the package.

Every error raised by soilspec derives from :class:`SoilspecError`, so
callers (and the CLI) can distinguish engine failures from programming
errors. The class name doubles as the machine-readable error kind.
"""


class SoilspecError(Exception):
    """Base class for all soilspec errors."""

    @property
    def kind(self) -> str:
        return type(self).__name__


# --- spectral core ---------------------------------------------------------

class GridOutOfSupport(SoilspecError):
    """A resampling grid point lies outside the spectrum's support."""


class BandOutOfSupport(SoilspecError):
    """An integration band is not fully covered by the spectrum."""


class NoOverlap(SoilspecError):
    """Spectra passed to a pointwise operation have disjoint supports."""


class KindMismatch(SoilspecError):
    """A spectrum of the wrong kind/units was passed to an operation."""


# --- cell model ------------------------------------------------------------

class BandCoverage(SoilspecError):
    """A junction's spectral response does not cover its waveband."""


class MissingReferenceSpectrum(SoilspecError):
    """The configured reference spectrum file cannot be found."""


class NoEligibleJunction(SoilspecError):
    """No junction is eligible to limit the stack current."""


class ConfigError(SoilspecError):
    """A cell config or scenario document is malformed."""


# --- metrics ---------------------------------------------------------------

class ControlBelowFloor(SoilspecError):
    """Control-coupon transmittance fell below the sanity floor."""


class ZeroCleanCurrent(SoilspecError):
    """The cleaned cell current is zero; the soiling ratio is undefined."""


class ZeroDenominator(SoilspecError):
    """A broadband denominator integral is zero."""


class ZeroCurrent(SoilspecError):
    """A junction current needed in a ratio denominator is zero."""


class NegativeIndex(SoilspecError):
    """An index came out negative because an irradiance spectrum was negative."""


class NonFiniteIndex(SoilspecError):
    """An index came out infinite or NaN because an integral overflowed."""


# --- pipeline --------------------------------------------------------------

class IncompleteReplicates(SoilspecError):
    """A weekly measurement does not carry three replicate scan pairs."""


class NoIrradianceRecords(SoilspecError):
    """A field day has no records with positive global normal irradiance."""


class NoClearDay(SoilspecError):
    """Neither the scan day nor its +/-1 day neighbours are clear."""


class NoWeeksFound(SoilspecError):
    """A campaign data directory contains no weekly scans."""


# --- stats -----------------------------------------------------------------

class LengthMismatch(SoilspecError):
    """Paired series have different (or zero) lengths."""


class ZeroMeasured(SoilspecError):
    """A measured value is zero; percentage errors are undefined."""


class ZeroVariance(SoilspecError):
    """A series is constant; the correlation is undefined."""


class DegenerateX(SoilspecError):
    """The x values of a linear fit are all identical."""


class TooFewPoints(SoilspecError):
    """Not enough points for the requested fit."""


# --- synth -----------------------------------------------------------------

class EmptyScenario(SoilspecError):
    """A synthetic scenario generates no weeks."""
