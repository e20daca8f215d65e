"""Spectral soiling analysis for multi-junction concentrator photovoltaics.

Core pieces:

* :mod:`soilspec.spectral` - sampled spectra, wavebands, resampling,
  pointwise products, trapezoidal band integrals.
* :mod:`soilspec.cell` - multi-junction cell models and short-circuit
  current integrals.
* :mod:`soilspec.metrics` - the soiling indexes (soiling ratio and its
  broadband/spectral split, spectral matching ratios, average spectral
  transmittance) and the combined report.
* :mod:`soilspec.pipeline` - the weekly campaign procedure with its
  replicate-spread and cloudy-day filtering rules.
* :mod:`soilspec.stats` - MAPE/MPE/R^2 and ordinary least squares.
* :mod:`soilspec.synth` - synthetic transmittance/spectrum/campaign
  generation for desk-scale studies.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    Kind,
    Spectrum,
    Waveband,
    integrate,
    integrate_product,
    pointwise_product,
    read_spectrum_csv,
    resample,
    write_spectrum_csv,
)
from .cell import (  # noqa: F401
    CellModel,
    Junction,
    JscResult,
    boxcar_cell,
    eqe_to_sr,
    jsc_cell,
    jsc_junction,
    load_bundled_3j,
    load_cell,
    reference_spectrum,
)
from .metrics import (  # noqa: F401
    IndexReport,
    ast,
    bsratio,
    index_report,
    index_report_weighted,
    smr,
    smratio,
    soiling_transmittance,
    sratio,
    ssratio,
)
from .stats import FitResult, linfit, mape, mpe, r2  # noqa: F401
from .pipeline import (  # noqa: F401
    Aggregation,
    CampaignResult,
    FieldDay,
    FieldRecord,
    WeeklyMeasurement,
    campaign_fits,
    is_cloudy,
    load_campaign_dir,
    run_campaign,
    select_spectra,
    soiling_rate_fit,
    validate_week,
    write_campaign_dir,
)
from .synth import (  # noqa: F401
    CampaignScenario,
    RainEvent,
    SoilingModel,
    load_scenario,
    synth_campaign,
    synth_spectrum,
    synth_tau,
)
