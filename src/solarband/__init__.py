"""Short-term solar irradiance forecasting with calibrated confidence bands.

The pipeline: split a minute-cadence series into a smooth trend and quick
fluctuations, extrapolate the local trend one hour ahead, measure the
forecast-error volatility, test the errors for normality, and wrap the
forecast in bands whose width multiplier is calibrated against trailing
empirical coverage.
"""

from .bands import (
    BandTrack,
    UncalibratableWindowError,
    calibrate_alpha,
    calibrated_band,
    calibration_events,
    fixed_band,
    inside_band,
)
from .decomposition import Decomposition, extract_trend
from .forecast import ForecastTrack, trend_forecast
from .normality import (
    DegenerateSampleError,
    Histogram,
    NormalityReport,
    diff_histogram,
    jarque_bera,
    ks_normal,
    lilliefors,
    normtests,
)
from .report import EmptyRangeError, ScoreCard, emit_plot, score
from .risk import VolatilityTrack, volatility_track
from .series import (
    DaylightMask,
    IrradianceSeries,
    NonFiniteError,
    NoRecordsError,
    SeriesCsvError,
    daylight_mask,
    emit_csv,
    ingest_csv,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "BandTrack",
    "DaylightMask",
    "Decomposition",
    "DegenerateSampleError",
    "EmptyRangeError",
    "ForecastTrack",
    "Histogram",
    "IrradianceSeries",
    "NoRecordsError",
    "NonFiniteError",
    "NormalityReport",
    "ScoreCard",
    "SeriesCsvError",
    "SynthConfig",
    "UncalibratableWindowError",
    "VolatilityTrack",
    "calibrate_alpha",
    "calibrated_band",
    "calibration_events",
    "daylight_mask",
    "diff_histogram",
    "emit_csv",
    "emit_plot",
    "extract_trend",
    "fixed_band",
    "generate",
    "ingest_csv",
    "inside_band",
    "jarque_bera",
    "ks_normal",
    "lilliefors",
    "normtests",
    "score",
    "trend_forecast",
    "volatility_track",
]
