"""Hour-ahead irradiance forecasts: local-trend extrapolation and persistence."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .decomposition import Decomposition
from .series import FrozenTrack, IrradianceSeries, check_aligned

DEFAULT_HORIZON = 60


@dataclass(frozen=True, eq=False)
class ForecastTrack(FrozenTrack):
    """Aligned (predicted, realized) records on the series' minute grid.

    ``predicted[k]`` is the forecast for time k issued ``horizon`` minutes
    earlier; NaN marks an undefined record. Predictions are >= 0.
    """

    start_time: datetime
    horizon: int
    predicted: np.ndarray
    realized: np.ndarray

    _arrays = ("predicted", "realized")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


def trend_forecast(
    series: IrradianceSeries,
    decomposition: Decomposition,
    horizon: int = DEFAULT_HORIZON,
) -> ForecastTrack:
    """Extrapolate each defined local fit ``horizon`` minutes ahead.

    The prediction for time t0 + horizon is the trailing-window line at t0
    evaluated at t0 + horizon, clamped below at 0 (irradiance is physical).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values = series.values
    n = values.size
    check_aligned(series, decomposition)

    predicted = np.full(n, np.nan)
    if horizon < n:
        extrapolated = decomposition.trend[:-horizon] + decomposition.slope[:-horizon] * horizon
        predicted[horizon:] = np.clip(extrapolated, 0.0, None)
    return ForecastTrack(
        start_time=series.start_time,
        horizon=horizon,
        predicted=predicted,
        realized=values,
    )


def persistence_forecast(series: IrradianceSeries, horizon: int = DEFAULT_HORIZON) -> ForecastTrack:
    """Forecast each sample by the value observed ``horizon`` minutes earlier."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values = series.values
    n = values.size
    predicted = np.full(n, np.nan)
    if horizon < n:
        predicted[horizon:] = values[:-horizon]
    return ForecastTrack(
        start_time=series.start_time,
        horizon=horizon,
        predicted=predicted,
        realized=values,
    )
