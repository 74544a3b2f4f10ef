"""Hour-ahead irradiance forecasts by local-trend extrapolation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition
from .series import FrozenTrack, IrradianceSeries, NonFiniteError, check_aligned, frozen

DEFAULT_HORIZON = 60


@dataclass(frozen=True, eq=False)
class ForecastTrack(FrozenTrack):
    """Aligned (predicted, realized) records on the series' minute grid.

    ``predicted[k]`` is the forecast for time k issued ``horizon`` minutes
    earlier; NaN marks an undefined record. Predictions are >= 0.
    """

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
    A line that leaves double range by then raises NonFiniteError,
    naming the first sample whose line does.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values = series.values
    n = values.size
    check_aligned(series, decomposition)

    predicted = np.empty(n)
    predicted[:horizon] = np.nan
    out = predicted[horizon:]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        np.multiply(decomposition.slope[:-horizon], horizon, out=out)
        np.add(decomposition.trend[:-horizon], out, out=out)
    bad = np.isinf(out)
    if bad.any():
        raise NonFiniteError(
            f"a trend line extrapolated {horizon} minutes overflows double precision, "
            f"the first from sample {int(bad.argmax())}"
        )
    np.clip(out, 0.0, None, out=out)
    return ForecastTrack(
        start_time=series.start_time,
        horizon=horizon,
        predicted=frozen(predicted),
        realized=values,
    )
