"""Forecast-error volatility: signed error, its magnitude, and the persistence forecast."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forecast import ForecastTrack
from .series import DaylightMask, FrozenTrack, NoRecordsError, check_aligned, eligible, frozen


@dataclass(frozen=True, eq=False)
class VolatilityTrack(FrozenTrack):
    """Signed error ``diff``, its magnitude ``vol``, and the shifted forecast.

    ``vol_pred[t]`` is the persistence forecast of ``vol`` issued ``horizon``
    minutes earlier, i.e. exactly ``vol[t - horizon]`` where that is defined.
    """

    horizon: int
    diff: np.ndarray
    vol: np.ndarray
    vol_pred: np.ndarray

    _arrays = ("diff", "vol", "vol_pred")


def volatility_track(track: ForecastTrack) -> VolatilityTrack:
    """Derive the volatility signal from a forecast track.

    diff = realized - predicted, vol = |diff|; both undefined wherever either
    input is. The forecast of vol is its own value one horizon earlier.
    """
    diff = track.realized - track.predicted
    if np.isnan(diff).all():
        raise NoRecordsError("forecast track has no defined records")
    vol = np.abs(diff)
    vol_pred = np.full(diff.size, np.nan)
    vol_pred[track.horizon :] = vol[: -track.horizon]
    return VolatilityTrack(
        start_time=track.start_time,
        horizon=track.horizon,
        diff=frozen(diff),
        vol=frozen(vol),
        vol_pred=frozen(vol_pred),
    )


def daylight_errors(track: ForecastTrack, mask: DaylightMask) -> np.ndarray:
    """Defined errors realized - predicted at daylight times, as tested and histogrammed."""
    check_aligned(track, mask)
    diff = track.realized - track.predicted
    return diff[eligible(mask.flags, diff)]
