"""Confidence bands around the hour-ahead forecast.

Frontiers are ``predicted +/- alpha * vol_pred`` with the lower frontier
clamped at 0. The fixed band uses alpha = 1; the calibrated band picks the
smallest alpha whose trailing empirical coverage reaches the target, and
refreshes it on a fixed wall-clock schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .forecast import ForecastTrack
from .risk import VolatilityTrack
from .series import DaylightMask, FrozenTrack, check_aligned

DEFAULT_TARGET = 0.68
DEFAULT_WINDOW_DAYS = 3
DEFAULT_RECAL_MINUTES = 1440
MINUTES_PER_DAY = 1440


class UncalibratableWindowError(ValueError):
    """No eligible record in the calibration window."""


@dataclass(frozen=True, eq=False)
class BandTrack(FrozenTrack):
    """Per-time band frontiers plus the width multiplier in force.

    ``alpha`` is defined at every time (it is the multiplier that would be
    applied, warm-up fallback included); the frontiers are NaN wherever the
    forecast or volatility forecast is undefined. ``events`` are the
    calibration attempts the band was built from, as returned by
    :func:`calibration_events`; the fixed band has none.
    """

    start_time: datetime
    lower: np.ndarray
    upper: np.ndarray
    alpha: np.ndarray
    window_days: int | None
    target: float | None
    events: tuple[tuple[int, float | None], ...] = ()

    _arrays = ("lower", "upper", "alpha")


def _frontiers(predicted: np.ndarray, vol_pred: np.ndarray, alpha: np.ndarray):
    halfwidth = alpha * vol_pred
    lower = np.clip(predicted - halfwidth, 0.0, None)
    upper = predicted + halfwidth
    return lower, upper


def inside_band(realized: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Closed-interval membership; boundary hits count as inside.

    This is the single counting rule shared by calibration and scoring.
    NaN on any side compares false.
    """
    return (lower <= realized) & (realized <= upper)


def eligible(flags: np.ndarray, *fields: np.ndarray) -> np.ndarray:
    """Daylight-flagged records with every field defined: the rule calibration and scoring share."""
    for field in fields:
        flags = flags & ~np.isnan(field)
    return flags


def fixed_band(forecast: ForecastTrack, vol: VolatilityTrack) -> BandTrack:
    """Band with unit width multiplier: predicted +/- vol_pred, clamped at 0."""
    check_aligned(forecast, vol)
    alpha = np.ones(len(forecast))
    lower, upper = _frontiers(forecast.predicted, vol.vol_pred, alpha)
    return BandTrack(
        start_time=forecast.start_time,
        lower=lower,
        upper=upper,
        alpha=alpha,
        window_days=None,
        target=None,
    )


def calibrate_alpha(
    forecast: ForecastTrack,
    vol: VolatilityTrack,
    mask: DaylightMask,
    at_index: int,
    window_days: int = DEFAULT_WINDOW_DAYS,
    target: float = DEFAULT_TARGET,
) -> float:
    """Smallest width multiplier whose trailing coverage reaches ``target``.

    Over eligible records in the ``window_days`` days before ``at_index``
    (daylight-flagged, realized/predicted/vol_pred all defined, vol_pred > 0)
    the ratios |realized - predicted| / vol_pred are the only candidate
    multipliers; coverage is nondecreasing in alpha, so the ceil(target*n)-th
    smallest ratio is the unique minimal solution.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    check_aligned(forecast, vol, mask)
    if not 0 <= at_index <= len(forecast):
        raise ValueError(f"at_index {at_index} outside [0, {len(forecast)}]")
    lo = max(0, at_index - window_days * MINUTES_PER_DAY)
    window = slice(lo, at_index)

    vol_win = vol.vol[window]
    vol_pred_win = vol.vol_pred[window]
    keep = eligible(mask.flags[window], vol_win, vol_pred_win) & (vol_pred_win > 0)
    ratios = vol_win[keep] / vol_pred_win[keep]
    if ratios.size == 0:
        raise UncalibratableWindowError(f"no eligible record before index {at_index}")

    # ceil(target * n) in exact arithmetic; the float product can overshoot
    # an exact integer boundary (0.68 * 25 -> 17.000000000000004), so settle
    # the rank against the defining predicate rank / n >= target.
    n = ratios.size
    rank = math.ceil(target * n)
    while rank > 1 and (rank - 1) / n >= target:
        rank -= 1
    while rank / n < target:
        rank += 1
    return float(np.sort(ratios)[rank - 1])


def calibration_events(
    forecast: ForecastTrack,
    vol: VolatilityTrack,
    mask: DaylightMask,
    window_days: int = DEFAULT_WINDOW_DAYS,
    target: float = DEFAULT_TARGET,
    recal_every: int = DEFAULT_RECAL_MINUTES,
) -> list[tuple[int, float | None]]:
    """Calibration attempts on the recalibration grid, in time order.

    The grid is anchored to absolute UTC time (epoch minute multiples of
    ``recal_every``), not to the track start, so identical data reaches
    identical multipliers regardless of where a file was cut. A failed
    attempt is reported as None; the previous multiplier stays in force.
    """
    if recal_every < 1:
        raise ValueError("recal_every must be >= 1")
    check_aligned(forecast, vol, mask)
    start_minute = int(forecast.start_time.timestamp()) // 60
    first = (-start_minute) % recal_every
    events: list[tuple[int, float | None]] = []
    for k in range(first, len(forecast), recal_every):
        try:
            alpha = calibrate_alpha(forecast, vol, mask, k, window_days, target)
        except UncalibratableWindowError:
            alpha = None
        events.append((k, alpha))
    return events


def calibrated_band(
    forecast: ForecastTrack,
    vol: VolatilityTrack,
    mask: DaylightMask,
    window_days: int = DEFAULT_WINDOW_DAYS,
    target: float = DEFAULT_TARGET,
    recal_every: int = DEFAULT_RECAL_MINUTES,
) -> BandTrack:
    """Band whose width multiplier tracks trailing empirical coverage.

    At each time the multiplier is the most recent successful calibration at
    or before it; before the first success it falls back to 1 (the fixed
    band), so the calibrated band degrades to the fixed one, never worse.
    """
    events = calibration_events(forecast, vol, mask, window_days, target, recal_every)
    n = len(forecast)
    alpha = np.ones(n)
    current = 1.0
    for i, (k, value) in enumerate(events):
        if value is not None:
            current = value
        nxt = events[i + 1][0] if i + 1 < len(events) else n
        alpha[k:nxt] = current
    lower, upper = _frontiers(forecast.predicted, vol.vol_pred, alpha)
    return BandTrack(
        start_time=forecast.start_time,
        lower=lower,
        upper=upper,
        alpha=alpha,
        window_days=window_days,
        target=target,
        events=tuple(events),
    )
