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
from .series import DaylightMask, FrozenTrack, check_aligned, eligible

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


def _ratios(vol: VolatilityTrack, mask: DaylightMask, span: slice) -> tuple[np.ndarray, np.ndarray]:
    """Calibratable records of ``span`` (eligible, vol_pred > 0) and their ratios vol / vol_pred."""
    v, v_pred = vol.vol[span], vol.vol_pred[span]
    keep = eligible(mask.flags[span], v, v_pred) & (v_pred > 0)
    return keep, v[keep] / v_pred[keep]


@dataclass(frozen=True, eq=False)
class _Candidates:
    """The calibratable ratios of one track pair, in time order.

    ``before[i]`` counts calibratable records in ``[0, i)``, so the ratios of
    the window ``[lo, k)`` are ``ratios[before[lo]:before[k]]``. ``ratios`` is
    read-only: every window is a view of it.
    """

    vol: VolatilityTrack
    mask: DaylightMask
    ratios: np.ndarray
    before: np.ndarray


def _candidates(vol: VolatilityTrack, mask: DaylightMask) -> _Candidates:
    keep, ratios = _ratios(vol, mask, slice(None))
    ratios.setflags(write=False)
    return _Candidates(vol, mask, ratios, np.concatenate(([0], np.cumsum(keep))))


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
    )


def _check_window(window_days: int, target: float) -> None:
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    if window_days < 1:
        raise ValueError("window_days must be >= 1")


def calibrate_alpha(
    forecast: ForecastTrack,
    vol: VolatilityTrack,
    mask: DaylightMask,
    at_index: int,
    window_days: int = DEFAULT_WINDOW_DAYS,
    target: float = DEFAULT_TARGET,
    *,
    candidates: _Candidates | None = None,
) -> float:
    """Smallest width multiplier whose trailing coverage reaches ``target``.

    Over eligible records in the ``window_days`` days before ``at_index``
    (daylight-flagged, realized/predicted/vol_pred all defined, vol_pred > 0)
    the ratios |realized - predicted| / vol_pred are the only candidate
    multipliers; coverage is nondecreasing in alpha, so the ceil(target*n)-th
    smallest ratio is the unique minimal solution.

    ``candidates`` is the track-wide ratio record :func:`calibration_events`
    builds once per pass and hands to every call; it must have been built
    from this very ``vol`` and ``mask`` (ValueError otherwise). Without it
    only the window's own ratios are computed, by the same rule.
    """
    _check_window(window_days, target)
    check_aligned(forecast, vol, mask)
    if not 0 <= at_index <= len(forecast):
        raise ValueError(f"at_index {at_index} outside [0, {len(forecast)}]")
    lo = max(0, at_index - window_days * MINUTES_PER_DAY)
    if candidates is None:
        ratios = _ratios(vol, mask, slice(lo, at_index))[1]
    elif candidates.vol is not vol or candidates.mask is not mask:
        raise ValueError("candidates were built from another volatility track or mask")
    else:
        before = candidates.before
        ratios = candidates.ratios[before[lo]:before[at_index]]
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
    return float(np.partition(ratios, rank - 1)[rank - 1])


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

    The multiplier depends only on the set of calibratable records in the
    window, so a grid point whose window gained and lost none since the
    previous point repeats that point's result without calling
    :func:`calibrate_alpha` (every window that slides through night does).
    The calibratable ratios are computed once per pass; each call takes its
    window as a slice of them.
    """
    if recal_every < 1:
        raise ValueError("recal_every must be >= 1")
    _check_window(window_days, target)  # also when no grid point reaches calibrate_alpha
    check_aligned(forecast, vol, mask)
    n = len(forecast)
    start_minute = int(forecast.start_time.timestamp()) // 60
    # Python ints clamped to the track: a huge recal_every cannot overflow int64.
    ks = np.arange(min((-start_minute) % recal_every, n), n, min(recal_every, n + 1))
    # Python-int product, clamped to n: a huge window_days cannot overflow int64.
    los = np.maximum(ks - min(window_days * MINUTES_PER_DAY, n), 0)
    candidates = _candidates(vol, mask)
    entered, left = candidates.before[ks], candidates.before[los]
    changed = np.ones(ks.size, dtype=bool)
    changed[1:] = (entered[1:] != entered[:-1]) | (left[1:] != left[:-1])

    events: list[tuple[int, float | None]] = []
    alpha = None
    for k, fresh in zip(ks.tolist(), changed.tolist()):
        if fresh:
            try:
                alpha = calibrate_alpha(
                    forecast, vol, mask, k, window_days, target, candidates=candidates
                )
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
    alpha = np.ones(len(forecast))
    if events:
        ks = [k for k, _ in events]
        in_force, current = [], 1.0
        for _, value in events:
            current = current if value is None else value
            in_force.append(current)
        alpha[ks[0]:] = np.repeat(in_force, np.diff(ks, append=len(forecast)))
    lower, upper = _frontiers(forecast.predicted, vol.vol_pred, alpha)
    return BandTrack(
        start_time=forecast.start_time,
        lower=lower,
        upper=upper,
        alpha=alpha,
        events=tuple(events),
    )
