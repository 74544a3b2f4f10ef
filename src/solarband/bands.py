"""Confidence bands around the hour-ahead forecast.

Frontiers are ``predicted +/- alpha * vol_pred`` with the lower frontier
clamped at 0. The fixed band uses alpha = 1; the calibrated band picks the
smallest alpha whose trailing empirical coverage reaches the target, and
refreshes it on a fixed wall-clock schedule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .forecast import ForecastTrack
from .risk import VolatilityTrack
from .series import MINUTES_PER_DAY, DaylightMask, FrozenTrack, check_aligned, eligible, frozen

DEFAULT_TARGET = 0.68
DEFAULT_WINDOW_DAYS = 3
DEFAULT_RECAL_MINUTES = MINUTES_PER_DAY


class UncalibratableWindowError(ValueError):
    """No eligible record in the calibration window."""


class NonFiniteBandError(ValueError):
    """A band frontier overflows double precision."""


@dataclass(frozen=True, eq=False)
class BandTrack(FrozenTrack):
    """Per-time band frontiers plus the width multiplier in force.

    ``alpha`` is defined at every time (it is the multiplier that would be
    applied, warm-up fallback included); the frontiers are NaN wherever the
    forecast or volatility forecast is undefined. ``events`` are the
    calibration attempts the band was built from, as returned by
    :func:`calibration_events`; the fixed band has none.
    """

    lower: np.ndarray
    upper: np.ndarray
    alpha: np.ndarray
    events: tuple[tuple[int, float | None], ...] = ()

    _arrays = ("lower", "upper", "alpha")


def _band(
    forecast: ForecastTrack,
    vol: VolatilityTrack,
    alpha: np.ndarray,
    events: tuple[tuple[int, float | None], ...] = (),
) -> BandTrack:
    """The band ``predicted +/- alpha * vol_pred`` on the forecast's grid, lower frontier clamped at 0.

    ``alpha`` is held uncopied: the caller hands over an array it made.
    """
    predicted = forecast.predicted
    with np.errstate(over="ignore"):  # an infinite upper frontier is refused; lower is clamped
        halfwidth = alpha * vol.vol_pred
        lower = predicted - halfwidth
        upper = np.add(predicted, halfwidth, out=halfwidth)
    bad = np.isinf(upper)
    if bad.any():
        raise NonFiniteBandError(f"upper frontier at index {int(bad.argmax())} overflows double precision")
    np.clip(lower, 0.0, None, out=lower)
    return BandTrack(forecast.start_time, frozen(lower), frozen(upper), frozen(alpha), events)


def inside_band(realized: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Closed-interval membership; boundary hits count as inside.

    This is the single counting rule shared by calibration and scoring.
    NaN on any side compares false.
    """
    return (lower <= realized) & (realized <= upper)


def _ratios(vol: VolatilityTrack, mask: DaylightMask, span: slice) -> tuple[np.ndarray, np.ndarray]:
    """Calibratable records of ``span`` (eligible, finite vol_pred > 0) and their ratios vol / vol_pred.

    A finite positive divisor keeps every ratio a number: inf / inf is the
    only NaN the division could make. A ratio past double range (a subnormal
    vol_pred) is inf, which no finite multiplier covers.
    """
    v, v_pred = vol.vol[span], vol.vol_pred[span]
    keep = eligible(mask.flags[span], v, v_pred) & (v_pred > 0) & (v_pred < np.inf)
    with np.errstate(over="ignore"):
        return keep, v[keep] / v_pred[keep]


def fixed_band(forecast: ForecastTrack, vol: VolatilityTrack) -> BandTrack:
    """Band with unit width multiplier: predicted +/- vol_pred, clamped at 0."""
    check_aligned(forecast, vol)
    return _band(forecast, vol, np.ones(len(forecast)))


def _ranks(counts: np.ndarray, target: float) -> np.ndarray:
    """ceil(target * n) for each count n >= 1, in exact arithmetic.

    The float product can overshoot an exact integer boundary
    (0.68 * 25 -> 17.000000000000004), so each rank is settled against the
    defining predicate rank / n >= target.
    """
    rank = np.ceil(target * counts).astype(np.int64)
    while (down := (rank > 1) & ((rank - 1) / counts >= target)).any():
        rank -= down
    while (up := rank / counts < target).any():
        rank += up
    return rank


# Records per bucket, and windows per block. A window's run holds at most
# _BUCKET records, so a block sorts at most _BLOCK * _BUCKET keys however the
# ratios are ordered in time, and the keys fit in int32.
_BUCKET = 4096
_BLOCK = 256


def _bucket_layout(order: np.ndarray, buckets: int) -> np.ndarray:
    """Each bucket's places (0 .. _BUCKET - 1) in its records' time order, bucket after bucket."""
    n = order.size
    packed = np.full((buckets, _BUCKET), n, dtype=np.int64)  # the padding, time n, sorts last
    packed.ravel()[:n] = order
    packed *= _BUCKET
    packed += np.arange(_BUCKET)  # time * _BUCKET + place in the bucket
    packed.sort(axis=1)
    packed %= _BUCKET
    return packed.astype(np.int32).ravel()


def _order_statistics(
    ratios: np.ndarray, lo: np.ndarray, hi: np.ndarray, rank: np.ndarray
) -> np.ndarray:
    """The rank-th smallest of ``ratios[lo:hi]`` for each window, windows sorted by ``lo``.

    Every window must hold its rank (1 <= rank <= hi - lo). The records are
    bucketed by their place in one sort of all the ratios, _BUCKET places to
    a bucket, and each bucket is laid out in time order. Per block of
    windows, prefix counts at the window edges give each window's members per
    bucket, hence the one bucket that holds its rank; only that bucket's
    members inside the window, one contiguous run of its layout, are sorted.
    The result is an element of its window picked by comparisons alone, so
    it is the value np.partition of the window returns.
    """
    n = ratios.size
    order = np.argsort(ratios)
    buckets = -(-n // _BUCKET)
    bucket = np.empty(n, dtype=np.int32)  # in time order
    bucket[order] = np.arange(n) // _BUCKET
    local = _bucket_layout(order, buckets)
    seen, edge = np.zeros(buckets, dtype=np.int64), 0  # per bucket: records before ``edge``
    out = np.empty(lo.size)
    for s in range(0, lo.size, _BLOCK):
        a, b, r = lo[s:s + _BLOCK], hi[s:s + _BLOCK], rank[s:s + _BLOCK]
        edges, at = np.unique(np.concatenate((a, b)), return_inverse=True)
        seen += np.bincount(bucket[edge:edges[0]], minlength=buckets)
        edge = edges[0]
        # prefix[e, j]: bucket-j records in [edges[0], edges[e])
        segment = np.repeat(np.arange(edges.size - 1) * buckets, np.diff(edges))
        segment += bucket[edges[0]:edges[-1]]
        prefix = np.zeros((edges.size, buckets), dtype=np.int64)
        counts = np.bincount(segment, minlength=(edges.size - 1) * buckets)
        np.cumsum(counts.reshape(-1, buckets), axis=0, out=prefix[1:])
        start, stop = prefix[at[:a.size]], prefix[at[a.size:]]
        below = np.cumsum(stop - start, axis=1)
        j = (below < r[:, None]).sum(axis=1)  # the bucket that holds the rank
        rows = np.arange(a.size)
        length = stop[rows, j] - start[rows, j]
        within = r - below[rows, j] + length  # rank inside the run, from 1
        offsets = np.cumsum(length) - length
        gather = np.repeat(j * _BUCKET + seen[j] + start[rows, j] - offsets, length)
        gather += np.arange(gather.size)
        tag = rows.astype(np.int32) * _BUCKET
        runs = local[gather]
        runs += np.repeat(tag, length)
        runs.sort()
        out[s:s + _BLOCK] = ratios[order[j * _BUCKET + runs[offsets + within - 1] - tag]]
    return out


def calibrate_alpha(
    forecast: ForecastTrack,
    vol: VolatilityTrack,
    mask: DaylightMask,
    at_index: int | np.ndarray,
    window_days: int = DEFAULT_WINDOW_DAYS,
    target: float = DEFAULT_TARGET,
) -> float | np.ndarray:
    """Smallest width multiplier whose trailing coverage reaches ``target``.

    Over eligible records in the ``window_days`` days before ``at_index``
    (daylight-flagged, realized/predicted/vol_pred all defined, vol_pred
    finite and > 0) the ratios |realized - predicted| / vol_pred are the only
    candidate multipliers; coverage is nondecreasing in alpha, so the
    ceil(target*n)-th smallest ratio is the unique minimal solution.

    ``at_index`` is an int, or a 1-d integer array of indices calibrated in
    one batch. An int returns a float, or raises UncalibratableWindowError
    when its window holds no calibratable record; an array returns a float64
    array with NaN at such indices (a ratio is never NaN). The batch computes
    the ratios from its earliest window start to its latest index once,
    solves each distinct set of calibratable records once, and selects every
    rank in one pass (see _order_statistics). An int is a batch of one.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    if window_days < 1:
        raise ValueError("window_days must be >= 1")
    check_aligned(forecast, vol, mask)
    n = len(forecast)
    scalar = np.ndim(at_index) == 0
    if scalar:
        k = operator.index(at_index)
        if not 0 <= k <= n:
            raise ValueError(f"at_index {k} outside [0, {n}]")
        ks = np.array([k])
    else:
        ks = np.asarray(at_index)
        if ks.ndim != 1 or ks.dtype.kind not in "iu":
            raise ValueError("at_index must be an int or a 1-d integer array")
        if ks.size and not (ks.min() >= 0 and ks.max() <= n):
            raise ValueError(f"at_index outside [0, {n}]")
        ks = ks.astype(np.int64)
    alphas = np.full(ks.size, np.nan)
    if ks.size:
        # Python-int product, clamped to n: a huge window_days cannot overflow int64.
        los = np.maximum(ks - min(window_days * MINUTES_PER_DAY, n), 0)
        base = int(los.min())
        keep, ratios = _ratios(vol, mask, slice(base, int(ks.max())))
        # The window [i, k) holds ratios[lo:hi], lo and hi counting the records kept before i and k.
        lo, hi = np.searchsorted(np.flatnonzero(keep), [los - base, ks - base])
        windows, which = np.unique(lo * (ratios.size + 1) + hi, return_inverse=True)
        lo, hi = np.divmod(windows, ratios.size + 1)  # sorted by lo
        found = np.full(windows.size, np.nan)
        some = lo < hi
        lo, hi = lo[some], hi[some]
        found[some] = _order_statistics(ratios, lo, hi, _ranks(hi - lo, target))
        alphas = found[which]
    if not scalar:
        return alphas
    if np.isnan(alphas[0]):
        raise UncalibratableWindowError(f"no eligible record before index {k}")
    return float(alphas[0])


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

    Every grid point is calibrated in one :func:`calibrate_alpha` call on
    the array of grid points, which checks the other arguments even when the
    grid is empty.
    """
    if recal_every < 1:
        raise ValueError("recal_every must be >= 1")
    n = len(forecast)
    start_minute = int(forecast.start_time.timestamp()) // 60
    # Python ints clamped to the track: a huge recal_every cannot overflow int64.
    ks = np.arange(min((-start_minute) % recal_every, n), n, min(recal_every, n + 1))
    alphas = calibrate_alpha(forecast, vol, mask, ks, window_days, target)
    return list(zip(ks.tolist(), np.where(np.isnan(alphas), None, alphas).tolist()))


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
    successes = [(k, value) for k, value in events if value is not None]
    if successes:
        ks, values = zip(*successes)
        alpha[ks[0]:] = np.repeat(values, np.diff(ks, append=len(forecast)))
    return _band(forecast, vol, alpha, tuple(events))
