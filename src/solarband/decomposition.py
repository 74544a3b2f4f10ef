"""Causal trend extraction by trailing-window linear least squares.

Each sample with a full gap-free trailing window gets a degree-1 fit over
that window; the trend is the fit evaluated at the window's last point and
the fluctuation is whatever the fit leaves over, so trend + fluctuation
reconstructs the input exactly wherever both are defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .series import FrozenTrack, IrradianceSeries

DEFAULT_WINDOW = 120


class NonFiniteTrendError(ValueError):
    """A gap-free trend window's fit leaves double range."""


@dataclass(frozen=True, eq=False)
class Decomposition(FrozenTrack):
    """Per-sample trend and fluctuation; NaN marks an undefined fit.

    ``slope`` is the fitted per-minute slope at each sample, kept so the
    forecaster can extrapolate the same local line without refitting.
    """

    start_time: datetime
    trend: np.ndarray
    fluctuation: np.ndarray
    slope: np.ndarray

    _arrays = ("trend", "fluctuation", "slope")


def extract_trend(series: IrradianceSeries, window: int = DEFAULT_WINDOW) -> Decomposition:
    """Split a series into a smooth trend and a quickly fluctuating remainder.

    The fit is causal: the window at index k covers samples k-window+1 .. k,
    so later samples never influence earlier trend values. Windows touching
    a gap are undefined rather than partially fitted. A gap-free window whose
    fit overflows (values past about 1e306) raises NonFiniteTrendError.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    values = series.values
    n = values.size
    if n < window:
        raise ValueError(f"series has {n} samples, needs >= {window}")

    # Centered abscissa makes the normal equations diagonal; the window sum
    # of squared offsets has the closed form w(w^2 - 1)/12.
    offsets = np.arange(window, dtype=float)
    half_span = (window - 1) / 2.0
    centered = offsets - half_span
    sxx = window * (window * window - 1.0) / 12.0

    windows = sliding_window_view(values, window)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing fit is refused below
        slope_tail = (windows @ centered) / sxx
        trend_tail = windows.mean(axis=1) + slope_tail * half_span

        trend = np.full(n, np.nan)
        slope = np.full(n, np.nan)
        trend[window - 1 :] = trend_tail
        slope[window - 1 :] = slope_tail
        fluctuation = values - trend
    # A non-finite slope makes the trend, and so the fluctuation, non-finite;
    # only a gap may leave it undefined.
    tail = fluctuation[window - 1 :]
    if not np.isfinite(tail).all():
        gaps = np.concatenate(([0], np.cumsum(np.isnan(values))))
        overflowed = ~np.isfinite(tail) & (gaps[window:] == gaps[:-window])
        if overflowed.any():
            raise NonFiniteTrendError(
                f"{np.count_nonzero(overflowed)} gap-free trend windows overflow double precision, "
                f"the first ending at sample {window - 1 + np.flatnonzero(overflowed)[0]}"
            )

    return Decomposition(
        start_time=series.start_time,
        trend=trend,
        fluctuation=fluctuation,
        slope=slope,
    )
