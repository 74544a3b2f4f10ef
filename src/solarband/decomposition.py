"""Causal trend extraction by trailing-window linear least squares.

Each sample with a full gap-free trailing window gets a degree-1 fit over
that window; the trend is the fit evaluated at the window's last point and
the fluctuation is whatever the fit leaves over, so trend + fluctuation
reconstructs the input exactly wherever both are defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import FrozenTrack, IrradianceSeries, NonFiniteError, frozen, in_blocks

DEFAULT_WINDOW = 120


@dataclass(frozen=True, eq=False)
class Decomposition(FrozenTrack):
    """Per-sample trend and fluctuation; NaN marks an undefined fit.

    ``slope`` is the fitted per-minute slope at each sample, kept so the
    forecaster can extrapolate the same local line without refitting.
    """

    trend: np.ndarray
    fluctuation: np.ndarray
    slope: np.ndarray

    _arrays = ("trend", "fluctuation", "slope")


def extract_trend(series: IrradianceSeries, window: int = DEFAULT_WINDOW) -> Decomposition:
    """Split a series into a smooth trend and a quickly fluctuating remainder.

    The fit is causal: the window at index k covers samples k-window+1 .. k,
    so later samples never influence earlier trend values. Windows touching
    a gap are undefined rather than partially fitted. A gap-free window whose
    fit overflows (values past about 1e306) raises NonFiniteError.
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

    trend = np.full(n, np.nan)
    slope = np.full(n, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing fit is refused in the fit
        _fit_blocks(values, centered, half_span, sxx, trend[window - 1 :], slope[window - 1 :])
        fluctuation = values - trend

    return Decomposition(
        start_time=series.start_time,
        trend=frozen(trend),
        fluctuation=frozen(fluctuation),
        slope=frozen(slope),
    )


def _fit_blocks(
    values: np.ndarray,
    centered: np.ndarray,
    half_span: float,
    sxx: float,
    trend: np.ndarray,
    slope: np.ndarray,
) -> None:
    """Fill ``trend`` and ``slope`` for the windows ``values[k : k + w]``, block by block.

    Each block of windows is fitted whole by :func:`~solarband.series.in_blocks`,
    in one thread, with whole-block numpy passes. Every slope is the in-order
    sum of values[k + j] * centered[j] from +0.0, which the passes repeat
    over j. Wherever the view has two or more rows, that is numpy's non-BLAS
    ``windows @ centered`` order. A lone window is summed the same way, so no
    bit depends on the BLAS thread count. ``windows.mean(axis=1)`` divides
    numpy's pairwise sum of the window (``_pairwise_sums``), added to +0.0,
    by w. That +0.0 is left out: a sum is -0.0 only if every term is, and
    then the slope is +0.0 and the trend +0.0 either way. No bit depends on
    the block size or the CPU count.

    Values are finite and >= 0, so a window's sum is NaN exactly when the
    window holds a gap. A non-finite trend whose window sum is a number is an
    overflow. Each block returns its overflowing windows, and any raises
    NonFiniteError once every block is fitted, counted in block order.
    """
    w = centered.size
    weights = centered.tolist()

    def fit(a: int, b: int) -> np.ndarray:
        # The block's trend slice holds its product row until the fit overwrites it.
        buf, acc = trend[a:b], slope[a:b]
        acc.fill(0.0)
        for j, c in enumerate(weights):
            np.multiply(values[a + j : b + j], c, out=buf)
            acc += buf
        acc /= sxx
        mean = _pairwise_sums(values[a : b + w - 1], w)
        mean /= w
        np.multiply(acc, half_span, out=buf)
        bad = np.flatnonzero(~np.isfinite(np.add(mean, buf, out=buf)) & ~np.isnan(mean))
        return a + bad

    overflowed = np.concatenate(in_blocks(fit, slope.size))
    if overflowed.size:
        raise NonFiniteError(
            f"{overflowed.size} gap-free trend windows overflow double precision, "
            f"the first ending at sample {w - 1 + overflowed[0]}"
        )


def _pairwise_sums(x: np.ndarray, n: int) -> np.ndarray:
    """numpy's pairwise sum of every n-long window of ``x``, one window per output.

    Below 8 terms numpy adds in order. Up to 128 it keeps 8 accumulators
    r[i] = x[i] + x[i + 8] + ..., adds them as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), then the n % 8 leftover terms in order. Above
    128 it adds the sums of the first n2 = n//2 - (n//2) % 8 terms and of the
    rest.
    """
    rows = x.size - n + 1
    if n > 128:
        n2 = n // 2 - n // 2 % 8
        return _pairwise_sums(x[: rows + n2 - 1], n2) + _pairwise_sums(x[n2:], n - n2)
    if n < 8:
        total = x[:rows].copy()
        leftover = range(1, n)
    else:
        # Window k's accumulator r[i] is lanes[k + i], the in-order sum of x[k + i + 8g].
        lanes = x[: rows + 7].copy()
        for g in range(8, n - n % 8, 8):
            lanes += x[g : g + rows + 7]
        pairs = lanes[:-1] + lanes[1:]
        quads = pairs[:-2] + pairs[2:]
        total = quads[:-4] + quads[4:]
        leftover = range(n - n % 8, n)
    for i in leftover:
        total += x[i : i + rows]
    return total
