"""Forecast and band scoring plus deterministic SVG plot artifacts.

SVG is rendered by hand (no plotting library) so identical inputs give
byte-identical files: fixed canvas, fixed float formatting, no timestamps
or environment-dependent metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .bands import BandTrack, eligible, inside_band
from .forecast import ForecastTrack
from .normality import Histogram, diff_histogram
from .risk import daylight_errors
from .series import DEFAULT_EPS_DAY, DaylightMask, IrradianceSeries, check_aligned, daylight_mask

SCORECARD_HEADER = "rmse,mae,nrmse,coverage,mean_band_width,n_scored"

PLOT_KINDS = ("monthly", "zoom", "histogram")

_WIDTH, _HEIGHT = 960, 480
_ML, _MR, _MT, _MB = 62, 16, 28, 44


class NoScorableRecordsError(ValueError):
    """No record is daylight-eligible with all fields defined."""


class EmptyRangeError(ValueError):
    """The requested plot range contains no samples."""


@dataclass(frozen=True)
class ScoreCard:
    """Point-forecast accuracy and band quality over eligible records."""

    rmse: float
    mae: float
    nrmse: float
    coverage: float
    mean_band_width: float
    n_scored: int


def score(forecast: ForecastTrack, band: BandTrack, mask: DaylightMask) -> ScoreCard:
    """Score a forecast and its band over daylight-eligible, fully defined records.

    Coverage counts boundary hits as inside (the same counting rule the
    calibration uses). nRMSE is RMSE over the mean realized value of the
    scored records.
    """
    check_aligned(forecast, band, mask)
    realized = forecast.realized
    predicted = forecast.predicted
    keep = eligible(mask.flags, realized, predicted, band.lower, band.upper)
    n = int(keep.sum())
    if n == 0:
        raise NoScorableRecordsError("no eligible records to score")

    err = realized[keep] - predicted[keep]
    rmse = math.sqrt(float(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    covered = inside_band(realized[keep], band.lower[keep], band.upper[keep])
    return ScoreCard(
        rmse=rmse,
        mae=mae,
        nrmse=rmse / float(np.mean(realized[keep])),
        coverage=float(np.mean(covered)),
        mean_band_width=float(np.mean(band.upper[keep] - band.lower[keep])),
        n_scored=n,
    )


def scorecard_csv(card: ScoreCard) -> str:
    fields = (
        repr(card.rmse),
        repr(card.mae),
        repr(card.nrmse),
        repr(card.coverage),
        repr(card.mean_band_width),
        str(card.n_scored),
    )
    return SCORECARD_HEADER + "\n" + ",".join(fields) + "\n"


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _fmt(px: float) -> str:
    return f"{px:.2f}"


def _nice_step(span: float, max_ticks: int = 6) -> float:
    if span <= 0:
        return 1.0
    raw = span / max_ticks
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if power * mult >= raw:
            return power * mult
    return power * 10.0


def _runs(defined: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous [start, stop) runs of True."""
    idx = np.flatnonzero(defined)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[breaks + 1]))
    stops = np.concatenate((idx[breaks] + 1, [idx[-1] + 1]))
    return list(zip(starts.tolist(), stops.tolist()))


class _Canvas:
    def __init__(self, title: str) -> None:
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_ML}" y="18" font-size="14">{title}</text>',
            f'<rect x="{_ML}" y="{_MT}" width="{_WIDTH - _ML - _MR}" '
            f'height="{_HEIGHT - _MT - _MB}" fill="none" stroke="#888"/>',
        ]

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def _scales(x_lo: float, x_hi: float, y_hi: float):
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi, 1e-12)

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        return _MT + (1.0 - y / y_span) * plot_h

    return sx, sy


def _y_axis(canvas: _Canvas, sy, y_hi: float, label: str) -> None:
    step = _nice_step(y_hi)
    tick = 0.0
    while tick <= y_hi * (1 + 1e-9):
        py = sy(tick)
        canvas.add(
            f'<line x1="{_ML - 4}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" stroke="#888"/>'
        )
        canvas.add(
            f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" text-anchor="end">{tick:g}</text>'
        )
        tick += step
    canvas.add(
        f'<text x="14" y="{_MT + 12}" transform="rotate(-90 14 {_MT + 12})" '
        f'text-anchor="end">{label}</text>'
    )


def _polylines(canvas: _Canvas, xs, ys, defined, sx, sy, cls: str, style: str) -> None:
    for start, stop in _runs(defined):
        points = " ".join(
            f"{_fmt(sx(xs[k]))},{_fmt(sy(ys[k]))}" for k in range(start, stop)
        )
        canvas.add(f'<polyline class="{cls}" fill="none" {style} points="{points}"/>')


def render_series_svg(
    series: IrradianceSeries,
    forecast: ForecastTrack | None,
    band: BandTrack | None,
    lo: int,
    hi: int,
    title: str,
) -> str:
    """Measured series in blue, prediction in red, band frontiers black dashed."""
    if not 0 <= lo < hi <= len(series):
        raise EmptyRangeError(f"range [{lo}, {hi}) is empty or out of bounds")
    candidates = [series.values[lo:hi]]
    if forecast is not None:
        candidates.append(forecast.predicted[lo:hi])
    if band is not None:
        candidates.append(band.upper[lo:hi])
    finite = [c[np.isfinite(c)] for c in candidates]
    y_hi = max((float(c.max()) for c in finite if c.size), default=1.0)
    y_hi = y_hi if y_hi > 0 else 1.0

    canvas = _Canvas(title)
    sx, sy = _scales(lo, hi - 1 if hi - 1 > lo else lo + 1, y_hi)
    _y_axis(canvas, sy, y_hi, "W/m2")

    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        k = lo + int(round(frac * (hi - 1 - lo)))
        px = sx(k)
        label = series.time_at(k).strftime("%m-%d %H:%M")
        canvas.add(
            f'<line x1="{_fmt(px)}" y1="{_HEIGHT - _MB}" x2="{_fmt(px)}" '
            f'y2="{_HEIGHT - _MB + 4}" stroke="#888"/>'
        )
        canvas.add(
            f'<text x="{_fmt(px)}" y="{_HEIGHT - _MB + 18}" text-anchor="middle">{label}</text>'
        )

    xs = np.arange(lo, hi)
    if band is not None:
        dash = 'stroke="black" stroke-dasharray="6,4"'
        lower = band.lower[lo:hi]
        upper = band.upper[lo:hi]
        _polylines(canvas, xs, lower, ~np.isnan(lower), sx, sy, "band-lower", dash)
        _polylines(canvas, xs, upper, ~np.isnan(upper), sx, sy, "band-upper", dash)
    measured = series.values[lo:hi]
    _polylines(canvas, xs, measured, ~np.isnan(measured), sx, sy, "measured", 'stroke="blue"')
    if forecast is not None:
        predicted = forecast.predicted[lo:hi]
        _polylines(
            canvas, xs, predicted, ~np.isnan(predicted), sx, sy, "predicted", 'stroke="red"'
        )
    return canvas.text()


def render_histogram_svg(hist: Histogram, title: str) -> str:
    """Error histogram as blue bars with the fitted normal curve in red."""
    x_lo = float(hist.bin_edges[0])
    x_hi = float(hist.bin_edges[-1])
    y_hi = max(float(hist.counts.max()), float(hist.curve_y.max()), 1.0)

    canvas = _Canvas(title)
    sx, sy = _scales(x_lo, x_hi, y_hi)
    _y_axis(canvas, sy, y_hi, "count")

    step = _nice_step(x_hi - x_lo)
    tick = math.ceil(x_lo / step) * step
    while tick <= x_hi + step * 1e-9:
        px = sx(tick)
        canvas.add(
            f'<line x1="{_fmt(px)}" y1="{_HEIGHT - _MB}" x2="{_fmt(px)}" '
            f'y2="{_HEIGHT - _MB + 4}" stroke="#888"/>'
        )
        canvas.add(
            f'<text x="{_fmt(px)}" y="{_HEIGHT - _MB + 18}" text-anchor="middle">{tick:g}</text>'
        )
        tick += step

    floor = sy(0.0)
    for i, count in enumerate(hist.counts.tolist()):
        left = sx(float(hist.bin_edges[i]))
        right = sx(float(hist.bin_edges[i + 1]))
        top = sy(float(count))
        canvas.add(
            f'<rect class="diff-bin" x="{_fmt(left)}" y="{_fmt(top)}" '
            f'width="{_fmt(right - left)}" height="{_fmt(floor - top)}" '
            f'fill="blue" fill-opacity="0.55"/>'
        )
    points = " ".join(
        f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}"
        for x, y in zip(hist.curve_x, hist.curve_y)
    )
    canvas.add(f'<polyline class="normal-curve" fill="none" stroke="red" points="{points}"/>')
    return canvas.text()


def emit_plot(
    series: IrradianceSeries,
    forecast: ForecastTrack | None,
    band: BandTrack | None,
    kind: str,
    out: str | Path,
    zoom: tuple[datetime, datetime] | None = None,
    eps_day: float = DEFAULT_EPS_DAY,
    bins: int = 60,
) -> str:
    """Write one plot artifact and return its SVG text.

    ``monthly`` draws the full span, ``zoom`` the [from, to) range, and
    ``histogram`` the daylight forecast-error distribution with its fitted
    normal overlay.
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"kind must be one of {PLOT_KINDS}")
    if kind == "histogram":
        if forecast is None:
            raise ValueError("histogram kind needs a forecast track")
        sample = daylight_errors(forecast, daylight_mask(series, eps_day))
        if sample.size == 0:
            raise EmptyRangeError("no daylight forecast errors to bin")
        text = render_histogram_svg(diff_histogram(sample, bins), "forecast error distribution")
    elif kind == "zoom":
        if zoom is None:
            raise ValueError("zoom kind needs a (from, to) range")
        lo = max(0, series.index_of(zoom[0]))
        hi = min(len(series), series.index_of(zoom[1]))
        if hi <= lo:
            raise EmptyRangeError(f"zoom range [{zoom[0]}, {zoom[1]}) holds no samples")
        text = render_series_svg(series, forecast, band, lo, hi, "irradiance (zoom)")
    else:
        text = render_series_svg(series, forecast, band, 0, len(series), "irradiance")
    Path(out).write_text(text)
    return text
