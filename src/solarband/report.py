"""Forecast and band scoring plus deterministic SVG plot artifacts.

SVG is rendered by hand (no plotting library) so identical inputs give
byte-identical files: fixed canvas, fixed float formatting, no timestamps
or environment-dependent metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import datetime

import numpy as np

from .bands import BandTrack, inside_band
from .forecast import ForecastTrack
from .normality import Histogram, diff_histogram
from .risk import daylight_errors
from .series import (
    MINUTES_PER_DAY,
    DaylightMask,
    IrradianceSeries,
    check_aligned,
    daylight_mask,  # not called here; kept because perfbench/run.py::trace_sites patches it
    eligible,
)

PLOT_KINDS = ("monthly", "zoom", "histogram")
HISTOGRAM_BINS = 60

_WIDTH, _HEIGHT = 960, 480
_ML, _MR, _MT, _MB = 62, 16, 28, 44


class NoScorableRecordsError(ValueError):
    """No record is daylight-eligible with all fields defined."""


class NonFiniteScoreError(ValueError):
    """A scorecard value overflows double precision."""


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


SCORECARD_HEADER = ",".join(f.name for f in fields(ScoreCard))


def score(forecast: ForecastTrack, band: BandTrack, mask: DaylightMask) -> ScoreCard:
    """Score a forecast and its band over daylight-eligible, fully defined records.

    Coverage counts boundary hits as inside (the same counting rule the
    calibration uses). nRMSE is RMSE over the mean realized value of the
    scored records. A value beyond double range, such as the RMSE of errors
    past about 1e154, raises NonFiniteScoreError.
    """
    check_aligned(forecast, band, mask)
    realized = forecast.realized
    predicted = forecast.predicted
    keep = eligible(mask.flags, realized, predicted, band.lower, band.upper)
    n = int(keep.sum())
    if n == 0:
        raise NoScorableRecordsError("no eligible records to score")

    # Values past double range come out as inf or NaN, refused below by name.
    with np.errstate(over="ignore", invalid="ignore"):
        err = realized[keep] - predicted[keep]
        rmse = math.sqrt(float(np.mean(err**2)))
        mae = float(np.mean(np.abs(err)))
        covered = inside_band(realized[keep], band.lower[keep], band.upper[keep])
        card = ScoreCard(
            rmse=rmse,
            mae=mae,
            nrmse=rmse / float(np.mean(realized[keep])),
            coverage=float(np.mean(covered)),
            mean_band_width=float(np.mean(band.upper[keep] - band.lower[keep])),
            n_scored=n,
        )
    bad = [f.name for f in fields(card) if not math.isfinite(getattr(card, f.name))]
    if bad:
        raise NonFiniteScoreError(f"{', '.join(bad)} overflow double precision")
    return card


def scorecard_csv(card: ScoreCard) -> str:
    row = ",".join(repr(getattr(card, f.name)) for f in fields(ScoreCard))
    return SCORECARD_HEADER + "\n" + row + "\n"


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _fmt(px: float) -> str:
    return f"{px:.2f}"


def _nice_step(span: float) -> float:
    raw = span / 6  # at most six ticks
    # A step that underflows to 0 would never end the tick loops: one tick at 0.
    power = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    if power == 0.0:
        return 1.0
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


def _x_tick(canvas: _Canvas, px: float, label: str) -> None:
    canvas.add(
        f'<line x1="{_fmt(px)}" y1="{_HEIGHT - _MB}" x2="{_fmt(px)}" '
        f'y2="{_HEIGHT - _MB + 4}" stroke="#888"/>'
    )
    canvas.add(f'<text x="{_fmt(px)}" y="{_HEIGHT - _MB + 18}" text-anchor="middle">{label}</text>')


def _polylines(canvas: _Canvas, xs, ys, sx, sy, cls: str, style: str) -> None:
    """One polyline per run of defined (non-NaN) samples; a gap splits the line.

    ``sx``/``sy`` map whole arrays with the per-point float operations, and
    each run is one ``%``-format, so the text equals per-point ``_fmt``.
    """
    xy = np.empty((len(xs), 2))
    xy[:, 0] = sx(xs)
    xy[:, 1] = sy(ys)
    for start, stop in _runs(~np.isnan(ys)):
        coords = tuple(xy[start:stop].ravel().tolist())
        points = " ".join(["%.2f,%.2f"] * (stop - start)) % coords
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
        _x_tick(canvas, sx(k), series.time_at(k).strftime("%m-%d %H:%M"))

    xs = np.arange(lo, hi)
    if band is not None:
        dash = 'stroke="black" stroke-dasharray="6,4"'
        _polylines(canvas, xs, band.lower[lo:hi], sx, sy, "band-lower", dash)
        _polylines(canvas, xs, band.upper[lo:hi], sx, sy, "band-upper", dash)
    _polylines(canvas, xs, series.values[lo:hi], sx, sy, "measured", 'stroke="blue"')
    if forecast is not None:
        _polylines(canvas, xs, forecast.predicted[lo:hi], sx, sy, "predicted", 'stroke="red"')
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
        _x_tick(canvas, sx(tick), f"{tick:g}")
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
    _polylines(canvas, hist.curve_x, hist.curve_y, sx, sy, "normal-curve", 'stroke="red"')
    return canvas.text()


def zoom_range(series: IrradianceSeries, zoom: tuple[datetime, datetime] | None = None) -> tuple[int, int]:
    """Sample indices [lo, hi) of the [from, to) range, or without one of the final 48 hours
    (the whole series when shorter); EmptyRangeError if the range holds none."""
    if zoom is None:
        return max(0, len(series) - 2 * MINUTES_PER_DAY), len(series)
    lo = max(0, series.index_of(zoom[0]))
    hi = min(len(series), series.index_of(zoom[1]))
    if hi <= lo:
        raise EmptyRangeError(f"zoom range [{zoom[0]}, {zoom[1]}) holds no samples")
    return lo, hi


def emit_plot(
    series: IrradianceSeries,
    forecast: ForecastTrack | None,
    band: BandTrack | None,
    kind: str,
    zoom: tuple[datetime, datetime] | None = None,
    mask: DaylightMask | None = None,
) -> str:
    """Render one plot artifact and return its SVG text; the caller writes it.

    ``monthly`` draws the full span, ``zoom`` the :func:`zoom_range`, and
    ``histogram`` the forecast errors at the ``mask``'s daylight samples with
    their fitted normal overlay. Tracks and mask must be aligned with the series.
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"kind must be one of {PLOT_KINDS}")
    check_aligned(series, *(track for track in (forecast, band, mask) if track is not None))
    if kind == "histogram":
        if forecast is None or mask is None:
            raise ValueError("histogram kind needs a forecast track and a daylight mask")
        sample = daylight_errors(forecast, mask)
        if sample.size == 0:
            raise EmptyRangeError("no daylight forecast errors to bin")
        hist = diff_histogram(sample, HISTOGRAM_BINS)
        return render_histogram_svg(hist, "forecast error distribution")
    if kind == "zoom":
        lo, hi = zoom_range(series, zoom)
        return render_series_svg(series, forecast, band, lo, hi, "irradiance (zoom)")
    return render_series_svg(series, forecast, band, 0, len(series), "irradiance")
