"""References for the vectorized paths: row loops, whole-array forms and per-window rules."""

import calendar
import math
from datetime import datetime, timedelta, timezone

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from solarband import bands, report
from solarband.bands import UncalibratableWindowError
from solarband.decomposition import DEFAULT_WINDOW, Decomposition
from solarband.series import CADENCE, MAX_GRID_MINUTES, NonFiniteError, _stamps, format_value

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_LAYOUT = "dddd-dd-ddTdd:dd:ddZ"  # d is a digit, every other character itself


def _stamp_minute(stamp):
    """(epoch minute, second) of an exact ``YYYY-MM-DDTHH:MM:SSZ`` stamp, or None."""
    if len(stamp) != len(_LAYOUT) or any(
        char not in ("0123456789" if want == "d" else want) for char, want in zip(stamp, _LAYOUT)
    ):
        return None
    year, month, day = int(stamp[0:4]), int(stamp[5:7]), int(stamp[8:10])
    hour, minute, second = int(stamp[11:13]), int(stamp[14:16]), int(stamp[17:19])
    if not (year >= 1 and 1 <= month <= 12 and hour <= 23 and minute <= 59 and second <= 59):
        return None
    if not 1 <= day <= calendar.monthrange(year, month)[1]:
        return None
    when = datetime(year, month, day, hour, minute, tzinfo=timezone.utc)
    return (when - _EPOCH) // timedelta(minutes=1), second


def _parse_row(row, ncols, empty_is_gap):
    """(minute, cells) of one row, or its first defect that needs no other row."""
    fields = row.split(",")
    if len(fields) != ncols + 1:
        return "wrong field count"
    stamped = _stamp_minute(fields[0])
    if stamped is None:
        return "malformed timestamp"
    minute, second = stamped
    if second != 0:
        return "timestamp not minute-aligned"
    try:
        cells = [math.nan if cell == "" and empty_is_gap else float(cell) for cell in fields[1:]]
    except ValueError:
        return "malformed value"
    if any(cell != "" and not math.isfinite(value) for cell, value in zip(fields[1:], cells)):
        return "non-finite value"
    if any(value < 0 for value in cells):
        return "negative value"
    return minute, cells


def reference_read_grid_csv(text, header, empty_is_gap=False):
    """``read_grid_csv`` one row at a time: ``(start, columns)``, or the message it raises.

    A non-ASCII character or a NUL reads as ``?``, which no stamp or value accepts;
    a message quotes its row as the text has it.
    """
    seen = "".join("?" if ord(char) > 127 or char == "\0" else char for char in text)
    seen += "" if seen.endswith("\n") else "\n"
    if not seen.startswith(header + "\n"):
        return f"expected header {header!r}"
    rows = seen[len(header) + 1 : -1].split("\n") if len(seen) > len(header) + 1 else []
    if not rows:
        return "no data rows"
    minutes, values = [], []
    at = len(header) + 1  # where the row starts in text
    for line, row in enumerate(rows, start=2):
        parsed = _parse_row(row, header.count(","), empty_is_gap)
        if isinstance(parsed, str):
            defect = parsed
        elif minutes and parsed[0] == minutes[-1]:
            defect = "duplicate timestamp"
        elif minutes and parsed[0] < minutes[-1]:
            defect = "timestamp out of order"
        elif minutes and parsed[0] - minutes[0] >= MAX_GRID_MINUTES:
            defect = "grid longer than MAX_GRID_MINUTES"
        else:
            minutes.append(parsed[0])
            values.append(parsed[1])
            at += len(row) + 1
            continue
        return f"line {line}: {defect}: {text[at : at + len(row)]!r}"
    columns = [np.full(minutes[-1] - minutes[0] + 1, np.nan) for _ in range(header.count(","))]
    for minute, cells in zip(minutes, values):
        for column, value in zip(columns, cells):
            column[minute - minutes[0]] = value
    return _EPOCH + timedelta(minutes=minutes[0]), columns


def format_timestamp(when):
    """The one stamp of ``when``, as the CSV writers and ``bands`` print it."""
    return _stamps(when, np.zeros(1, dtype=np.int64))[0]


def cell(value):
    return "" if math.isnan(value) else format_value(value)


def reference_write_grid_csv(header, start, keep, *columns):
    """The row-loop writer the array writer replaced: a datetime and a format_value call per cell."""
    idx = np.flatnonzero(keep)
    rows = [header]
    rows.extend(
        ",".join((format_timestamp(start + k * CADENCE), *map(cell, cells)))
        for k, *cells in zip(idx.tolist(), *(column[idx].tolist() for column in columns))
    )
    return "\n".join(rows) + "\n"


def reference_extract_trend(series, window=DEFAULT_WINDOW):
    """The whole-view fit, the reference for the block form.

    The slope's product runs over the view of ``values`` padded by one 0.0,
    then drops the padding row: a view of two or more rows never takes
    numpy's one-row BLAS dot, so every slope is the in-order sum from +0.0.
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
        slope_tail = (sliding_window_view(np.append(values, 0.0), window) @ centered)[:-1] / sxx
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
            raise NonFiniteError(
                f"{np.count_nonzero(overflowed)} gap-free trend windows overflow double precision, "
                f"the first ending at sample {window - 1 + np.flatnonzero(overflowed)[0]}"
            )

    return Decomposition(
        start_time=series.start_time,
        trend=trend,
        fluctuation=fluctuation,
        slope=slope,
    )


def reference_trend_forecast(decomposition, horizon):
    """The extrapolation into fresh temporaries: predicted's bytes, or the error message."""
    n = len(decomposition)
    predicted = np.full(n, np.nan)
    if horizon < n:
        with np.errstate(over="ignore", invalid="ignore"):
            extrapolated = decomposition.trend[:-horizon] + decomposition.slope[:-horizon] * horizon
        bad = np.isinf(extrapolated)
        if bad.any():
            return (f"a trend line extrapolated {horizon} minutes overflows double precision, "
                    f"the first from sample {int(bad.argmax())}")
        np.clip(extrapolated, 0.0, None, out=predicted[horizon:])
    return predicted.tobytes()


def reference_calibrate(forecast, vol, mask, at_index, window_days, target):
    """One index by the per-window rule, independent of the batched selection.

    The window's own ratios, the rank ceil(target * n) settled against
    rank / n >= target, and np.partition.
    """
    lo = max(0, at_index - window_days * bands.MINUTES_PER_DAY)
    ratios = bands._ratios(vol, mask, slice(lo, at_index))[1]
    if ratios.size == 0:
        raise UncalibratableWindowError(f"no eligible record before index {at_index}")
    n = ratios.size
    rank = math.ceil(target * n)
    while rank > 1 and (rank - 1) / n >= target:
        rank -= 1
    while rank / n < target:
        rank += 1
    return float(np.partition(ratios, rank - 1)[rank - 1])


def reference_events(forecast, vol, mask, window_days, target, recal_every):
    """The reference rule at every grid point."""
    start_minute = int(forecast.start_time.timestamp()) // 60
    events = []
    for k in range((-start_minute) % recal_every, len(forecast), recal_every):
        try:
            alpha = reference_calibrate(forecast, vol, mask, k, window_days, target)
        except UncalibratableWindowError:
            alpha = None
        events.append((k, alpha))
    return events


def reference_alpha(events, n):
    """Per-slice fill: each event's multiplier, or the last success, holds until the next event."""
    alpha = np.ones(n)
    current = 1.0
    for i, (k, value) in enumerate(events):
        if value is not None:
            current = value
        nxt = events[i + 1][0] if i + 1 < len(events) else n
        alpha[k:nxt] = current
    return alpha


def reference_polylines(parts, xs, ys, sx, sy, cls, style):
    """The per-point formatter the array version replaced: one ``_fmt`` per coordinate,
    and a new polyline after every NaN."""
    runs = [[]]
    for x, y in zip(xs, ys):
        if math.isnan(y):
            runs.append([])
        else:
            runs[-1].append(f"{report._fmt(sx(x))},{report._fmt(sy(y))}")
    for run in runs:
        if run:
            parts.append(f'<polyline class="{cls}" fill="none" {style} points="{" ".join(run)}"/>')
