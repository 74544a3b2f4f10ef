"""Row-loop references for the vectorized paths, one row at a time."""

import calendar
import math
from datetime import datetime, timedelta, timezone

import numpy as np

from solarband.series import MAX_GRID_MINUTES

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
