"""Minute-cadence irradiance series: data model, CSV round-trip, daylight flags.

Samples live on a fixed 1-minute grid anchored at ``start_time`` (UTC).
Missing minutes are first-class gaps, stored as NaN; downstream statistics
skip gap-aligned records instead of interpolating.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from typing import Callable, ClassVar, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CADENCE = timedelta(minutes=1)
MINUTES_PER_DAY = 1440
DEFAULT_EPS_DAY = 5.0

CSV_HEADER = "timestamp,ghi_wm2"
STAMP_LEN = 20  # YYYY-MM-DDTHH:MM:SSZ
MAX_GRID_MINUTES = 5 * 366 * MINUTES_PER_DAY
"""Longest grid a CSV may span (five leap years); a longer span is a format error."""
LAST_MINUTE = datetime(9999, 12, 31, 23, 59, tzinfo=timezone.utc)  # the last a stamp names


class SeriesCsvError(ValueError):
    """A minute-grid CSV or timestamp violates the format contract."""


class NonFiniteError(ValueError):
    """A value a stage computes leaves double range."""


class NoRecordsError(ValueError):
    """A stage has no defined record to work on."""


@dataclass(frozen=True, eq=False)
class FrozenTrack:
    """Frozen dataclass base: a track on the UTC minute grid from ``start_time``.

    ``start_time`` must be timezone-aware UTC with minute precision, so every
    track sits on one absolute grid whatever the machine's zone, and a track
    ends by ``LAST_MINUTE``. The ``_arrays`` fields are read-only arrays of one
    length, ``len()``. Each is a copy, which leaves the caller's array
    writable, unless it is already a read-only array of the field's dtype that
    owns its memory: a producer hands the arrays it made over uncopied through
    :func:`frozen`.

    Tracks compare by value: same type and every field equal, NaN equal to
    NaN. A track is unhashable.
    """

    start_time: datetime

    _arrays: ClassVar[tuple[str, ...]]
    _dtype: ClassVar[type] = float

    def __post_init__(self) -> None:
        if self.start_time.tzinfo is None or self.start_time.utcoffset() != timedelta(0):
            raise ValueError("start_time must be timezone-aware UTC")
        if self.start_time.second != 0 or self.start_time.microsecond != 0:
            raise ValueError("start_time must have minute precision")
        for name in self._arrays:
            arr = getattr(self, name)
            kept = isinstance(arr, np.ndarray) and arr.base is None and not arr.flags.writeable
            if not (kept and arr.dtype == self._dtype):
                arr = frozen(np.array(arr, dtype=self._dtype))
            object.__setattr__(self, name, arr)
        if len({getattr(self, name).size for name in self._arrays}) > 1:
            raise ValueError(f"{type(self).__name__} fields {self._arrays} must have equal length")
        if len(self) - 1 > (LAST_MINUTE - self.start_time) // CADENCE:
            raise ValueError(f"{type(self).__name__} runs past {LAST_MINUTE:%Y-%m-%dT%H:%M:%SZ}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        theirs = vars(other)
        return all(
            np.array_equal(mine, theirs[name], equal_nan=self._dtype is float)
            if name in self._arrays
            else mine == theirs[name]
            for name, mine in vars(self).items()
        )

    def __len__(self) -> int:
        return getattr(self, self._arrays[0]).size


def frozen(arr: np.ndarray) -> np.ndarray:
    """Make ``arr`` read-only in place and return it.

    A producer passes each new array it made to a FrozenTrack through this,
    and the track holds it uncopied.
    """
    arr.setflags(write=False)
    return arr


T = TypeVar("T")
BLOCK = 32_768
"""Most indices per block of :func:`in_blocks`: a float64 block array is 256 KB, which stays in L2."""


def in_blocks(fn: Callable[[int, int], T], n: int) -> list[T]:
    """``fn(a, b)`` for each block [a, b) of [0, n), the results in block order.

    [0, n) is cut into the fewest blocks of at most ``BLOCK`` indices, of
    balanced size, so none is small. The blocks are shared out in order over
    the CPUs the process may use, each block whole in one thread: share 0
    runs in the calling thread, the others in threads that end with this
    call. numpy releases the GIL inside its loops, so the shares run at once.
    A pool kept between calls would hang a fork child that calls this after
    its parent did. ``fn`` runs under ``np.errstate(over="ignore",
    invalid="ignore")``. An array ``fn`` allocates in a worker thread comes
    from that thread's malloc arena, which raises peak RSS by about its size.
    """
    count = max(1, -(-n // BLOCK))
    edges = [n * i // count for i in range(count + 1)]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    shares = min(count, cpus)

    def run(share: int) -> list[T]:
        with np.errstate(over="ignore", invalid="ignore"):  # per thread
            return [fn(edges[i], edges[i + 1])
                    for i in range(count * share // shares, count * (share + 1) // shares)]

    if shares == 1:
        return run(0)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(shares - 1) as pool:
        futures = [pool.submit(run, share) for share in range(1, shares)]
        results = run(0)
    for future in futures:
        results += future.result()
    return results


def check_aligned(*tracks: FrozenTrack) -> None:
    """Raise unless the tracks have one length and agree on each start_time and horizon."""
    if len({len(t) for t in tracks}) > 1:
        raise ValueError("tracks are not aligned: lengths differ")
    for attr in ("start_time", "horizon"):
        if len({getattr(t, attr) for t in tracks if hasattr(t, attr)}) > 1:
            raise ValueError(f"tracks are not aligned: {attr} differs")


@dataclass(frozen=True, eq=False)
class IrradianceSeries(FrozenTrack):
    """Uniform 1-minute irradiance series; NaN marks a gap.

    Invariants: ``start_time`` is UTC with minute precision, every non-gap
    value is finite and >= 0, and sample ``k`` sits at ``start_time + k``
    minutes.
    """

    values: np.ndarray

    _arrays = ("values",)

    def __post_init__(self) -> None:
        super().__post_init__()
        values = self.values
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a non-empty 1-d array")
        # A gap is NaN, which is neither inf nor below 0.
        if np.isinf(values).any():
            raise ValueError("non-gap values must be finite")
        if (values < 0).any():
            raise ValueError("irradiance values must be >= 0")

    def time_at(self, index: int) -> datetime:
        return self.start_time + index * CADENCE

    def index_of(self, when: datetime) -> int:
        """Grid index of ``when``; may fall outside [0, len)."""
        delta = when - self.start_time
        minutes, remainder = divmod(delta, CADENCE)
        if remainder:
            raise ValueError(f"{when} is not on the minute grid")
        return minutes


@dataclass(frozen=True, eq=False)
class DaylightMask(FrozenTrack):
    """Per-sample eligibility flags: non-gap and strictly above ``eps_day``.

    ``start_time`` is the flagged series', so ``check_aligned`` refuses a
    mask laid over a track on another grid.
    """

    flags: np.ndarray
    eps_day: float

    _arrays = ("flags",)
    _dtype = bool


def eligible(flags: np.ndarray, *fields: np.ndarray) -> np.ndarray:
    """Daylight-flagged records with every field defined: the one eligibility rule."""
    for field in fields:
        flags = flags & ~np.isnan(field)
    return flags


def daylight_mask(series: IrradianceSeries, eps_day: float = DEFAULT_EPS_DAY) -> DaylightMask:
    """Flag samples that are non-gap and strictly above ``eps_day`` W/m^2."""
    if not eps_day >= 0:  # NaN too: it would flag no sample
        raise ValueError("eps_day must be >= 0")
    flags = frozen(series.values > eps_day)  # a gap is NaN, which compares false
    return DaylightMask(start_time=series.start_time, flags=flags, eps_day=float(eps_day))


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DIGIT_COLS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPS = np.frombuffer(b"--T::Z", dtype=np.uint8)
_WRITE_CHUNK = 4096


def _decode_stamps(stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of ``STAMP_LEN`` bytes -> (malformed, epoch minute, second).

    Well formed is the exact layout naming a real UTC time in years 0001-9999.
    Dates are checked by arithmetic: numpy's string to datetime64 cast can
    crash, not raise, on an impossible date.
    """
    digits = stamps[:, _DIGIT_COLS] - 48  # uint8: a non-digit byte wraps above 9
    bad = (digits > 9).any(axis=1) | (stamps[:, [4, 7, 10, 13, 16, 19]] != _SEPS).any(axis=1)
    fields = []  # built a column at a time: an (n, 14) integer matrix would dominate peak memory
    for lo, hi in ((0, 4), (4, 6), (6, 8), (8, 10), (10, 12), (12, 14)):
        fields.append(np.zeros(len(stamps), dtype=np.int64))
        for col in range(lo, hi):
            fields[-1] = fields[-1] * 10 + digits[:, col]
    year, month, day, hour, minute, second = fields
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)
    bad |= (year < 1) | (month < 1) | (month > 12) | (hour > 23) | (minute > 59) | (second > 59)
    bad |= (day < 1) | (days.astype("datetime64[M]") != months)  # day 31 of a 30-day month
    return bad, days.astype(np.int64) * MINUTES_PER_DAY + hour * 60 + minute, second


def parse_timestamp(text: str) -> datetime:
    """Strictly parse a ``YYYY-MM-DDTHH:MM:SSZ`` UTC timestamp (the CSV stamp rule)."""
    stamp = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    bad, minute, second = _decode_stamps(np.resize(stamp, (1, STAMP_LEN)))
    if stamp.size != STAMP_LEN or bad[0]:
        raise SeriesCsvError(f"malformed timestamp {text!r}")
    return _EPOCH + timedelta(minutes=int(minute[0]), seconds=int(second[0]))


def _stamps(start: datetime, k: np.ndarray) -> list[str]:
    """Zero-padded ``YYYY-MM-DDTHH:MM:SSZ`` stamps of the grid minutes ``k`` after ``start``."""
    origin = np.datetime64(start.replace(tzinfo=None), "m")
    return np.datetime_as_string(origin + k, unit="s", timezone="UTC").tolist()


def format_value(value: float) -> str:
    """Shortest decimal rendering that parses back to the same float.

    ``repr`` already round-trips; values whose repr is scientific fall back
    to the exact decimal expansion so the file stays plain-decimal.
    """
    text = repr(float(value))
    if "e" in text:
        text = format(Decimal(float(value)), "f")
    return text


def _floats(buf: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """``float()`` of each cell ``buf[start:start + length]``, bit-exact; NaN where empty.

    Cells are cast as ``S<w>`` arrays grouped by power-of-two width ``w``, so
    a copy stays under twice the cells' bytes; ``buf`` must run ``w`` bytes
    past each cell start. None if any cell is malformed.
    """
    out = np.full(start.size, np.nan)
    exponent = np.frexp(length)[1]  # length < 2**exponent; 0 when empty
    for e in np.unique(exponent[exponent > 0]).tolist():
        rows = np.flatnonzero(exponent == e)
        cells = sliding_window_view(buf, 1 << e)[start[rows]]
        cells[np.arange(1 << e) >= length[rows, None]] = 0  # an S array drops trailing NULs
        try:
            out[rows] = cells.view(f"S{1 << e}").ravel().astype(float)
        except ValueError:
            return None
    return out


def read_grid_csv(text: str, header: str, empty_is_gap: bool = False) -> tuple[datetime, list[np.ndarray]]:
    """Parse a minute-grid CSV: its start time and a new, read-only, gap-filled array per value column.

    Rows hold an exact ``YYYY-MM-DDTHH:MM:SSZ`` stamp on a whole minute, later
    than the row before and within ``MAX_GRID_MINUTES`` of the first, then
    cells parsed as ``float`` parses them; an empty cell is NaN if
    ``empty_is_gap``. Missing minutes become NaN. Every defect raises
    SeriesCsvError; the first defective row names its line and defect, and
    within a row the first failed check below wins.
    """
    # One byte per character: a non-ASCII character, or a NUL that an S array
    # would drop, becomes "?", which no stamp or value accepts.
    raw = text.encode("ascii", "replace").replace(b"\0", b"?")
    raw += b"" if raw.endswith(b"\n") else b"\n"
    head = header.encode() + b"\n"
    if not raw.startswith(head):
        raise SeriesCsvError(f"expected header {header!r}")
    ncols = header.count(",")
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))[1:]
    if ends.size == 0:
        raise SeriesCsvError("no data rows")
    starts = np.concatenate(([len(head)], ends[:-1] + 1))
    commas = np.flatnonzero(buf == ord(","))[ncols:]
    n, defect = ends.size, None  # each check sees the rows before the first defect so far

    def check(name: str, bad: np.ndarray) -> None:
        nonlocal n, defect
        if bad[:n].any():
            n, defect = int(np.argmax(bad[:n])), name

    check("wrong field count", np.bincount(np.searchsorted(ends, commas), minlength=n) != ncols)
    commas = commas[: n * ncols].reshape(n, ncols)
    cell_start = commas + 1
    cell_len = np.column_stack((commas[:, 1:], ends[:n])) - cell_start
    # Stamp and cell windows read up to twice a cell's length past its start.
    padded = np.zeros(buf.size + 2 * max(STAMP_LEN, int(cell_len.max(initial=0))), dtype=np.uint8)
    padded[: buf.size] = buf
    del raw, buf  # one copy of the text at a time: the CLI's peak memory is measured

    malformed, minute, second = _decode_stamps(sliding_window_view(padded, STAMP_LEN)[starts[:n]])
    check("malformed timestamp", malformed | (commas[:, 0] - starts[:n] != STAMP_LEN))
    check("timestamp not minute-aligned", second != 0)
    if not empty_is_gap:
        check("malformed value", (cell_len == 0).any(axis=1))

    def parse(rows: int) -> np.ndarray | None:
        cells = _floats(padded, cell_start[:rows].ravel(), cell_len[:rows].ravel())
        return None if cells is None else cells.reshape(rows, ncols)

    values = parse(n)
    if values is None:  # bisect for the first row that does not parse
        n = bisect.bisect_left(range(n), True, key=lambda row: parse(row + 1) is None)
        defect, values = "malformed value", parse(n)
    check("non-finite value", ((cell_len[:n] > 0) & ~np.isfinite(values)).any(axis=1))
    check("negative value", (values < 0).any(axis=1))
    minute = minute[:n]
    step = np.diff(minute, prepend=minute[:1] - 1)
    check("duplicate timestamp", step == 0)
    check("timestamp out of order", step < 0)
    check("grid longer than MAX_GRID_MINUTES", minute - minute[:1] >= MAX_GRID_MINUTES)
    if defect is not None:
        line = text[starts[n] : ends[n]]
        raise SeriesCsvError(f"line {n + 2}: {defect}: {line!r}")
    offset = minute - minute[0]
    columns = [np.full(int(offset[-1]) + 1, np.nan) for _ in range(ncols)]
    for column, cells in zip(columns, values.T):
        column[offset] = cells
    return _EPOCH + timedelta(minutes=int(minute[0])), list(map(frozen, columns))


def ingest_csv(text: str) -> IrradianceSeries:
    """Parse an irradiance CSV into a gap-filled minute series.

    Missing minutes between the first and last row become gaps. Values are
    taken verbatim (bit-exact); nothing is interpolated.
    """
    start, (values,) = read_grid_csv(text, CSV_HEADER)
    return IrradianceSeries(start_time=start, values=values)


def write_grid_csv(header: str, start: datetime, keep: np.ndarray, *columns: np.ndarray) -> str:
    """CSV of one row per kept sample: its timestamp, then a cell per column (NaN -> empty).

    Rows are joined ``_WRITE_CHUNK`` at a time, so no per-row string outlives its chunk.
    """
    idx = np.flatnonzero(keep)
    chunks = [header]
    for lo in range(0, idx.size, _WRITE_CHUNK):
        k = idx[lo : lo + _WRITE_CHUNK]
        cells = (["" if math.isnan(v) else format_value(v) for v in column[k].tolist()] for column in columns)
        chunks.append("\n".join(map(",".join, zip(_stamps(start, k), *cells))))
    chunks.append("")  # the last row's newline
    return "\n".join(chunks)


def emit_csv(series: IrradianceSeries) -> str:
    """Render a series as CSV; gap rows are omitted.

    Round-trips bit-exactly through :func:`ingest_csv` provided the first
    and last samples are non-gap (boundary gaps have no row to anchor them).
    """
    return write_grid_csv(CSV_HEADER, series.start_time, ~np.isnan(series.values), series.values)
