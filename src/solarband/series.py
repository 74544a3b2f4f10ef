"""Minute-cadence irradiance series: data model, CSV round-trip, daylight flags.

Samples live on a fixed 1-minute grid anchored at ``start_time`` (UTC).
Missing minutes are first-class gaps, stored as NaN; downstream statistics
skip gap-aligned records instead of interpolating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from typing import ClassVar

import numpy as np

CADENCE = timedelta(minutes=1)
DEFAULT_EPS_DAY = 5.0

CSV_HEADER = "timestamp,ghi_wm2"
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


class SeriesCsvError(ValueError):
    """Irradiance CSV violates the format contract."""


class MalformedHeaderError(SeriesCsvError):
    """Header line is not exactly ``timestamp,ghi_wm2``."""


class NonMonotoneTimestampError(SeriesCsvError):
    """A row's timestamp precedes an earlier row's timestamp."""


class DuplicateTimestampError(SeriesCsvError):
    """Two rows share the same timestamp."""


class NegativeIrradianceError(SeriesCsvError):
    """A row carries a negative irradiance value."""


class MisalignedTimestampError(SeriesCsvError):
    """A row's timestamp is not aligned to a whole minute."""


class FrozenTrack:
    """Frozen dataclass base: the ``_arrays`` fields are read-only copies of one length.

    Copying leaves the caller's arrays writable; the common length is ``len()``.
    """

    _arrays: ClassVar[tuple[str, ...]]
    _dtype: ClassVar[type] = float

    def __post_init__(self) -> None:
        for name in self._arrays:
            arr = np.array(getattr(self, name), dtype=self._dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len({getattr(self, name).size for name in self._arrays}) > 1:
            raise ValueError(f"{type(self).__name__} fields {self._arrays} must have equal length")

    def __len__(self) -> int:
        return getattr(self, self._arrays[0]).size


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

    start_time: datetime
    values: np.ndarray

    _arrays = ("values",)

    def __post_init__(self) -> None:
        super().__post_init__()
        values = self.values
        if self.start_time.tzinfo is None or self.start_time.utcoffset() != timedelta(0):
            raise ValueError("start_time must be timezone-aware UTC")
        if self.start_time.second != 0 or self.start_time.microsecond != 0:
            raise ValueError("start_time must have minute precision")
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a non-empty 1-d array")
        gap = np.isnan(values)
        if not np.isfinite(values[~gap]).all():
            raise ValueError("non-gap values must be finite")
        if (values[~gap] < 0).any():
            raise ValueError("irradiance values must be >= 0")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IrradianceSeries):
            return NotImplemented
        return self.start_time == other.start_time and np.array_equal(
            self.values, other.values, equal_nan=True
        )

    @property
    def cadence(self) -> timedelta:
        return CADENCE

    def time_at(self, index: int) -> datetime:
        return self.start_time + index * CADENCE

    def index_of(self, when: datetime) -> int:
        """Grid index of ``when``; may fall outside [0, len)."""
        delta = when - self.start_time
        minutes, remainder = divmod(delta, CADENCE)
        if remainder:
            raise ValueError(f"{when} is not on the minute grid")
        return minutes

    def gap_mask(self) -> np.ndarray:
        return np.isnan(self.values)


@dataclass(frozen=True, eq=False)
class DaylightMask(FrozenTrack):
    """Per-sample eligibility flags: non-gap and strictly above ``eps_day``."""

    flags: np.ndarray
    eps_day: float

    _arrays = ("flags",)
    _dtype = bool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DaylightMask):
            return NotImplemented
        return self.eps_day == other.eps_day and np.array_equal(self.flags, other.flags)


def daylight_mask(series: IrradianceSeries, eps_day: float = DEFAULT_EPS_DAY) -> DaylightMask:
    """Flag samples that are non-gap and strictly above ``eps_day`` W/m^2."""
    if eps_day < 0:
        raise ValueError("eps_day must be >= 0")
    values = series.values
    flags = ~np.isnan(values) & (values > eps_day)
    return DaylightMask(flags=flags, eps_day=float(eps_day))


def parse_timestamp(text: str) -> datetime:
    """Strictly parse a ``YYYY-MM-DDTHH:MM:SSZ`` UTC timestamp."""
    try:
        ts = datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError as exc:
        raise SeriesCsvError(f"malformed timestamp {text!r}") from exc
    return ts.replace(tzinfo=timezone.utc)


def format_timestamp(when: datetime) -> str:
    return when.strftime("%Y-%m-%dT%H:%M:00Z")


def format_value(value: float) -> str:
    """Shortest decimal rendering that parses back to the same float.

    ``repr`` already round-trips; values whose repr is scientific fall back
    to the exact decimal expansion so the file stays plain-decimal.
    """
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = format(Decimal(float(value)), "f")
    return text


def ingest_csv(text: str) -> IrradianceSeries:
    """Parse an irradiance CSV into a gap-filled minute series.

    Missing minutes between the first and last row become gaps. Values are
    taken verbatim (bit-exact); nothing is interpolated.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise MalformedHeaderError(f"expected header {CSV_HEADER!r}")

    stamps: list[datetime] = []
    parsed: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise SeriesCsvError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        ts = parse_timestamp(fields[0])
        if ts.second != 0:
            raise MisalignedTimestampError(f"line {lineno}: timestamp {fields[0]} not minute-aligned")
        try:
            value = float(fields[1])
        except ValueError as exc:
            raise SeriesCsvError(f"line {lineno}: malformed value {fields[1]!r}") from exc
        if math.isnan(value) or math.isinf(value):
            raise SeriesCsvError(f"line {lineno}: non-finite value {fields[1]!r}")
        if value < 0:
            raise NegativeIrradianceError(f"line {lineno}: negative irradiance {fields[1]}")
        if stamps:
            if ts == stamps[-1]:
                raise DuplicateTimestampError(f"line {lineno}: duplicate timestamp {fields[0]}")
            if ts < stamps[-1]:
                raise NonMonotoneTimestampError(f"line {lineno}: timestamp {fields[0]} out of order")
        stamps.append(ts)
        parsed.append(value)

    if not stamps:
        raise SeriesCsvError("no data rows")

    n = (stamps[-1] - stamps[0]) // CADENCE + 1
    values = np.full(n, np.nan)
    for ts, value in zip(stamps, parsed):
        values[(ts - stamps[0]) // CADENCE] = value
    return IrradianceSeries(start_time=stamps[0], values=values)


def _cell(value: float) -> str:
    return "" if math.isnan(value) else format_value(value)


def write_grid_csv(header: str, start: datetime, keep: np.ndarray, *columns: np.ndarray) -> str:
    """CSV of one row per kept sample: its timestamp, then a cell per column (NaN -> empty)."""
    idx = np.flatnonzero(keep)
    rows = [header]
    rows.extend(
        ",".join((format_timestamp(start + k * CADENCE), *map(_cell, cells)))
        for k, *cells in zip(idx.tolist(), *(column[idx].tolist() for column in columns))
    )
    return "\n".join(rows) + "\n"


def emit_csv(series: IrradianceSeries) -> str:
    """Render a series as CSV; gap rows are omitted.

    Round-trips bit-exactly through :func:`ingest_csv` provided the first
    and last samples are non-gap (boundary gaps have no row to anchor them).
    """
    return write_grid_csv(CSV_HEADER, series.start_time, ~series.gap_mask(), series.values)
