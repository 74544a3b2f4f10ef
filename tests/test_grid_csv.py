"""The minute-grid CSV codec: round trips, writer and reader against row-loop references, reader errors."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import format_timestamp, reference_read_grid_csv, reference_write_grid_csv

from solarband import cli
from solarband import series as series_mod
from solarband.forecast import ForecastTrack
from solarband.series import (
    CADENCE,
    CSV_HEADER,
    MAX_GRID_MINUTES,
    IrradianceSeries,
    SeriesCsvError,
    emit_csv,
    ingest_csv,
    parse_timestamp,
    read_grid_csv,
    write_grid_csv,
)

values = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
starts = st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2040, 1, 1)).map(
    lambda t: t.replace(second=0, microsecond=0, tzinfo=timezone.utc)
)


@st.composite
def gappy(draw, n):
    """n values with a random gap mask; gaps are NaN."""
    defined = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    vals = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return np.where(defined, vals, np.nan)


def bits(arr):
    return np.asarray(arr, dtype=float).view(np.uint64)


@settings(max_examples=60, deadline=None, database=None)
@given(start=starts, data=st.data(), n=st.integers(1, 150))
def test_series_csv_round_trip(start, data, n):
    vals = data.draw(gappy(n))
    vals[[0, -1]] = data.draw(st.lists(values, min_size=2, max_size=2))
    series = IrradianceSeries(start, vals)
    back = ingest_csv(emit_csv(series))
    assert back.start_time == start
    assert np.array_equal(bits(back.values), bits(series.values))


@settings(max_examples=60, deadline=None, database=None)
@given(start=starts, data=st.data(), n=st.integers(1, 150))
def test_forecast_csv_round_trip(start, data, n):
    predicted, realized = data.draw(gappy(n)), data.draw(gappy(n))
    for k in (0, -1):  # the first and last rows must exist to anchor the grid
        if np.isnan(predicted[k]) and np.isnan(realized[k]):
            realized[k] = data.draw(values)
    horizon = data.draw(st.one_of(st.just(60), st.integers(1, MAX_GRID_MINUTES - 1)), label="horizon")
    track = ForecastTrack(start, horizon, predicted, realized)
    back = cli.read_forecast_csv(cli.write_forecast_csv(track))
    assert back.start_time == start and back.horizon == horizon
    assert np.array_equal(bits(back.predicted), bits(track.predicted))
    assert np.array_equal(bits(back.realized), bits(track.realized))


def test_the_longest_horizon_a_track_header_names_round_trips_and_the_next_is_refused():
    """A horizon of MAX_GRID_MINUTES was written, then refused by the reader; now both refuse it."""
    start = datetime(2021, 3, 1, tzinfo=timezone.utc)
    realized = np.array([1.0, 2.0, 3.0])
    longest = ForecastTrack(start, MAX_GRID_MINUTES - 1, np.full(3, np.nan), realized)
    text = cli.write_forecast_csv(longest)
    assert text.startswith(f"timestamp,predicted_{MAX_GRID_MINUTES - 1}min_wm2,realized_wm2\n")
    assert cli.read_forecast_csv(text) == longest
    refused = f"^horizon {MAX_GRID_MINUTES} is not below MAX_GRID_MINUTES \\({MAX_GRID_MINUTES}\\)$"
    with pytest.raises(SeriesCsvError, match=refused):
        cli.write_forecast_csv(ForecastTrack(start, MAX_GRID_MINUTES, np.full(3, np.nan), realized))
    with pytest.raises(SeriesCsvError, match=refused):
        cli.read_forecast_csv(text.replace(f"_{MAX_GRID_MINUTES - 1}min", f"_{MAX_GRID_MINUTES}min", 1))


# ---------------------------------------------------------------------------
# the array writer against the row loop it replaced
# ---------------------------------------------------------------------------


# plain decimals, and the magnitudes whose repr is scientific (the Decimal fallback)
cell_values = st.one_of(
    values,
    st.floats(min_value=0.0, max_value=1e-4, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
)


@settings(max_examples=80, deadline=None, database=None)
@given(
    start=starts,
    n=st.integers(1, 9000),
    ncols=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.lists(cell_values, min_size=1, max_size=40),
)
def test_array_writer_matches_row_loop(start, n, ncols, seed, drawn):
    """Byte for byte, across chunk boundaries, random gap masks and every cell magnitude."""
    rng = np.random.default_rng(seed)
    keep = rng.random(n) < rng.random()
    columns = []
    for _ in range(ncols):
        column = rng.uniform(0, 1200, n) * 10.0 ** rng.integers(-8, 20, n)
        column[rng.integers(0, n, len(drawn))] = drawn
        column[rng.random(n) < 0.2] = np.nan
        columns.append(column)
    header = ",".join(["timestamp"] + [f"c{j}" for j in range(ncols)])
    assert write_grid_csv(header, start, keep, *columns) == reference_write_grid_csv(
        header, start, keep, *columns
    )


# ---------------------------------------------------------------------------
# reader errors: the first defective row, its line and its defect, one class per format
# ---------------------------------------------------------------------------

ROW = 1000  # the defective data row, on file line ROW + 1
T0 = datetime(2021, 3, 1, tzinfo=timezone.utc)


def stamp(k, second=0):
    return format_timestamp(T0 + k * CADENCE).replace(":00Z", f":{second:02d}Z")


def csv_with(header, cells, row_text, rows=1500):
    lines = [header] + [f"{stamp(k)},{cells}" for k in range(rows)]
    lines[ROW] = row_text
    return "\n".join(lines) + "\n"


def read_track(text):
    return cli.read_forecast_csv(text)


K = ROW - 1  # grid index of the defective row when its stamp is in place
# (name, the defect its message names, series row, track row): rows that break the format
# even where each stamp is read with strptime("%Y-%m-%dT%H:%M:%SZ") and each cell with float()
REJECTED = [
    ("fields", "wrong field count", f"{stamp(K)},1,2", f"{stamp(K)},1"),
    ("empty line", "wrong field count", "", ""),
    ("bad separator", "malformed timestamp", f"{stamp(K)[:10]}X{stamp(K)[11:]},1",
     f"{stamp(K)[:10]}X{stamp(K)[11:]},1,1"),
    ("impossible date", "malformed timestamp", "2021-02-29T00:00:00Z,1", "2021-02-29T00:00:00Z,1,1"),
    ("hour 24", "malformed timestamp", "2021-03-01T24:00:00Z,1", "2021-03-01T24:00:00Z,1,1"),
    ("year 0", "malformed timestamp", "0000-03-01T00:00:00Z,1", "0000-03-01T00:00:00Z,1,1"),
    ("non-ASCII stamp", "malformed timestamp", f"{stamp(K)[:-1]}\uff3a,1", f"{stamp(K)[:-1]}\uff3a,1,1"),
    ("misaligned", "timestamp not minute-aligned", f"{stamp(K, 30)},1", f"{stamp(K, 30)},1,1"),
    ("malformed value", "malformed value", f"{stamp(K)},abc", f"{stamp(K)},abc,1"),
    ("empty or cut value", "malformed value", f"{stamp(K)},", f"{stamp(K)},1,1e"),
    ("NUL in value", "malformed value", f"{stamp(K)},1\0", f"{stamp(K)},1,1\0"),
    ("non-finite", "non-finite value", f"{stamp(K)},inf", f"{stamp(K)},1,nan"),
    ("negative", "negative value", f"{stamp(K)},-1", f"{stamp(K)},-1,"),
    ("duplicate", "duplicate timestamp", f"{stamp(K - 1)},1", f"{stamp(K - 1)},1,1"),
    ("out of order", "timestamp out of order", f"{stamp(0)},1", f"{stamp(0)},1,1"),
]
# rows that strptime and float() accept and the fixed stamp layout and ASCII-only cells refuse
TIGHTENED = [
    ("single-digit month", "malformed timestamp", "2021-3-01T16:39:00Z,1", "2021-3-01T16:39:00Z,1,1"),
    ("single-digit second", "malformed timestamp", f"{stamp(K)[:-3]}0Z,1", f"{stamp(K)[:-3]}0Z,1,1"),
    ("lower-case stamp", "malformed timestamp", f"{stamp(K).lower()},1", f"{stamp(K).lower()},1,1"),
    ("non-ASCII digit", "malformed value", f"{stamp(K)},\uff11", f"{stamp(K)},1,\u00a01"),
]
DEFECTS = REJECTED + TIGHTENED


@pytest.mark.parametrize("fmt", ["series", "track"])
@pytest.mark.parametrize("defect", DEFECTS, ids=[d[0] for d in DEFECTS])
def test_first_defect_names_its_line(fmt, defect):
    _, named, series_row, track_row = defect
    if fmt == "series":
        text, read = csv_with(CSV_HEADER, "1", series_row), ingest_csv
    else:
        text, read = csv_with(cli.FORECAST_CSV_HEADER, "1,", track_row), read_track
    # a later defect of another kind must not mask the first one
    text = text.replace(f"{stamp(1300)},", f"{stamp(1300)},-", 1)
    with pytest.raises(SeriesCsvError) as exc:
        read(text)
    assert type(exc.value) is SeriesCsvError
    assert str(exc.value).startswith(f"line {ROW + 1}: {named}: ")


def test_earliest_check_wins_within_a_row():
    text = csv_with(CSV_HEADER, "1", f"{stamp(0, 30)},-1")  # misaligned, negative and out of order
    with pytest.raises(SeriesCsvError, match=f"^line {ROW + 1}: timestamp not minute-aligned: "):
        ingest_csv(text)


def test_header_and_empty_errors():
    for text in ("", "\n", "timestamp,ghi\n", "timestamp,ghi_wm2\r\n2021-03-01T00:00:00Z,1\r\n"):
        with pytest.raises(SeriesCsvError, match="^expected header 'timestamp,ghi_wm2'$"):
            ingest_csv(text)
    for text in ("timestamp,ghi_wm2", "timestamp,ghi_wm2\n"):
        with pytest.raises(SeriesCsvError, match="no data rows"):
            ingest_csv(text)
    with pytest.raises(SeriesCsvError, match="^expected header 'timestamp,predicted_wm2,realized_wm2'$"):
        read_track("timestamp,predicted_wm2\n")


def test_reader_accepts_what_float_accepts():
    """Cells parse as float() parses them; the last row may lack its newline."""
    text = f"{CSV_HEADER}\n{stamp(0)}, 1.5\n{stamp(1)},1_000\n{stamp(3)},-0\n{stamp(4)},2E3"
    series = ingest_csv(text)
    assert series.start_time == T0
    assert np.array_equal(series.values, [1.5, 1000.0, np.nan, 0.0, 2000.0], equal_nan=True)
    track = read_track(f"{cli.FORECAST_CSV_HEADER}\n{stamp(0)},,\n{stamp(2)},3,\n")
    assert np.array_equal(track.predicted, [np.nan, np.nan, 3.0], equal_nan=True)
    assert np.isnan(track.realized).all()


def test_tracks_hold_the_readers_columns_uncopied(monkeypatch):
    """Each column was a writable row view of one 2-D grid, so every track copied it again."""
    columns = []

    def recorded(*args, **kwargs):
        start, read = read_grid_csv(*args, **kwargs)
        assert all(col.base is None and not col.flags.writeable for col in read)
        columns.extend(read)
        return start, read

    monkeypatch.setattr(series_mod, "read_grid_csv", recorded)
    monkeypatch.setattr(cli, "read_grid_csv", recorded)
    series = ingest_csv(f"{CSV_HEADER}\n{stamp(0)},1\n{stamp(2)},2\n")
    track = read_track(f"{cli.FORECAST_CSV_HEADER}\n{stamp(0)},1,\n{stamp(3)},,2\n")
    assert len(columns) == 3
    assert series.values is columns[0]
    assert track.predicted is columns[1] and track.realized is columns[2]


def test_long_cells_parse_bit_exactly():
    """Exact decimal expansions run to over a thousand digits (the smallest subnormal)."""
    cells = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 123.25]
    series = IrradianceSeries(T0, np.array(cells))
    text = emit_csv(series)
    assert max(map(len, text.split("\n"))) > 1000
    assert np.array_equal(bits(ingest_csv(text).values), bits(cells))


def test_grid_span_is_capped():
    last = T0 + (MAX_GRID_MINUTES - 1) * CADENCE
    series = ingest_csv(f"{CSV_HEADER}\n{stamp(0)},1\n{format_timestamp(last)},2\n")
    assert len(series) == MAX_GRID_MINUTES
    too_far = format_timestamp(last + CADENCE)
    with pytest.raises(SeriesCsvError, match="line 3: grid longer than MAX_GRID_MINUTES") as exc:
        ingest_csv(f"{CSV_HEADER}\n{stamp(0)},1\n{too_far},2\n")
    assert type(exc.value) is SeriesCsvError
    with pytest.raises(SeriesCsvError, match="line 3: grid longer"):
        read_track(f"{cli.FORECAST_CSV_HEADER}\n{stamp(0)},1,1\n{too_far},2,2\n")


@pytest.mark.parametrize("year", [1, 5, 999, 1000, 2021, 9999])
def test_timestamp_round_trips_and_equals_the_writers_stamp(year):
    when = datetime(year, 3, 1, 12, 0, tzinfo=timezone.utc)
    stamp = format_timestamp(when)
    assert parse_timestamp(stamp) == when
    assert emit_csv(IrradianceSeries(when, [1.0])) == f"{CSV_HEADER}\n{stamp},1.0\n"


def test_a_track_ends_by_the_last_minute_a_stamp_names():
    """A grid past 9999-12-31T23:59Z was accepted, then written with a stamp in year 10000."""
    last = datetime(9999, 12, 31, 23, 59, tzinfo=timezone.utc)
    series = IrradianceSeries(last - 3 * CADENCE, [1.0, 2.0, 3.0, 4.0])
    text = emit_csv(series)
    assert text.endswith("\n9999-12-31T23:59:00Z,4.0\n")
    assert ingest_csv(text) == series
    with pytest.raises(ValueError, match="past 9999-12-31T23:59:00Z"):
        IrradianceSeries(last - 2 * CADENCE, [1.0, 2.0, 3.0, 4.0])


def test_parse_timestamp_uses_the_csv_stamp_rule():
    assert parse_timestamp("2021-03-01T00:00:30Z") == T0 + timedelta(seconds=30)
    for text in ("2021-3-01T00:00:00Z", "2021-03-01t00:00:00z", "2021-03-01T00:00:00", "0000-01-01T00:00:00Z",
                 "2021-02-29T00:00:00Z", "2021-03-01T00:00:00Z ", "2021-03-01T00:00:0١Z"):
        with pytest.raises(SeriesCsvError, match="malformed timestamp"):
            parse_timestamp(text)


SMALL_SERIES = emit_csv(IrradianceSeries(T0, [0.0, 12.5, np.nan, 1e-05, 980.25]))
SMALL_TRACK = cli.write_forecast_csv(
    ForecastTrack(T0, 60, [np.nan, 3.0, 4.5, np.nan, 7.0], [1.0, np.nan, 2.0, np.nan, 0.0])
)
# Characters of the format and its near misses, then any character at all.
EDIT_CHARS = st.sampled_from("0123456789,.-+:TZtzeEinfa_ \t\v\f\n\r\0") | st.characters()


@st.composite
def mutated(draw, text):
    """text after 1-4 single-character insertions, deletions or replacements."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from(range(len(text) + 1)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        char = "" if edit == "delete" else draw(EDIT_CHARS)
        text = text[:at] + char + text[at + (edit != "insert"):]
    return text


@pytest.mark.parametrize("read, text", [(ingest_csv, SMALL_SERIES), (read_track, SMALL_TRACK)],
                         ids=["series", "track"])
@given(data=st.data())
@settings(max_examples=100, deadline=None, database=None)
def test_a_mutated_file_parses_or_raises_a_format_error(read, text, data):
    """Nothing but a SeriesCsvError escapes a reader, series or track, warnings included."""
    try:
        read(data.draw(mutated(text)))
    except SeriesCsvError:
        pass


def read_outcome(read, text, header, empty_is_gap):
    """The start and column bits that read gives text, or the message it raises."""
    try:
        got = read(text, header, empty_is_gap=empty_is_gap)
    except SeriesCsvError as exc:
        return str(exc)
    if isinstance(got, str):
        return got
    start, columns = got
    return start, [column.tobytes() for column in columns]


@pytest.mark.parametrize("text, header, empty_is_gap",
                         [(SMALL_SERIES, CSV_HEADER, False), (SMALL_TRACK, cli.FORECAST_CSV_HEADER, True)],
                         ids=["series", "track"])
@given(data=st.data())
@settings(max_examples=1000, deadline=None, database=None)
def test_mutated_rows_read_as_the_row_loop_reads_them(text, header, empty_is_gap, data):
    """An accepted file has the row loop's start and bits; a refused one, its line and defect.

    The edits fall after the header line, so that each draw reaches the row checks.
    """
    edited = header + "\n" + data.draw(mutated(text[len(header) + 1 :]))
    assert read_outcome(read_grid_csv, edited, header, empty_is_gap) == \
        read_outcome(reference_read_grid_csv, edited, header, empty_is_gap)
