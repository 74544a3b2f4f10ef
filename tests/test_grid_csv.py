"""Property tests: the minute-grid CSV writers round-trip through their readers."""

from datetime import datetime, timezone

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from solarband import cli
from solarband.forecast import ForecastTrack
from solarband.series import IrradianceSeries, emit_csv, ingest_csv

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
    track = ForecastTrack(start, 60, predicted, realized)
    back = cli.read_forecast_csv(cli.write_forecast_csv(track), horizon=60)
    assert back.start_time == start
    assert np.array_equal(bits(back.predicted), bits(track.predicted))
    assert np.array_equal(bits(back.realized), bits(track.realized))
