"""Every track type sits on the UTC minute grid, freezes its arrays, copied unless already
frozen, keeps them aligned, and compares by value."""

import tracemalloc
from dataclasses import replace
from datetime import timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import START, all_daylight, run_pipeline_with_band

from solarband.bands import BandTrack, calibrate_alpha, calibrated_band, fixed_band
from solarband.cli import write_forecast_csv
from solarband.decomposition import Decomposition, extract_trend
from solarband.forecast import ForecastTrack, trend_forecast
from solarband.report import score
from solarband.risk import VolatilityTrack, daylight_errors, volatility_track
from solarband.series import DaylightMask, IrradianceSeries, daylight_mask
from solarband.synth import SynthConfig, generate

# Each builder takes the track's array fields in order; the number is how many.
TRACKS = {
    "IrradianceSeries": (1, lambda a: IrradianceSeries(START, a)),
    "DaylightMask": (1, lambda a: DaylightMask(START, a, 5.0)),
    "Decomposition": (3, lambda a, b, c: Decomposition(START, a, b, c)),
    "ForecastTrack": (2, lambda a, b: ForecastTrack(START, 60, a, b)),
    "VolatilityTrack": (3, lambda a, b, c: VolatilityTrack(START, 60, a, b, c)),
    "BandTrack": (3, lambda a, b, c: BandTrack(START, a, b, c)),
}


OFF_GRID = {
    "naive": START.replace(tzinfo=None),
    "+01:00": START.astimezone(timezone(timedelta(hours=1))),  # the same instant, another zone
    "00:00:30": START.replace(second=30),
}


@pytest.mark.parametrize("start", OFF_GRID)
@pytest.mark.parametrize("name", TRACKS)
def test_track_refuses_a_start_off_the_utc_minute_grid(name, start):
    """A naive start anchored the recalibration grid to the machine's zone."""
    arity, build = TRACKS[name]
    track = build(*[np.ones(3) for _ in range(arity)])
    with pytest.raises(ValueError, match="^start_time must"):
        replace(track, start_time=OFF_GRID[start])


def test_a_forecast_track_of_another_zone_never_reaches_the_writer():
    """At 01:00+01:00 the writer stamped its first row 01:00:00Z, an hour late."""
    with pytest.raises(ValueError, match="^start_time must be timezone-aware UTC$"):
        write_forecast_csv(ForecastTrack(OFF_GRID["+01:00"], 60, np.ones(2), np.ones(2)))


# A new value of each scalar field a track type has.
SCALARS = {"horizon": 30, "eps_day": 6.0, "events": ((0, 2.0),)}


@pytest.mark.parametrize("name", TRACKS)
def test_tracks_compare_by_value(name):
    arity, build = TRACKS[name]
    given = [np.array([1.0, np.nan, 3.0]) for _ in range(arity)]
    track = build(*given)
    assert track == build(*[arr.copy() for arr in given])  # NaN in the same places
    assert track != replace(track, start_time=START + timedelta(minutes=1))
    for field in SCALARS.keys() & vars(track).keys():
        assert track != replace(track, **{field: SCALARS[field]})
    for field, arr in vars(track).items():
        if isinstance(arr, np.ndarray):
            changed = arr.copy()
            changed[0] = 0
            assert track != replace(track, **{field: changed})
    for other, (other_arity, other_build) in TRACKS.items():
        if other != name:
            assert track != other_build(*[given[0]] * other_arity)
    with pytest.raises(TypeError):
        hash(track)


@pytest.mark.parametrize("name", TRACKS)
def test_track_holds_read_only_copies(name):
    arity, build = TRACKS[name]
    given = [np.arange(1.0, 6.0) for _ in range(arity)]
    track = build(*given)
    assert len(track) == 5
    for arr in given:
        assert arr.flags.writeable  # the caller's array is left alone
    held = [v for v in vars(track).values() if isinstance(v, np.ndarray)]
    assert len(held) == arity
    for arr in held:
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, g) for g in given)
        with pytest.raises(ValueError):
            arr[0] = 0


def test_a_frozen_array_that_owns_its_memory_is_held_uncopied():
    """A producer that freezes what it made hands it over; a read-only view or another dtype is copied."""
    owned = np.arange(5.0)
    owned.setflags(write=False)
    view = np.arange(6.0)[1:]
    view.setflags(write=False)
    ints = np.arange(5)
    ints.setflags(write=False)
    d = Decomposition(START, owned, view, ints)
    assert d.trend is owned
    assert not np.shares_memory(d.fluctuation, view) and not np.shares_memory(d.slope, ints)
    assert d.slope.dtype == float and not d.slope.flags.writeable


@pytest.mark.parametrize("name", [n for n, (arity, _) in TRACKS.items() if arity > 1])
def test_track_rejects_unequal_lengths(name):
    arity, build = TRACKS[name]
    for short in range(arity):
        arrays = [np.ones(3 if i == short else 4) for i in range(arity)]
        with pytest.raises(ValueError, match="equal length"):
            build(*arrays)


def test_mask_flags_are_boolean():
    assert DaylightMask(START, [1, 0, 2], 0.0).flags.tolist() == [True, False, True]


def test_score_rejects_a_band_on_another_grid():
    track = ForecastTrack(START, 60, np.ones(4), np.ones(4))
    shifted = BandTrack(START + timedelta(minutes=1), np.zeros(4), np.full(4, 2.0), np.ones(4))
    with pytest.raises(ValueError, match="start_time"):
        score(track, shifted, all_daylight(4))
    with pytest.raises(ValueError, match="lengths"):
        score(track, BandTrack(START, np.zeros(4), np.ones(4), np.ones(4)), all_daylight(3))


def test_a_mask_keeps_its_series_start_time():
    series = IrradianceSeries(START, np.array([0.0, 9.0, np.nan]))
    mask = daylight_mask(series)
    assert mask.start_time == START
    assert mask == DaylightMask(START, [False, True, False], mask.eps_day)


@pytest.mark.parametrize("call", ["score", "calibrate_alpha", "daylight_errors"])
def test_a_mask_of_another_day_is_refused(call):
    """A mask matched on length alone: tracks one day later were scored against the wrong day's flags."""
    _, track, vol, mask, band = run_pipeline_with_band(days=3, regime="broken", seed=3)
    later = track.start_time + timedelta(days=1)
    track, vol, band = (replace(t, start_time=later) for t in (track, vol, band))
    calls = {
        "score": lambda: score(track, band, mask),
        "calibrate_alpha": lambda: calibrate_alpha(track, vol, mask, len(track)),
        "daylight_errors": lambda: daylight_errors(track, mask),
    }
    with pytest.raises(ValueError, match="^tracks are not aligned: start_time differs$"):
        calls[call]()


YEAR = SynthConfig(days=365, cloud_regime="broken", seed=1)


@pytest.fixture(scope="module")
def year():
    """A year of minutes with 3% of samples gapped, through every stage."""
    values = generate(YEAR).values.copy()
    values[np.random.default_rng(1).random(values.size) < 0.03] = np.nan
    y = SimpleNamespace(series=IrradianceSeries(START, values))
    y.fit = extract_trend(y.series)
    y.track = trend_forecast(y.series, y.fit)
    y.vol = volatility_track(y.track)
    y.mask = daylight_mask(y.series)
    return y


# Peak tracemalloc memory of each producer on that year, in tracks of 8 bytes a
# sample: the arrays it hands over, its temporaries, and some slack. Copying the
# arrays it made into the track would add one track a field (1/8 for flags).
PEAKS = {
    "generate": (4.25, lambda y: generate(YEAR)),  # was 5.25
    "daylight_mask": (0.2, lambda y: daylight_mask(y.series)),  # was 0.25
    "trend_forecast": (2.25, lambda y: trend_forecast(y.series, y.fit)),  # was 3.0
    "volatility_track": (3.25, lambda y: volatility_track(y.track)),  # was 6.0
    "fixed_band": (3.25, lambda y: fixed_band(y.track, y.vol)),  # was 4.25
    "calibrated_band": (  # was 4.5
        3.5, lambda y: calibrated_band(y.track, y.vol, y.mask, window_days=7, recal_every=60)
    ),
}


@pytest.mark.parametrize("name", PEAKS)
def test_a_producer_hands_over_the_arrays_it_made_uncopied(name, year):
    bound, produce = PEAKS[name]
    tracemalloc.start()
    try:
        produced = produce(year)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = [v for v in vars(produced).values() if isinstance(v, np.ndarray)]
    assert all(not arr.flags.writeable for arr in held)
    assert peak <= bound * 8 * len(produced)
