"""Every track type freezes its arrays, copied unless already frozen, and keeps them aligned."""

from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from conftest import START, all_daylight, run_pipeline_with_band

from solarband.bands import BandTrack, calibrate_alpha
from solarband.decomposition import Decomposition
from solarband.forecast import ForecastTrack
from solarband.report import score
from solarband.risk import VolatilityTrack, daylight_errors
from solarband.series import DaylightMask, IrradianceSeries, daylight_mask

# Each builder takes the track's array fields in order; the number is how many.
TRACKS = {
    "IrradianceSeries": (1, lambda a: IrradianceSeries(START, a)),
    "DaylightMask": (1, lambda a: DaylightMask(START, a, 5.0)),
    "Decomposition": (3, lambda a, b, c: Decomposition(START, a, b, c)),
    "ForecastTrack": (2, lambda a, b: ForecastTrack(START, 60, a, b)),
    "VolatilityTrack": (3, lambda a, b, c: VolatilityTrack(START, 60, a, b, c)),
    "BandTrack": (3, lambda a, b, c: BandTrack(START, a, b, c)),
}


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
    assert mask != replace(mask, start_time=START + timedelta(days=1))
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
