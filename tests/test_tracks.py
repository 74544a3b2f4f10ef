"""Every track type freezes a copy of its arrays and keeps them aligned."""

from datetime import timedelta

import numpy as np
import pytest
from conftest import START, all_daylight

from solarband.bands import BandTrack
from solarband.decomposition import Decomposition
from solarband.forecast import ForecastTrack
from solarband.report import score
from solarband.risk import VolatilityTrack
from solarband.series import DaylightMask, IrradianceSeries

# Each builder takes the track's array fields in order; the number is how many.
TRACKS = {
    "IrradianceSeries": (1, lambda a: IrradianceSeries(START, a)),
    "DaylightMask": (1, lambda a: DaylightMask(a, 5.0)),
    "Decomposition": (3, lambda a, b, c: Decomposition(START, a, b, c, 120)),
    "ForecastTrack": (2, lambda a, b: ForecastTrack(START, 60, a, b)),
    "VolatilityTrack": (3, lambda a, b, c: VolatilityTrack(START, 60, a, b, c)),
    "BandTrack": (3, lambda a, b, c: BandTrack(START, a, b, c, None, None)),
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


@pytest.mark.parametrize("name", [n for n, (arity, _) in TRACKS.items() if arity > 1])
def test_track_rejects_unequal_lengths(name):
    arity, build = TRACKS[name]
    for short in range(arity):
        arrays = [np.ones(3 if i == short else 4) for i in range(arity)]
        with pytest.raises(ValueError, match="equal length"):
            build(*arrays)


def test_mask_flags_are_boolean():
    assert DaylightMask([1, 0, 2], 0.0).flags.tolist() == [True, False, True]


def test_score_rejects_a_band_on_another_grid():
    track = ForecastTrack(START, 60, np.ones(4), np.ones(4))
    shifted = BandTrack(START + timedelta(minutes=1), np.zeros(4), np.full(4, 2.0), np.ones(4),
                        None, None)
    with pytest.raises(ValueError, match="start_time"):
        score(track, shifted, all_daylight(4))
    with pytest.raises(ValueError, match="lengths"):
        score(track, BandTrack(START, np.zeros(4), np.ones(4), np.ones(4), None, None),
              all_daylight(3))
