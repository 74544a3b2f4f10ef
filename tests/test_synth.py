import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solarband import synth
from solarband.series import MAX_GRID_MINUTES
from solarband.synth import REGIMES, SynthConfig, generate


def test_same_seed_bitwise_identical():
    cfg = SynthConfig(days=2, cloud_regime="broken", seed=99)
    a = generate(cfg)
    b = generate(cfg)
    assert a == b
    assert a.values.tolist() == b.values.tolist()


def test_different_seed_differs():
    a = generate(SynthConfig(days=1, cloud_regime="broken", seed=1))
    b = generate(SynthConfig(days=1, cloud_regime="broken", seed=2))
    assert not np.array_equal(a.values, b.values)


def test_bounds_and_exact_night_zeros():
    for regime in ("clear", "broken", "overcast"):
        cfg = SynthConfig(days=2, cloud_regime=regime, seed=5, clear_sky_peak=900.0)
        s = generate(cfg)
        assert len(s) == 2 * 1440
        assert float(s.values.min()) >= 0.0
        assert float(s.values.max()) <= 900.0
        minute = np.arange(1440, dtype=float)
        for d in range(2):
            doy = (cfg.day_of_year - 1 + d) % 365 + 1
            night = solar_elevation_sine(cfg.latitude, doy, minute) <= 0.0
            assert (s.values[d * 1440 : (d + 1) * 1440][night] == 0.0).all()
            assert night.any()


def test_clear_regime_peaks_near_clear_sky_peak():
    # equator at the spring equinox: declination 0, so solar noon hits
    # elevation 90 degrees and the clear-sky curve reaches the peak
    cfg = SynthConfig(
        latitude=0.0, day_of_year=80, days=1, clear_sky_peak=1000.0, cloud_regime="clear", seed=3
    )
    s = generate(cfg)
    assert abs(float(s.values.max()) - 1000.0) / 1000.0 <= 0.02


def test_clear_day_is_smooth_bell():
    cfg = SynthConfig(latitude=45.0, day_of_year=172, days=1, cloud_regime="clear", seed=8)
    s = generate(cfg)
    day = s.values[s.values > 0]
    peak_at = int(np.argmax(day))
    assert 0 < peak_at < day.size - 1
    # increments stay small relative to the peak on a clear day
    assert np.abs(np.diff(day)).max() < 0.02 * day.max()


def _daytime_ramps(series):
    day = series.values > 0
    interior = day[1:] & day[:-1]
    return np.abs(np.diff(series.values))[interior]


def test_broken_regime_has_larger_ramps_than_clear():
    base = dict(latitude=45.0, day_of_year=172, days=3, clear_sky_peak=1000.0, seed=12)
    clear = generate(SynthConfig(cloud_regime="clear", **base))
    broken = generate(SynthConfig(cloud_regime="broken", **base))
    assert np.quantile(_daytime_ramps(broken), 0.95) > np.quantile(_daytime_ramps(clear), 0.95)


def test_overcast_is_dim():
    base = dict(latitude=45.0, day_of_year=172, days=1, clear_sky_peak=1000.0, seed=12)
    clear = generate(SynthConfig(cloud_regime="clear", **base))
    overcast = generate(SynthConfig(cloud_regime="overcast", **base))
    assert overcast.values.max() < 0.5 * clear.values.max()


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        SynthConfig(latitude=120.0)
    with pytest.raises(ValueError):
        SynthConfig(day_of_year=0)
    with pytest.raises(ValueError):
        SynthConfig(days=0)
    # one day more than the readers' span cap would write a file no reader accepts
    assert SynthConfig(days=MAX_GRID_MINUTES // 1440).days == 1830
    with pytest.raises(ValueError, match=r"days must be in 1\.\.1830"):
        SynthConfig(days=MAX_GRID_MINUTES // 1440 + 1)
    for peak in (0.0, float("nan")):
        with pytest.raises(ValueError):
            SynthConfig(clear_sky_peak=peak)
    with pytest.raises(ValueError):
        SynthConfig(cloud_regime="foggy")


def test_infinite_peak_and_negative_seed_rejected_by_name():
    """inf * 0 at night made NaN samples; a negative seed reached numpy's own error."""
    with pytest.raises(ValueError, match="clear_sky_peak must be finite"):
        SynthConfig(clear_sky_peak=float("inf"))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SynthConfig(seed=-1)
    SynthConfig(clear_sky_peak=1e308, seed=0)  # the largest finite peak and seed 0 stay valid


# ---------------------------------------------------------------------------
# cloud process against the per-minute loop
# ---------------------------------------------------------------------------


def reference_cloud_factor(cfg, n):
    """The per-minute loop the cloud process was first written as."""
    rng = np.random.default_rng(cfg.seed)
    shocks = rng.standard_normal(n)
    factor = np.empty(n)

    if cfg.cloud_regime == "broken":
        p = synth._BROKEN
        bright = True
        remaining = rng.exponential(p["dwell_high"])
        noise = 0.0
        for k in range(n):
            remaining -= 1.0
            while remaining <= 0.0:
                bright = not bright
                remaining += rng.exponential(p["dwell_high"] if bright else p["dwell_low"])
            level = p["high"] if bright else p["low"]
            noise = p["rho"] * noise + p["sigma"] * shocks[k]
            factor[k] = min(max(level + noise, p["lo"]), p["hi"])
        return factor

    p = synth._CLEAR if cfg.cloud_regime == "clear" else synth._OVERCAST
    noise = 0.0
    for k in range(n):
        noise = p["rho"] * noise + p["sigma"] * shocks[k]
        factor[k] = min(max(p["level"] + noise, p["lo"]), p["hi"])
    return factor


def lane_of(regime):
    return synth._lane(synth._PROCESS[regime]["rho"])


@pytest.mark.parametrize("regime, lane", [("clear", 593), ("broken", 280), ("overcast", 2048)])
def test_each_lane_is_the_shortest_that_forgets_as_much_as_the_overcast_lane(regime, lane):
    # a wrong lane start shrinks by rho**lane: by at least 0.97**2048, and by less one minute shorter
    rho = synth._PROCESS[regime]["rho"]
    assert lane_of(regime) == lane
    assert rho**lane <= 0.97**2048 < rho ** (lane - 1)
    assert lane_of("overcast") == synth._LANE


def at_the_lane_edges(test):
    """Examples one minute short of, at and past each regime's lane, and 5 lanes and 7 minutes."""
    seeds = itertools.count(7)
    for regime in REGIMES:
        lane = lane_of(regime)
        for n in (lane - 1, lane, lane + 1, 5 * lane + 7):
            test = example(regime=regime, seed=next(seeds), n=n)(test)
    return test


@given(
    regime=st.sampled_from(REGIMES),
    seed=st.integers(0, 2**64),
    n=st.integers(1, 20_000),
)
@example(regime="broken", seed=3, n=1)
@at_the_lane_edges
@settings(max_examples=80, deadline=None, database=None)
def test_cloud_factor_is_the_per_minute_loop_bit_for_bit(regime, seed, n):
    cfg = SynthConfig(cloud_regime=regime, seed=seed)
    assert synth._cloud_factor(cfg, n).tobytes() == reference_cloud_factor(cfg, n).tobytes()


@pytest.mark.parametrize("regime", REGIMES)
def test_cloud_factor_is_the_per_minute_loop_over_a_year(regime):
    cfg = SynthConfig(cloud_regime=regime, seed=2021)
    n = 365 * 1440
    assert synth._cloud_factor(cfg, n).tobytes() == reference_cloud_factor(cfg, n).tobytes()


def test_lanes_that_cannot_merge_rerun_the_whole_track(monkeypatch):
    # 0.97**8 is about 0.78: lanes of 3, 2 and 8 minutes cannot forget a wrong start,
    # so the lanes run again from the corrected starts until every start agrees
    monkeypatch.setattr(synth, "_LANE", 8)
    widths = []  # the lane length of each call: every regime's lane is read from _LANE at call time
    ar1_noise = synth._ar1_noise

    def recorded(by_lane, rho, sigma):
        widths.append(by_lane.shape[1])
        return ar1_noise(by_lane, rho, sigma)

    monkeypatch.setattr(synth, "_ar1_noise", recorded)
    for regime, lane in (("clear", 3), ("broken", 2), ("overcast", 8)):
        cfg = SynthConfig(cloud_regime=regime, seed=13)
        for n in (1, lane - 1, lane, lane + 1, 47, 1000):
            got, want = synth._cloud_factor(cfg, n), reference_cloud_factor(cfg, n)
            assert got.tobytes() == want.tobytes(), (regime, n)
            assert widths.pop() == lane, (regime, n)


def solar_elevation_sine(latitude, day_of_year, minute_of_day):
    """sin(solar elevation) over one day's minutes from declination and hour angle, longitude 0."""
    declination = 0.409 * math.sin(2.0 * math.pi * (day_of_year - 80) / 365.0)
    cos_hour = np.cos(np.radians(0.25 * (minute_of_day - 720.0)))  # 15 deg/h
    lat = math.radians(latitude)
    return math.sin(lat) * math.sin(declination) + math.cos(lat) * math.cos(declination) * cos_hour


def reference_clear_sky_curve(cfg):
    """The per-day loop the clear-sky curve was first written as."""
    minute_of_day = np.arange(1440, dtype=float)
    days = []
    for d in range(cfg.days):
        doy = (cfg.day_of_year - 1 + d) % 365 + 1
        elevation = solar_elevation_sine(cfg.latitude, doy, minute_of_day)
        days.append(cfg.clear_sky_peak * np.maximum(0.0, elevation))
    return np.concatenate(days)


@given(
    latitude=st.floats(-90.0, 90.0),
    day_of_year=st.integers(1, 366),
    days=st.integers(1, 40),
    peak=st.floats(0.0, 1e308, exclude_min=True),
)
@example(latitude=90.0, day_of_year=172, days=3, peak=1e308)
@example(latitude=-90.0, day_of_year=355, days=40, peak=5e-324)
@example(latitude=-0.0, day_of_year=366, days=2, peak=1000.0)
@settings(max_examples=60, deadline=None, database=None)
def test_clear_sky_curve_is_the_per_day_loop_bit_for_bit(latitude, day_of_year, days, peak):
    cfg = SynthConfig(latitude=latitude, day_of_year=day_of_year, days=days, clear_sky_peak=peak)
    assert synth.clear_sky_curve(cfg).tobytes() == reference_clear_sky_curve(cfg).tobytes()


def reference_broken_levels(rng, n):
    """The dwell process with one scalar rng.exponential call per dwell."""
    p = synth._BROKEN
    bright = True
    remaining = rng.exponential(p["dwell_high"])
    states, lengths = [], []
    start = k = 0
    while True:
        held = max(math.ceil(remaining) - 1, 0)
        k += held
        if k >= n:
            break
        remaining = (remaining - held) - 1.0
        states.append(bright)
        lengths.append(k - start)
        while remaining <= 0.0:
            bright = not bright
            remaining += rng.exponential(p["dwell_high"] if bright else p["dwell_low"])
        start = k
        k += 1
    states.append(bright)
    lengths.append(n - start)
    return np.repeat(np.where(states, p["high"], p["low"]), lengths)


@given(seed=st.integers(0, 2**64), n=st.integers(1, 200_000))
@example(seed=17, n=150_000)  # over 10,000 dwells: past two blocks of draws
@settings(max_examples=40, deadline=None, database=None)
def test_broken_levels_equal_one_scalar_draw_per_dwell(seed, n):
    levels = synth._broken_levels(np.random.default_rng(seed), n)
    assert levels.tobytes() == reference_broken_levels(np.random.default_rng(seed), n).tobytes()


class CraftedStream:
    """One list of standard exponential draws, then 1.0s, served in order through both
    calls the dwell process makes: a block of draws, or one draw times its scale."""

    def __init__(self, draws):
        self._draws = itertools.chain(draws, itertools.repeat(1.0))

    def standard_exponential(self, size):
        return np.fromiter(self._draws, float, count=size)

    def exponential(self, scale):
        return scale * next(self._draws)


# Draw i is a bright dwell of 20 * draw minutes when i is even, a dim one of 8 * draw when odd.
CRAFTED_DRAWS = {
    # remaining starts at 0.0, so no minute is held before the first switch
    "first-draw-zero": [0.0, 0.5, 0.25],
    "first-two-draws-zero": [0.0, 0.0, 0.125],
    # several switches in one minute, and subnormal dwells that round away in r - 1.0
    "zeros-and-subnormals-mid-run": [1.0, 0.0, 0.0, 0.0, 5e-324, 0.0, 2.0**-1022, 0.75],
    # remaining exactly on an integer: 5, 4, 30, 3, then a sum that lands on 0.0
    "integer-remaining": [0.25, 0.5, 1.5, 0.375, 0.025, 0.0625, 0.1],
    # one dwell past any n here, the next far past it
    "long-dwells": [0.3, 0.8, 1e6, 1e300],
}


@pytest.mark.parametrize("draws_per_block", [1, 2, 3, 4, synth._DRAWS])
@pytest.mark.parametrize("name", CRAFTED_DRAWS)
def test_crafted_draws_equal_one_scalar_draw_per_dwell(monkeypatch, name, draws_per_block):
    # blocks of 1 to 4 draws end mid-run, on both parities of the draws taken;
    # n from 1 to 80 puts the end of the track on and beside each switching minute
    monkeypatch.setattr(synth, "_DRAWS", draws_per_block)
    draws = CRAFTED_DRAWS[name]
    for n in range(1, 81):
        levels = synth._broken_levels(CraftedStream(draws), n)
        assert levels.tobytes() == reference_broken_levels(CraftedStream(draws), n).tobytes(), n


def test_the_dwells_of_a_long_track_cross_a_block_of_draws():
    levels = synth._broken_levels(np.random.default_rng(17), 150_000)
    switches = int(np.count_nonzero(np.diff(levels)))  # each switch took a draw
    assert switches > 2 * synth._DRAWS


# sha256 of generate(cfg).values.tobytes(), recorded from the per-minute loop
PINNED = [
    (dict(latitude=-33.9, day_of_year=366, days=3, cloud_regime="clear", seed=11),
     "e0a01e7dd065ee27f1aafcffdcf42be08a9f8cbc3db87a121de4cb9b43bd755b"),
    (dict(latitude=48.7, day_of_year=150, days=2, cloud_regime="broken", seed=7),
     "2c5492748542602ae9bf2a2b075dd740c18e8c554b72465fce0f25a956b92204"),
    (dict(latitude=-62.5, day_of_year=355, days=14, cloud_regime="broken", seed=2**40 + 3),
     "55a468ede56f5c117e521d75d5475b49e044e8118f0d5cfd37a3db4e148f8990"),
    (dict(latitude=12.0, day_of_year=366, days=2, cloud_regime="overcast", seed=5),
     "d12f2fef57de589179ad03929aebd459039a5e182e90a656f32b99b9d717c696"),
]


@pytest.mark.parametrize("fields, digest", PINNED)
def test_generate_bytes_are_pinned(fields, digest):
    values = generate(SynthConfig(**fields)).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_generate_peak_memory_stays_within_six_tracks():
    """A whole-track list of Python floats would cost about 4 tracks more."""
    cfg = SynthConfig(days=365, cloud_regime="broken", seed=1)
    tracemalloc.start()
    try:
        n = len(generate(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n
