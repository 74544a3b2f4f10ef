import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solarband import synth
from solarband.series import MAX_GRID_MINUTES
from solarband.synth import REGIMES, SynthConfig, generate, solar_elevation_sine


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


@given(
    regime=st.sampled_from(REGIMES),
    seed=st.integers(0, 2**64),
    n=st.integers(1, 20_000),
)
@example(regime="broken", seed=3, n=synth._CHUNK - 1)
@example(regime="broken", seed=4, n=synth._CHUNK)
@example(regime="clear", seed=5, n=synth._CHUNK + 1)
@example(regime="overcast", seed=6, n=3 * synth._CHUNK)
@settings(max_examples=80, deadline=None, database=None)
def test_cloud_factor_is_the_per_minute_loop_bit_for_bit(regime, seed, n):
    cfg = SynthConfig(cloud_regime=regime, seed=seed)
    assert synth._cloud_factor(cfg, n).tobytes() == reference_cloud_factor(cfg, n).tobytes()


@pytest.mark.parametrize("regime", REGIMES)
def test_cloud_factor_is_the_per_minute_loop_over_a_year(regime):
    cfg = SynthConfig(cloud_regime=regime, seed=2021)
    n = 365 * 1440
    assert synth._cloud_factor(cfg, n).tobytes() == reference_cloud_factor(cfg, n).tobytes()


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
