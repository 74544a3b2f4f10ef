import numpy as np
import pytest

from solarband.series import MAX_GRID_MINUTES
from solarband.synth import SynthConfig, generate, solar_elevation_sine


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
