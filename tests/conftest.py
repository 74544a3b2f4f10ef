"""Shared builders for the test suite."""

from datetime import datetime, timezone
from unittest import mock

import numpy as np

from solarband.bands import calibrated_band
from solarband.decomposition import extract_trend
from solarband.forecast import trend_forecast
from solarband.risk import volatility_track
from solarband.series import DaylightMask, IrradianceSeries, daylight_mask
from solarband.synth import SynthConfig, generate

START = datetime(2021, 3, 1, tzinfo=timezone.utc)


def usable_cpus(cpus):
    """Patch the CPUs this process may use, as ``series.in_blocks`` reads them, to ``cpus``.

    ``in_blocks`` shares its blocks over that many threads at most, one of them the caller.
    """
    return mock.patch("os.sched_getaffinity", lambda pid: set(range(cpus)), create=True)


def make_series(values, start=START):
    return IrradianceSeries(start_time=start, values=np.asarray(values, dtype=float))


def all_daylight(n):
    return DaylightMask(start_time=START, flags=np.ones(n, dtype=bool), eps_day=0.0)


def run_pipeline(days, regime, seed, window=120, horizon=60, eps_day=5.0):
    """synth -> decomposition -> trend forecast -> volatility -> mask."""
    cfg = SynthConfig(days=days, cloud_regime=regime, seed=seed)
    series = generate(cfg)
    track = trend_forecast(series, extract_trend(series, window), horizon)
    vol = volatility_track(track)
    mask = daylight_mask(series, eps_day)
    return series, track, vol, mask


def run_pipeline_with_band(days, regime, seed, **band_kwargs):
    series, track, vol, mask = run_pipeline(days, regime, seed)
    band = calibrated_band(track, vol, mask, **band_kwargs)
    return series, track, vol, mask, band
