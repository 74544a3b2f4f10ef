import numpy as np
import pytest
from conftest import START, make_series
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_trend_forecast

from solarband.decomposition import Decomposition, extract_trend
from solarband.forecast import trend_forecast
from solarband.series import NonFiniteError


def _trend_track(values, window=30, horizon=60):
    s = make_series(values)
    return trend_forecast(s, extract_trend(s, window), horizon)


def test_constant_series_predicts_constant():
    track = _trend_track(np.full(200, 420.0))
    defined = ~np.isnan(track.predicted)
    assert defined.any()
    assert np.allclose(track.predicted[defined], 420.0, atol=1e-9)


def test_affine_series_zero_error():
    k = np.arange(400, dtype=float)
    values = 50.0 + 0.25 * k
    track = _trend_track(values)
    defined = ~np.isnan(track.predicted)
    assert np.abs(track.predicted[defined] - values[defined]).max() <= 1e-9


def test_steep_rampdown_clamps_to_zero():
    values = np.clip(1000.0 - 10.0 * np.arange(300, dtype=float), 0, None)
    track = _trend_track(values, window=20)
    # Once the local line extrapolates below zero the prediction is exactly 0.
    assert (track.predicted[~np.isnan(track.predicted)] == 0.0).any()
    assert np.nanmin(track.predicted) == 0.0


def test_predictions_nonnegative():
    rng = np.random.default_rng(21)
    values = rng.uniform(0, 100, 500)
    track = _trend_track(values, window=15)
    assert np.nanmin(track.predicted) >= 0.0


def test_causality_of_trend_forecast():
    rng = np.random.default_rng(8)
    values = rng.uniform(0, 600, 300)
    before = _trend_track(values, window=25, horizon=60)
    tampered = values.copy()
    tampered[200:] = rng.uniform(0, 600, 100)
    after = _trend_track(tampered, window=25, horizon=60)
    # predicted[t] depends only on samples at times <= t - horizon
    assert np.array_equal(
        before.predicted[:260], after.predicted[:260], equal_nan=True
    )


def test_mismatched_decomposition_rejected():
    s1 = make_series(np.ones(100))
    s2 = make_series(np.ones(120))
    d2 = extract_trend(s2, 10)
    with pytest.raises(ValueError):
        trend_forecast(s1, d2, 60)
    s3 = make_series(np.ones(100), start=START.replace(hour=6))
    d3 = extract_trend(s3, 10)
    with pytest.raises(ValueError):
        trend_forecast(s1, d3, 60)


def test_horizon_validation():
    s = make_series(np.ones(100))
    with pytest.raises(ValueError):
        trend_forecast(s, extract_trend(s, 10), 0)


def test_an_extrapolation_beyond_double_range_is_refused():
    """Slopes of +-1e306 a minute carried 1000 minutes: inf, or a negative inf clamped to 0."""
    values = np.tile([0.0, 1e306], 600)
    s = make_series(values)
    d = extract_trend(s, 2)
    assert np.isfinite(d.trend[1:]).all()
    with pytest.raises(NonFiniteError, match="extrapolated 1000 minutes"):
        trend_forecast(s, d, 1000)
    assert np.isfinite(trend_forecast(s, d, 1).predicted[2:]).all()


def _lines(kind, n, seed):
    """Trend and slope tracks: NaN of either sign where undefined, slopes of +-1e306 if huge."""
    rng = np.random.default_rng(seed)
    trend, slope = rng.uniform(-50.0, 1200.0, n), rng.normal(0.0, 5.0, n)
    if kind == "huge":
        far = rng.random(n) < 0.05
        slope[far] = rng.choice([-1e306, 1e306], far.sum())
    undefined = rng.random(n) < 0.2
    trend[undefined], slope[undefined] = np.nan, -np.nan
    trend[rng.random(n) < 0.05] = -np.nan
    return Decomposition(START, trend, np.full(n, np.nan), slope)


# Lines overflow from samples 70, 150 and 300; the error names the first.
@example(n=410, horizon=10, seed=0, kind="plain", overflows=(70, 150, 300))
@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 400), horizon=st.integers(1, 410), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["plain", "huge"]), overflows=st.just(()))
def test_the_forecast_is_the_whole_array_extrapolation(n, horizon, seed, kind, overflows):
    """Predicted's bytes, NaN payloads included, or the error naming the first overflowing line."""
    decomposition = _lines(kind, n, seed)
    if overflows:
        slope = decomposition.slope.copy()
        slope[list(overflows)] = 1.7e308
        decomposition = Decomposition(START, decomposition.trend, decomposition.fluctuation, slope)
    try:
        got = trend_forecast(make_series(np.zeros(n)), decomposition, horizon).predicted.tobytes()
    except NonFiniteError as err:
        got = str(err)
    assert got == reference_trend_forecast(decomposition, horizon)
