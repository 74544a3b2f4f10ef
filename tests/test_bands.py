import numpy as np
import pytest
from conftest import START, all_daylight, make_series, run_pipeline

from solarband.bands import (
    UncalibratableWindowError,
    calibrate_alpha,
    calibrated_band,
    calibration_events,
    fixed_band,
    inside_band,
)
from solarband.forecast import ForecastTrack
from solarband.risk import VolatilityTrack
from solarband.series import DaylightMask


def tracks_from_ratios(ratios, horizon=60, vol_pred_scale=1.0):
    """Tracks whose calibration ratios are bitwise ``ratios``.

    predicted is 0 so realized - predicted is exact, and vol_pred 1 (or a
    power of two) keeps the ratio division exact too.
    """
    ratios = np.asarray(ratios, dtype=float)
    n = ratios.size
    predicted = np.zeros(n)
    vol_pred = np.full(n, vol_pred_scale)
    realized = ratios * vol_pred_scale
    diff = realized - predicted
    f = ForecastTrack(start_time=START, horizon=horizon, predicted=predicted, realized=realized)
    v = VolatilityTrack(
        start_time=START, horizon=horizon, diff=diff, vol=np.abs(diff), vol_pred=vol_pred
    )
    return f, v, all_daylight(n)


def brute_force_alpha(ratios, target):
    n = len(ratios)
    for candidate in sorted(ratios):
        if sum(r <= candidate for r in ratios) / n >= target:
            return candidate
    raise AssertionError("unreachable: the largest ratio always covers everything")


def test_fixed_band_zero_volatility_collapses():
    predicted = np.array([120.0, 250.0, 37.5])
    f = ForecastTrack(START, 60, predicted, predicted.copy())
    zeros = np.zeros(3)
    v = VolatilityTrack(START, 60, zeros, zeros, zeros)
    band = fixed_band(f, v)
    assert np.array_equal(band.lower, predicted)
    assert np.array_equal(band.upper, predicted)


def test_fixed_band_frontier_formula():
    predicted = np.array([200.0])
    vol_pred = np.array([50.0])
    f = ForecastTrack(START, 60, predicted, np.array([np.nan]))
    v = VolatilityTrack(START, 60, np.array([np.nan]), np.array([np.nan]), vol_pred)
    band = fixed_band(f, v)
    assert band.lower[0] == 150.0 and band.upper[0] == 250.0


def test_fixed_band_clamps_lower_at_zero():
    f = ForecastTrack(START, 60, np.array([30.0]), np.array([np.nan]))
    v = VolatilityTrack(START, 60, np.array([np.nan]), np.array([np.nan]), np.array([50.0]))
    band = fixed_band(f, v)
    assert band.lower[0] == 0.0 and band.upper[0] == 80.0


def test_calibrate_all_ratios_one():
    f, v, mask = tracks_from_ratios(np.ones(50))
    assert calibrate_alpha(f, v, mask, at_index=50) == 1.0


def test_calibrate_frozen_three_ratio_case():
    # coverage at 1.0 is 2/3 < 0.68, so the minimal multiplier is 2.0
    f, v, mask = tracks_from_ratios([0.5, 1.0, 2.0])
    assert calibrate_alpha(f, v, mask, at_index=3, target=0.68) == 2.0


def test_calibrate_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        ratios = rng.uniform(0.01, 4.0, n)
        f, v, mask = tracks_from_ratios(ratios)
        alpha = calibrate_alpha(f, v, mask, at_index=n, target=0.68)
        assert alpha == brute_force_alpha(ratios.tolist(), 0.68)


def test_calibrated_coverage_is_tight():
    rng = np.random.default_rng(102)
    ratios = rng.uniform(0.01, 3.0, 100)
    f, v, mask = tracks_from_ratios(ratios)
    alpha = calibrate_alpha(f, v, mask, at_index=100, target=0.68)
    coverage = np.mean(ratios <= alpha)
    assert coverage >= 0.68
    smaller = [r for r in ratios if r < alpha]
    if smaller:
        assert np.mean(ratios <= max(smaller)) < 0.68


def test_calibrate_errors():
    f, v, mask = tracks_from_ratios(np.ones(10))
    with pytest.raises(UncalibratableWindowError):
        calibrate_alpha(f, v, mask, at_index=0)
    with pytest.raises(ValueError):
        calibrate_alpha(f, v, mask, at_index=10, target=1.0)
    with pytest.raises(ValueError):
        calibrate_alpha(f, v, mask, at_index=10, target=0.0)
    with pytest.raises(ValueError):
        calibrate_alpha(f, v, mask, at_index=11)
    # vol_pred == 0 records are ineligible
    v0 = VolatilityTrack(START, 60, v.diff, v.vol, np.zeros(10))
    with pytest.raises(UncalibratableWindowError):
        calibrate_alpha(f, v0, mask, at_index=10)


def test_coverage_monotone_in_alpha():
    rng = np.random.default_rng(103)
    predicted = rng.uniform(50, 300, 400)
    realized = predicted + rng.normal(0, 40, 400)
    realized = np.clip(realized, 0, None)
    vol_pred = rng.uniform(1, 50, 400)
    previous = -1.0
    for alpha in (0.1, 0.5, 1.0, 1.5, 2.5, 5.0):
        lower = np.clip(predicted - alpha * vol_pred, 0, None)
        covered = float(np.mean(inside_band(realized, lower, predicted + alpha * vol_pred)))
        assert covered >= previous
        previous = covered


def test_calibrated_band_equals_fixed_when_ratios_are_one():
    f, v, mask = tracks_from_ratios(np.ones(3000), vol_pred_scale=0.8)
    band = calibrated_band(f, v, mask, recal_every=1440)
    reference = fixed_band(f, v)
    assert np.array_equal(band.lower, reference.lower, equal_nan=True)
    assert np.array_equal(band.upper, reference.upper, equal_nan=True)
    assert (band.alpha == 1.0).all()


def test_warmup_falls_back_to_unit_alpha():
    _, track, vol, mask = run_pipeline(days=3, regime="broken", seed=4)
    band = calibrated_band(track, vol, mask, recal_every=1440)
    events = calibration_events(track, vol, mask, recal_every=1440)
    assert events[0] == (0, None)  # empty first window
    assert (band.alpha[:1440] == 1.0).all()
    assert events[1][1] is not None
    assert (band.alpha[1440:2880] == events[1][1]).all()


def test_never_calibratable_mask_reproduces_fixed_band():
    _, track, vol, mask = run_pipeline(days=4, regime="broken", seed=5)
    dark = DaylightMask(flags=np.zeros(len(track), dtype=bool), eps_day=0.0)
    band = calibrated_band(track, vol, dark)
    reference = fixed_band(track, vol)
    assert np.array_equal(band.lower, reference.lower, equal_nan=True)
    assert np.array_equal(band.upper, reference.upper, equal_nan=True)


def test_scale_equivariance():
    # powers of two keep the float arithmetic exact
    rng = np.random.default_rng(104)
    ratios = rng.uniform(0.1, 3.0, 300)
    f, v, mask = tracks_from_ratios(ratios)
    c = 4.0
    f_scaled = ForecastTrack(START, 60, c * f.predicted, c * f.realized)
    v_scaled = VolatilityTrack(START, 60, c * v.diff, c * v.vol, c * v.vol_pred)
    alpha = calibrate_alpha(f, v, mask, at_index=300)
    alpha_scaled = calibrate_alpha(f_scaled, v_scaled, mask, at_index=300)
    assert alpha == alpha_scaled
    band = calibrated_band(f, v, mask)
    band_scaled = calibrated_band(f_scaled, v_scaled, mask)
    assert np.array_equal(band_scaled.lower, c * band.lower, equal_nan=True)
    assert np.array_equal(band_scaled.upper, c * band.upper, equal_nan=True)


def test_band_ordering_in_target():
    _, track, vol, mask = run_pipeline(days=4, regime="broken", seed=6)
    narrow = calibrated_band(track, vol, mask, target=0.5)
    wide = calibrated_band(track, vol, mask, target=0.9)
    assert (narrow.alpha <= wide.alpha).all()
    defined = ~np.isnan(narrow.lower)
    assert (wide.lower[defined] <= narrow.lower[defined]).all()
    assert (narrow.upper[defined] <= wide.upper[defined]).all()


def test_recalibration_grid_is_absolute():
    # Identical data cut at a different start minute must produce the same
    # multipliers at the same wall-clock times, once the lookback window no
    # longer reaches past the cut.
    series, track, vol, mask = run_pipeline(days=6, regime="broken", seed=7)
    offset = 180
    start2 = series.start_time.replace(hour=3)
    f2 = ForecastTrack(start2, track.horizon, track.predicted[offset:], track.realized[offset:])
    v2 = VolatilityTrack(
        start2, track.horizon, vol.diff[offset:], vol.vol[offset:], vol.vol_pred[offset:]
    )
    m2 = DaylightMask(flags=mask.flags[offset:], eps_day=mask.eps_day)
    full = dict(calibration_events(track, vol, mask, window_days=3))
    cut = dict(calibration_events(f2, v2, m2, window_days=3))
    comparable = [k for k in full if k - 3 * 1440 >= offset]
    assert comparable
    for k in comparable:
        assert cut[k - offset] == full[k]


def test_lower_never_exceeds_upper():
    _, track, vol, mask = run_pipeline(days=4, regime="broken", seed=8)
    band = calibrated_band(track, vol, mask)
    defined = ~np.isnan(band.lower)
    assert (band.lower[defined] <= band.upper[defined]).all()
    assert (band.alpha > 0).all()


def test_misaligned_tracks_rejected():
    f, v, mask = tracks_from_ratios(np.ones(10))
    short = VolatilityTrack(START, 60, v.diff[:5], v.vol[:5], v.vol_pred[:5])
    with pytest.raises(ValueError):
        fixed_band(f, short)
    _, other_horizon, _ = tracks_from_ratios(np.ones(10), horizon=30)
    with pytest.raises(ValueError, match="horizon"):
        fixed_band(f, other_horizon)


def test_window_days_below_one_rejected():
    f, v, mask = tracks_from_ratios(np.ones(2 * 1440))
    for window_days in (0, -1):
        with pytest.raises(ValueError, match="window_days") as exc:
            calibrate_alpha(f, v, mask, at_index=1440, window_days=window_days)
        assert not isinstance(exc.value, UncalibratableWindowError)
        with pytest.raises(ValueError, match="window_days"):
            calibrated_band(f, v, mask, window_days=window_days)


def test_band_records_the_events_it_was_built_from():
    _, track, vol, mask = run_pipeline(days=3, regime="broken", seed=4)
    band = calibrated_band(track, vol, mask, window_days=1, recal_every=720)
    assert band.events == tuple(calibration_events(track, vol, mask, window_days=1, recal_every=720))
    assert fixed_band(track, vol).events == ()
