import math
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from conftest import START, all_daylight, make_series, run_pipeline
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_alpha, reference_calibrate, reference_events

from solarband import bands
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
from solarband.series import DaylightMask, NonFiniteError


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


def test_an_upper_frontier_beyond_double_range_is_refused_by_index():
    """predicted + vol_pred overflowed to an inf frontier, with an overflow RuntimeWarning."""
    predicted = np.array([1.0, -1.7e308, 1.7e308])
    nan = np.full(3, np.nan)
    f = ForecastTrack(START, 60, predicted, nan)
    v = VolatilityTrack(START, 60, nan, nan, np.array([1.0, 1.7e308, 1.7e308]))
    with pytest.raises(NonFiniteError, match="^upper frontier at index 2 overflows"):
        fixed_band(f, v)
    # a lower frontier below -1.8e308 is clamped at 0 like any negative one
    band = fixed_band(ForecastTrack(START, 60, predicted[:2], nan[:2]),
                      VolatilityTrack(START, 60, nan[:2], nan[:2], v.vol_pred[:2]))
    assert band.lower.tolist() == [0.0, 0.0] and band.upper.tolist() == [2.0, 0.0]


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
    dark = DaylightMask(track.start_time, np.zeros(len(track), dtype=bool), 0.0)
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
    m2 = DaylightMask(start_time=start2, flags=mask.flags[offset:], eps_day=mask.eps_day)
    full = dict(calibration_events(track, vol, mask, window_days=3))
    cut = dict(calibration_events(f2, v2, m2, window_days=3))
    comparable = [k for k in full if k - 3 * 1440 >= offset]
    assert comparable
    for k in comparable:
        assert cut[k - offset] == full[k]


def test_recal_every_past_int64_gives_no_grid_point():
    _, track, vol, mask = run_pipeline(days=2, regime="broken", seed=4)
    for recal_every in (2**62, 2**63, 2**64, 10**400):  # all but 2**62 once raised IndexError
        assert calibration_events(track, vol, mask, recal_every=recal_every) == []


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


def test_one_pass_builds_the_ratio_record_once(monkeypatch):
    """One calibrate_alpha batch of every grid point, and one _ratios call, per pass."""
    _, track, vol, mask = run_pipeline(days=3, regime="broken", seed=4)
    compute, calibrate, spans, batches = bands._ratios, bands.calibrate_alpha, [], []

    def counting(vol, mask, span):
        spans.append(span)
        return compute(vol, mask, span)

    def batching(forecast, vol, mask, at_index, *args):
        batches.append(at_index)
        return calibrate(forecast, vol, mask, at_index, *args)

    monkeypatch.setattr(bands, "_ratios", counting)
    monkeypatch.setattr(bands, "calibrate_alpha", batching)
    band = calibrated_band(track, vol, mask, window_days=1, recal_every=60)
    assert len(band.events) == 72
    assert len(spans) == 1
    assert len(batches) == 1 and len(batches[0]) == 72


def test_standalone_call_computes_only_its_window(monkeypatch):
    """A call reads its trailing window, not the whole track."""
    f, v, mask = calibration_tracks(10 * 1440, 0, 5, 360, 1080, 0.05, False, 2)
    check, sizes = bands.eligible, []

    def recording(flags, *fields):
        sizes.append(flags.size)
        return check(flags, *fields)

    monkeypatch.setattr(bands, "eligible", recording)
    alpha = calibrate_alpha(f, v, mask, at_index=5 * 1440, window_days=1)
    assert sizes and max(sizes) <= 1440
    assert alpha == reference_calibrate(f, v, mask, 5 * 1440, 1, bands.DEFAULT_TARGET)


# 0.07 * 100 and 0.14 * 100 overshoot their integer (7.000000000000001, 14.000000000000002)
@pytest.mark.parametrize(
    "target, n", [(0.68, 25), (0.6, 5), (0.7, 10), (0.3, 10), (0.5, 2), (0.07, 100), (0.14, 100)]
)
def test_calibrate_exact_rank_boundaries(target, n):
    """Where target * n is an exact integer the rank is that integer, however the product rounds."""
    ratios = np.arange(1, n + 1, dtype=float)
    f, v, mask = tracks_from_ratios(ratios)
    assert calibrate_alpha(f, v, mask, at_index=n, target=target) == round(target * n)


@pytest.mark.parametrize(
    "target, n", [(0.33333333333333337, 3), (0.6666666666666667, 3), (0.4285714285714286, 7)]
)
def test_calibrate_target_just_past_a_boundary_takes_the_next_rank(target, n):
    """target * n rounds down onto an integer rank whose coverage rank / n misses the target."""
    ratios = np.arange(1, n + 1, dtype=float)
    f, v, mask = tracks_from_ratios(ratios)
    rank = math.ceil(target * n)
    assert rank / n < target
    assert calibrate_alpha(f, v, mask, at_index=n, target=target) == rank + 1
    assert calibrate_alpha(f, v, mask, np.array([n]), target=target).tolist() == [rank + 1]


targets = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_calibrate_alpha_is_the_minimal_multiplier(data):
    """Rank - 1 ratios miss the target and rank ratios meet it, ties and exact boundaries included."""
    ratio = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 1e6))
    ratios = data.draw(st.lists(ratio, min_size=1, max_size=200))
    n = len(ratios)
    if n > 1 and data.draw(st.booleans()):
        target = data.draw(st.integers(1, n - 1)) / n  # an exact boundary rank / n
    else:
        target = data.draw(targets)
    f, v, mask = tracks_from_ratios(ratios)
    alpha = calibrate_alpha(f, v, mask, at_index=n, target=target)

    rank = next(r for r in range(1, n + 1) if r / n >= target)
    assert (rank - 1) / n < target
    assert alpha == sorted(ratios)[rank - 1]
    assert sum(r <= alpha for r in ratios) / n >= target
    assert sum(r < alpha for r in ratios) / n < target


def calibration_tracks(n, offset, seed, dawn, dusk, dropout, ties, gap_runs, outage=None):
    """Tracks with jittered night runs, gap runs, dropouts and vol_pred zeros.

    ``outage`` starts a 1.5-day gap, so a 1-day window can fail after a success.
    """
    rng = np.random.default_rng(seed)
    day, minute_of_day = np.divmod(offset + np.arange(n), 1440)
    # day-to-day jitter, so a window edge at night can meet daylight a day back
    dawn = dawn + rng.integers(-90, 91, day[-1] + 1)[day]
    dusk = dusk + rng.integers(-90, 91, day[-1] + 1)[day]
    flags = (dawn <= minute_of_day) & (minute_of_day < dusk) & (rng.random(n) >= dropout)
    vol = rng.exponential(1.0, n)
    if ties:
        vol = np.round(vol * 4) / 4
    vol_pred = rng.uniform(0.0, 2.0, n)
    vol_pred[rng.random(n) < 0.02] = 0.0
    for _ in range(gap_runs):
        lo = int(rng.integers(0, n))
        vol[lo : lo + int(rng.integers(1, 2000))] = np.nan
    if outage is not None:
        vol[outage : outage + 2160] = np.nan
    vol_pred[rng.random(n) < 0.01] = np.nan
    start = START + timedelta(minutes=offset)
    forecast = ForecastTrack(start, 60, np.zeros(n), vol)
    volatility = VolatilityTrack(start, 60, vol, vol, vol_pred)
    return forecast, volatility, DaylightMask(start_time=start, flags=flags, eps_day=0.0)


@st.composite
def calibration_inputs(draw):
    dawn = draw(st.integers(0, 1440))
    return calibration_tracks(
        n=draw(st.one_of(st.integers(1, 3 * 1440), st.integers(1441, 3 * 1440))),  # often past a 1-day window
        offset=draw(st.integers(0, 1439)),
        seed=draw(st.integers(0, 2**32 - 1)),
        dawn=dawn,
        dusk=draw(st.integers(dawn, 1440)),
        dropout=draw(st.sampled_from([0.0, 0.05, 0.5])),
        ties=draw(st.booleans()),
        gap_runs=draw(st.integers(0, 4)),
        outage=draw(st.none() | st.integers(0, 3 * 1440)),
    )


def _hex(events):
    return [(k, None if a is None else a.hex()) for k, a in events]


# Pinned: a grid point every minute or two, so each window edge crosses each dawn, dusk,
# dropout and gap; and an hourly grid through an outage longer than the 1-day window.
@example(calibration_tracks(3 * 1440, 7, 1, 360, 1080, 0.05, False, 2), 1, 1, 0.68)
@example(calibration_tracks(3 * 1440, 1000, 2, 300, 1200, 0.5, True, 3), 2, 2, 0.9)
@example(calibration_tracks(4 * 1440, 0, 3, 360, 1080, 0.05, False, 0, 1800), 60, 1, 0.68)
@settings(max_examples=60, deadline=None, database=None)
@given(
    tracks=calibration_inputs(),
    recal_every=st.one_of(st.sampled_from([1, 2, 7, 60, 1440]), st.integers(1, 1440)),
    window_days=st.one_of(st.just(1), st.integers(1, 10), st.just(10**12)),
    target=st.one_of(st.just(0.68), targets),
)
def test_calibration_events_equal_calibrating_at_every_grid_point(
    tracks, recal_every, window_days, target
):
    forecast, vol, mask = tracks
    expected = reference_events(forecast, vol, mask, window_days, target, recal_every)
    events = calibration_events(forecast, vol, mask, window_days, target, recal_every)
    assert _hex(events) == _hex(expected)
    band = calibrated_band(forecast, vol, mask, window_days, target, recal_every)
    assert _hex(band.events) == _hex(expected)
    assert band.alpha.tobytes() == reference_alpha(expected, len(forecast)).tobytes()


def tracks_from_vol(vol, vol_pred, flags=None):
    """Tracks with the given volatility and its forecast; every record daylight unless ``flags``."""
    vol = np.asarray(vol, dtype=float)
    f = ForecastTrack(START, 60, np.zeros(vol.size), vol)
    v = VolatilityTrack(START, 60, vol, vol, vol_pred)
    mask = all_daylight(vol.size) if flags is None else DaylightMask(START, flags, 0.0)
    return f, v, mask


def one_record_windows():
    """Three daylight records a day apart: each 1-day window holds one of them or none."""
    flags = np.zeros(3 * 1440, dtype=bool)
    flags[[100, 1540, 3000]] = True
    f, v, mask = tracks_from_vol(np.arange(1.0, 3 * 1440 + 1), np.ones(3 * 1440), flags)
    return f, v, mask, [101, 1440, 1541, 2980, 3001, 4320, 100]


@st.composite
def batch_inputs(draw):
    forecast, vol, mask = draw(calibration_inputs())
    n = len(forecast)
    index = st.one_of(st.just(0), st.just(n), st.integers(0, n))
    at = draw(st.lists(index, max_size=30))
    if at and draw(st.booleans()):
        at += draw(st.lists(st.sampled_from(at), min_size=1, max_size=5))  # repeats
    return forecast, vol, mask, at


# Every record equal, so ties cross every bucket edge; a window with fewer records than a
# bucket, and one bucket per record; inf ratios (a subnormal vol_pred); one-record windows;
# a window_days whose minute count is past int64.
@example((*tracks_from_ratios(np.full(50, 1.5)), [50, 49, 25, 0, 50, 7]), 1, 0.68, 3, 2)
@example((*tracks_from_ratios([3.0, 1.0, 2.0]), [3, 1, 2, 0, 3]), 1, 0.68, bands._BUCKET, bands._BLOCK)
@example((*tracks_from_ratios([3.0, 1.0, 2.0, 2.0]), [4, 3, 1]), 1, 0.5, 1, 1)
@example(
    (*tracks_from_vol([1, 2, 1, 3, 0.5, 1], [1, 5e-324, 1, 5e-324, 1, 1e-300]), [6, 4, 2, 6, 3]),
    1, 0.9, 2, 1,
)
@example(one_record_windows(), 1, 0.68, 1, 2)
@example(
    (*calibration_tracks(3 * 1440, 7, 1, 360, 1080, 0.05, False, 2), [4320, 0, 2000, 4319, 2000]),
    10**12, 0.68, 64, 2,
)
@settings(max_examples=80, deadline=None, database=None)
@given(
    inputs=batch_inputs(),
    window_days=st.one_of(st.just(1), st.integers(1, 10), st.just(10**12)),
    target=st.one_of(st.just(0.68), targets),
    bucket=st.sampled_from([1, 2, 3, 64, bands._BUCKET]),
    block=st.sampled_from([1, 2, 7, bands._BLOCK]),
)
def test_a_batch_equals_the_per_window_rule_at_every_index(inputs, window_days, target, bucket, block):
    """NaN in the batch exactly where the reference finds no calibratable record."""
    forecast, vol, mask, at = inputs
    with mock.patch.object(bands, "_BUCKET", bucket), mock.patch.object(bands, "_BLOCK", block):
        alphas = calibrate_alpha(forecast, vol, mask, np.array(at, dtype=np.int64), window_days, target)
    assert alphas.dtype == np.float64 and alphas.shape == (len(at),)
    for k, alpha in zip(at, alphas.tolist()):
        try:
            expected = reference_calibrate(forecast, vol, mask, k, window_days, target).hex()
        except UncalibratableWindowError:
            expected = None
            with pytest.raises(UncalibratableWindowError):
                calibrate_alpha(forecast, vol, mask, k, window_days, target)
        else:
            assert calibrate_alpha(forecast, vol, mask, k, window_days, target).hex() == expected
        assert (None if math.isnan(alpha) else alpha.hex()) == expected


def test_a_batch_takes_a_1d_integer_array_of_indices_in_range():
    f, v, mask = tracks_from_ratios(np.arange(1.0, 11.0))
    alphas = calibrate_alpha(f, v, mask, np.array([10, 0]))
    assert alphas[0] == 7.0 and math.isnan(alphas[1])
    assert calibrate_alpha(f, v, mask, np.array([], dtype=int)).shape == (0,)
    for bad in (np.array([[10]]), np.array([10.0]), [10.0]):
        with pytest.raises(ValueError, match="integer array"):
            calibrate_alpha(f, v, mask, bad)
    for outside in (-1, 11):
        with pytest.raises(ValueError, match="outside"):
            calibrate_alpha(f, v, mask, np.array([5, outside]))
    with pytest.raises(ValueError, match="outside"):
        calibrate_alpha(f, v, mask, 2**70)


def test_an_infinite_vol_pred_is_not_calibratable():
    """Its ratio is 0 or, over an infinite vol, NaN: neither is a multiplier."""
    f, v, mask = tracks_from_vol([np.inf, 5.0, 1.0], [np.inf, np.inf, 1.0])
    assert calibrate_alpha(f, v, mask, at_index=3) == 1.0
    assert calibrate_alpha(f, v, mask, np.array([3, 2])).tolist()[0] == 1.0
    assert math.isnan(calibrate_alpha(f, v, mask, np.array([3, 2])).tolist()[1])
