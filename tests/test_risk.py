import numpy as np
import pytest
from conftest import START
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solarband.forecast import ForecastTrack
from solarband.risk import volatility_track
from solarband.series import NoRecordsError


def _track(predicted, realized, horizon=60):
    return ForecastTrack(
        start_time=START,
        horizon=horizon,
        predicted=np.asarray(predicted, dtype=float),
        realized=np.asarray(realized, dtype=float),
    )


def test_perfect_forecast_zero_volatility():
    values = np.linspace(0, 100, 200)
    v = volatility_track(_track(values, values))
    assert (v.vol[~np.isnan(v.vol)] == 0.0).all()
    assert (v.diff[~np.isnan(v.diff)] == 0.0).all()


def test_pointwise_arithmetic():
    predicted = np.full(100, np.nan)
    realized = np.full(100, np.nan)
    predicted[70] = 250.0
    realized[70] = 300.0
    v = volatility_track(_track(predicted, realized))
    assert v.diff[70] == 50.0
    assert v.vol[70] == 50.0


def test_vol_equals_abs_diff_exactly():
    rng = np.random.default_rng(31)
    predicted = rng.uniform(0, 500, 400)
    realized = rng.uniform(0, 500, 400)
    for arr in (predicted, realized):
        arr[rng.random(400) < 0.25] = np.nan
    v = volatility_track(_track(predicted, realized))
    for t in range(400):
        d = realized[t] - predicted[t]
        if np.isnan(d):
            assert np.isnan(v.diff[t]) and np.isnan(v.vol[t])
        else:
            assert v.diff[t] == d
            assert v.vol[t] == abs(d)


def test_vol_pred_matches_shift_oracle():
    rng = np.random.default_rng(32)
    h = 60
    predicted = rng.uniform(0, 500, 500)
    realized = rng.uniform(0, 500, 500)
    for arr in (predicted, realized):
        arr[rng.random(500) < 0.3] = np.nan
    v = volatility_track(_track(predicted, realized, horizon=h))
    for t in range(500):
        if t < h or np.isnan(v.vol[t - h]):
            assert np.isnan(v.vol_pred[t])
        else:
            assert v.vol_pred[t] == v.vol[t - h]


@settings(max_examples=80, deadline=None, database=None)
@given(
    n=st.integers(1, 300),
    horizon=st.integers(1, 320),
    seed=st.integers(0, 2**32 - 1),
    gap_rate=st.sampled_from([0.0, 0.1, 0.6]),
)
def test_vol_pred_is_vol_shifted_by_exactly_horizon(n, horizon, seed, gap_rate):
    rng = np.random.default_rng(seed)
    predicted, realized = rng.uniform(0, 800, (2, n))
    predicted[rng.random(n) < gap_rate] = np.nan
    realized[rng.random(n) < gap_rate] = np.nan
    assume(not np.isnan(realized - predicted).all())
    v = volatility_track(_track(predicted, realized, horizon=horizon))
    assert np.isnan(v.vol_pred[:horizon]).all()
    assert v.vol_pred[horizon:].view(np.uint64).tolist() == v.vol[: max(n - horizon, 0)].view(np.uint64).tolist()


def test_negating_diffs_leaves_vol_unchanged():
    rng = np.random.default_rng(33)
    predicted = rng.uniform(0, 500, 300)
    realized = rng.uniform(0, 500, 300)
    v = volatility_track(_track(predicted, realized))
    # swap roles: diff flips sign, vol must be bitwise identical
    v_swapped = volatility_track(_track(realized, predicted))
    assert np.array_equal(v.vol, v_swapped.vol, equal_nan=True)
    defined = ~np.isnan(v.diff)
    assert np.array_equal(v.diff[defined], -v_swapped.diff[defined])


def test_no_defined_records_raises():
    empty = np.full(100, np.nan)
    with pytest.raises(NoRecordsError, match="^forecast track has no defined records$"):
        volatility_track(_track(empty, np.ones(100)))
