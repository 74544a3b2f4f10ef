import multiprocessing
import threading
import tracemalloc
from math import fsum
from unittest import mock

import numpy as np
import pytest
from conftest import make_series, usable_cpus
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_extract_trend

from solarband import NonFiniteError
from solarband import series as series_mod
from solarband.decomposition import DEFAULT_WINDOW, extract_trend
from solarband.synth import SynthConfig, generate


def fit_endpoint_oracle(window_values):
    """Degree-1 least squares via the 2x2 normal equations, fsum-accumulated."""
    w = len(window_values)
    xs = range(w)
    sx = fsum(xs)
    sxx = fsum(x * x for x in xs)
    sy = fsum(window_values)
    sxy = fsum(x * y for x, y in zip(xs, window_values))
    det = w * sxx - sx * sx
    slope = (w * sxy - sx * sy) / det
    intercept = (sy - slope * sx) / w
    return intercept + slope * (w - 1), slope


def test_constant_series():
    s = make_series(np.full(50, 77.5))
    d = extract_trend(s, 10)
    assert np.allclose(d.trend[9:], 77.5, atol=1e-9)
    assert np.allclose(d.fluctuation[9:], 0.0, atol=1e-9)
    assert np.isnan(d.trend[:9]).all()


def test_exact_ramp():
    k = np.arange(200, dtype=float)
    s = make_series(3.0 + 0.5 * k)
    d = extract_trend(s, 30)
    defined = ~np.isnan(d.trend)
    assert np.allclose(d.trend[defined], (3.0 + 0.5 * k)[defined], atol=1e-9)
    assert np.allclose(d.fluctuation[defined], 0.0, atol=1e-9)
    assert np.allclose(d.slope[defined], 0.5, atol=1e-9)


def test_small_window_frozen_values():
    # Hand-checked normal equations for [1, 3, 2, 5], window 4:
    # slope 1.1, intercept 1.1, endpoint 4.4.
    d = extract_trend(make_series([1.0, 3.0, 2.0, 5.0]), 4)
    assert d.trend[3] == pytest.approx(4.4, abs=1e-12)
    assert d.slope[3] == pytest.approx(1.1, abs=1e-12)
    assert d.fluctuation[3] == pytest.approx(0.6, abs=1e-12)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(11)
    k = np.arange(400, dtype=float)
    values = 100.0 + 0.8 * k + rng.normal(0, 25, 400)
    values = np.clip(values, 0, None)
    s = make_series(values)
    w = 60
    d = extract_trend(s, w)
    for end in [w - 1, 100, 250, 399]:
        expected, slope = fit_endpoint_oracle(values[end - w + 1 : end + 1].tolist())
        assert abs(d.trend[end] - expected) <= 1e-9 * max(1.0, abs(expected))
        assert abs(d.slope[end] - slope) <= 1e-9 * max(1.0, abs(slope))


def test_additivity_reconstructs_input():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1000, 500)
    d = extract_trend(make_series(values), 45)
    defined = ~np.isnan(d.trend)
    residual = np.abs((d.trend + d.fluctuation - values)[defined])
    assert residual.max() <= 1e-9


def test_gap_windows_are_undefined():
    values = np.arange(30, dtype=float)
    values[10] = np.nan
    d = extract_trend(make_series(values), 5)
    assert np.isnan(d.trend[10:15]).all()  # every window containing index 10
    assert not np.isnan(d.trend[15])
    assert np.isnan(d.fluctuation[10])


def test_causality():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 500, 100)
    d_before = extract_trend(make_series(values), 20)
    tampered = values.copy()
    tampered[60:] = rng.uniform(0, 500, 40)
    d_after = extract_trend(make_series(tampered), 20)
    assert np.array_equal(d_before.trend[:60], d_after.trend[:60], equal_nan=True)
    assert np.array_equal(d_before.slope[:60], d_after.slope[:60], equal_nan=True)


@settings(max_examples=80, deadline=None, database=None)
@given(
    window=st.integers(2, 40),
    extra=st.integers(0, 300),
    cut_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    gap_rate=st.sampled_from([0.0, 0.02, 0.3]),
)
def test_later_samples_never_change_earlier_trend(window, extra, cut_frac, seed, gap_rate):
    """Any rewrite of samples from ``cut`` on, gaps included, leaves trend/slope/fluctuation before it bitwise."""
    rng = np.random.default_rng(seed)
    n = window + extra
    cut = int(cut_frac * n)

    def gappy(size):
        values = rng.uniform(0, 1200, size)
        values[rng.random(size) < gap_rate] = np.nan
        return values

    values = gappy(n)
    tampered = values.copy()
    tampered[cut:] = gappy(n - cut)
    before = extract_trend(make_series(values), window)
    after = extract_trend(make_series(tampered), window)
    for name in ("trend", "slope", "fluctuation"):
        a, b = getattr(before, name)[:cut], getattr(after, name)[:cut]
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.array_equal(a[~np.isnan(a)].view(np.uint64), b[~np.isnan(b)].view(np.uint64))


def test_linearity_in_observations():
    rng = np.random.default_rng(9)
    v1 = rng.uniform(0, 300, 150)
    v2 = rng.uniform(0, 300, 150)
    a, b = 2.0, 0.75
    d1 = extract_trend(make_series(v1), 25)
    d2 = extract_trend(make_series(v2), 25)
    d12 = extract_trend(make_series(a * v1 + b * v2), 25)
    defined = ~np.isnan(d12.trend)
    combo = a * d1.trend + b * d2.trend
    assert np.allclose(d12.trend[defined], combo[defined], atol=1e-8)


def test_fit_beats_mean_detrending_within_window():
    # Least squares minimizes the in-window residual sum of squares, so the
    # fit residuals cannot out-vary the mean-detrended residuals.
    rng = np.random.default_rng(13)
    values = rng.uniform(0, 800, 300)
    w = 40
    d = extract_trend(make_series(values), w)
    offsets = np.arange(w)
    for end in range(w - 1, 300, 17):
        intercept = d.trend[end] - d.slope[end] * (w - 1)
        window = values[end - w + 1 : end + 1]
        fit_residuals = window - (intercept + d.slope[end] * offsets)
        mean_residuals = window - window.mean()
        assert np.var(fit_residuals) <= np.var(mean_residuals) + 1e-9


def test_errors():
    s = make_series(np.ones(10))
    with pytest.raises(ValueError):
        extract_trend(s, 1)
    with pytest.raises(ValueError):
        extract_trend(s, 11)


def test_a_fit_beyond_double_range_is_refused_by_name():
    """Daytime values near 1e308 overflowed the window sums: inf and NaN trends, no error."""
    values = np.zeros(3 * 1440)
    rng = np.random.default_rng(0)
    for day in range(3):
        values[day * 1440 + 360 : day * 1440 + 1080] = rng.uniform(1e307, 1.7e308, 720)
    values[2000:2100] = np.nan
    with pytest.raises(NonFiniteError, match="gap-free trend windows overflow double precision, "
                       "the first ending at sample 360$"):
        extract_trend(make_series(values), 120)


def test_gaps_and_large_finite_values_are_no_overflow():
    """Only a gap leaves a window undefined; values up to 1e305 fit within range."""
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 1e305, 2000)
    values[[5, 700, 701, 1500]] = np.nan
    d = extract_trend(make_series(values), 120)
    gap = np.isnan(values)
    touched = np.convolve(gap, np.ones(120), mode="full")[: values.size] > 0
    touched[:119] = True
    assert np.isfinite(d.trend[~touched]).all() and np.isfinite(d.fluctuation[~touched]).all()
    assert np.isnan(d.trend[touched]).all()


def trend_values(kind, n, seed, gap_rate):
    """Values of one regime, with -0.0 and NaN gaps sprinkled in.

    ``mixed`` puts subnormal and 1e300-scale values among ordinary ones;
    ``huge`` has runs near 1.7e308 whose window sums overflow; ``zeros``
    alternates runs of 0.0 and -0.0, so some window sums are -0.0, which the
    +0.0 each numpy sum starts from turns into 0.0; ``synth`` is 30 broken
    days (n is then 43,200) with an outage and bursts of gaps.
    """
    rng = np.random.default_rng(seed)
    if kind == "zeros":
        runs = np.resize([0.0, -0.0] if rng.random() < 0.5 else [-0.0, 0.0], n)
        values = np.repeat(runs, rng.integers(1, 41, n))[:n]
        values[rng.random(n) < gap_rate] = np.nan
        return values
    if kind == "synth":
        values = generate(SynthConfig(days=30, cloud_regime="broken", seed=seed)).values.copy()
        n = values.size
        values[5000:5360] = np.nan
        for lo in rng.integers(0, n, 400):
            values[lo : lo + rng.integers(3, 31)] = np.nan
        return values
    values = rng.uniform(0.0, 1200.0, n)
    if kind == "mixed":
        values *= rng.choice([1.0, 5e-324, 1e-310, 1e300], n, p=[0.7, 0.1, 0.1, 0.1])
    elif kind == "huge":
        lo = int(rng.integers(0, n))
        values[lo : lo + int(rng.integers(1, n + 1))] = rng.uniform(1e307, 1.7e308)
    values[rng.random(n) < 0.05] = -0.0
    values[rng.random(n) < gap_rate] = np.nan
    return values


def fit_or_error(fit, series, window):
    try:
        return fit(series, window)
    except NonFiniteError as err:
        return str(err)


# Leaf sizes at the edges of numpy's three summation regimes (in order below 8,
# 8 accumulators up to 128, halving above), two windows in blocks of one, a window
# as long as the series (a block of one row, summed in order from +0.0 like every
# block, as the padded reference view is), 4,095
# windows in one block, and 30 gappy days at the default window. Two more lone
# windows: one whose fit overflows, so the error's count and sample come from a
# block of one row, and one whose huge values meet a gap, which is no overflow.
@example(7, 300, 0, "mixed", 0.01, 7)
@example(8, 300, 1, "mixed", 0.01, 2)
@example(128, 300, 2, "mixed", 0.01, 7)
@example(129, 300, 3, "mixed", 0.01, 2)
@example(136, 300, 4, "mixed", 0.0, 7)
@example(517, 1, 5, "mixed", 0.0, 1)
@example(600, 0, 6, "plain", 0.0, series_mod.BLOCK)
@example(DEFAULT_WINDOW, 4_094, 11, "mixed", 0.01, series_mod.BLOCK)
@example(DEFAULT_WINDOW, 0, 7, "synth", 0.0, series_mod.BLOCK)
@example(DEFAULT_WINDOW, 0, 8, "synth", 0.0, 7)
@example(120, 200, 9, "huge", 0.02, 2)
@example(8, 200, 10, "zeros", 0.0, 7)
@example(120, 0, 12, "huge", 0.0, series_mod.BLOCK)
@example(300, 0, 13, "huge", 0.01, series_mod.BLOCK)
@settings(max_examples=100, deadline=None, database=None)
@given(
    window=st.one_of(st.integers(2, 7), st.integers(8, 128), st.integers(129, 600)),
    extra=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["plain", "mixed", "huge", "zeros"]),
    gap_rate=st.sampled_from([0.0, 0.01, 0.2]),
    rows=st.sampled_from([1, 2, 7, series_mod.BLOCK]),
)
def test_block_fit_is_the_whole_view_fit_bit_for_bit(window, extra, seed, kind, gap_rate, rows):
    """Trend, slope and fluctuation have the reference's bytes, or both raise the same error.

    Where both sides are NaN the payload is not compared: numpy's own add
    picks either operand's NaN depending on the loop, so a window holding a
    gap and an inf - inf has no one NaN to match.
    """
    series = make_series(trend_values(kind, window + extra, seed, gap_rate))
    want = fit_or_error(reference_extract_trend, series, window)
    with mock.patch.object(series_mod, "BLOCK", rows):
        got = fit_or_error(extract_trend, series, window)
    if isinstance(want, str):
        assert got == want
        return
    for name in ("trend", "slope", "fluctuation"):
        a, b = getattr(got, name), getattr(want, name)
        both_nan = np.isnan(a) & np.isnan(b)
        assert np.array_equal(a[~both_nan].view(np.int64), b[~both_nan].view(np.int64)), name


# Every regime over blocks of 1 to 9 windows, so that up to five shares own
# several blocks each; the example overflows in blocks 4 to 11 of 15, which
# belong to different shares at 2, 3 and 5 CPUs.
@example(8, 56, 4, "huge", 0.0, 4)
@settings(max_examples=60, deadline=None, database=None)
@given(
    window=st.integers(2, 40),
    extra=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["plain", "mixed", "huge", "zeros"]),
    gap_rate=st.sampled_from([0.0, 0.01, 0.2]),
    rows=st.integers(1, 9),
)
def test_the_fit_does_not_depend_on_the_cpu_count(window, extra, seed, kind, gap_rate, rows):
    """Trend, slope and fluctuation bytes, NaN payloads included, or the error message."""
    series = make_series(trend_values(kind, window + extra, seed, gap_rate))
    outcomes = []
    with mock.patch.object(series_mod, "BLOCK", rows):
        for cpus in (1, 2, 3, 5):
            with usable_cpus(cpus):
                got = fit_or_error(extract_trend, series, window)
            outcomes.append(got if isinstance(got, str) else
                            [getattr(got, name).tobytes() for name in ("trend", "slope", "fluctuation")])
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


def _fit_three_blocks():
    series = make_series(np.random.default_rng(2).uniform(0.0, 1200.0, 3 * series_mod.BLOCK))
    extract_trend(series, DEFAULT_WINDOW)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_fork_child_fits_after_its_parent_did():
    """A thread pool kept from the parent's fit would wait forever in the child for its threads."""
    threads = threading.active_count()
    with usable_cpus(2):
        _fit_three_blocks()
        assert threading.active_count() == threads  # the fit's threads end with the call
        child = multiprocessing.get_context("fork").Process(target=_fit_three_blocks)
        child.start()
        child.join(timeout=20)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0


def test_fit_peak_memory_stays_within_three_tracks_and_block_buffers():
    """The whole-view fit peaked at about 9 tracks: products, means, copies and a gap prefix sum."""
    values = generate(SynthConfig(days=365, cloud_regime="broken", seed=1)).values.copy()
    values[np.random.default_rng(1).random(values.size) < 0.03] = np.nan
    series = make_series(values)
    n = values.size
    tracemalloc.start()
    try:
        extract_trend(series, DEFAULT_WINDOW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (3 * n + 8 * series_mod.BLOCK)
