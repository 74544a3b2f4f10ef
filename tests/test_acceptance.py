"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is designed to finish in well under five minutes.
"""

import numpy as np
import pytest
from conftest import START, all_daylight, make_series, run_pipeline

from solarband import cli
from solarband.bands import (
    calibrate_alpha,
    calibrated_band,
    calibration_events,
    fixed_band,
    inside_band,
)
from solarband.decomposition import extract_trend
from solarband.forecast import ForecastTrack, trend_forecast
from solarband.normality import jarque_bera, ks_normal, lilliefors
from solarband.risk import VolatilityTrack, volatility_track
from solarband.series import DaylightMask


def _report(number, text):
    print(f"[criterion {number}] PASS: {text}")


def test_criterion_1_decomposition_reconstructs_input():
    rng = np.random.default_rng(501)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2000, 3000))
        values = rng.uniform(0.0, 1100.0, n)
        d = extract_trend(make_series(values), 120)
        defined = ~np.isnan(d.trend)
        assert defined.any()
        worst = max(worst, float(np.abs((d.trend + d.fluctuation - values)[defined]).max()))
    assert worst <= 1e-9
    _report(1, f"trend + fluctuation reconstructs 10 random series, worst |err| = {worst:.2e}")


def test_criterion_2_affine_forecast_exactness():
    rng = np.random.default_rng(502)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2000, 3000))
        intercept = float(rng.uniform(200.0, 800.0))
        slope = float(rng.uniform(-0.05, 0.05))
        values = intercept + slope * np.arange(n)
        series = make_series(values)
        track = trend_forecast(series, extract_trend(series, 120), 60)
        defined = ~np.isnan(track.predicted)
        assert defined.any()
        worst = max(worst, float(np.abs((track.predicted - values)[defined]).max()))
    assert worst <= 1e-9
    _report(2, f"60-min forecast error on affine series, worst |err| = {worst:.2e}")


def test_criterion_3_volatility_identity_and_shift():
    rng = np.random.default_rng(503)
    checked = 0
    for _ in range(10):
        n = int(rng.integers(500, 1500))
        h = int(rng.integers(1, 120))
        predicted = rng.uniform(0, 800, n)
        realized = rng.uniform(0, 800, n)
        predicted[rng.random(n) < 0.3] = np.nan
        realized[rng.random(n) < 0.3] = np.nan
        if np.isnan(realized - predicted).all():
            continue
        track = ForecastTrack(START, h, predicted, realized)
        v = volatility_track(track)
        for t in range(n):
            d = realized[t] - predicted[t]
            if np.isnan(d):
                assert np.isnan(v.vol[t])
            else:
                assert v.vol[t] == abs(d) and v.diff[t] == d
            if t < h or np.isnan(v.vol[t - h]):
                assert np.isnan(v.vol_pred[t])
            else:
                assert v.vol_pred[t] == v.vol[t - h]
            checked += 1
    _report(3, f"vol == |realized - predicted| and vol_pred == shifted vol on {checked} records")


def test_criterion_4_calibration_matches_brute_force():
    rng = np.random.default_rng(504)
    target = 0.68
    for case in range(100):
        n = int(rng.integers(1, 400))
        ratios = rng.uniform(0.005, 5.0, n)
        predicted = np.zeros(n)
        vol_pred = np.ones(n)
        realized = ratios.copy()
        f = ForecastTrack(START, 60, predicted, realized)
        v = VolatilityTrack(START, 60, realized, np.abs(realized), vol_pred)
        alpha = calibrate_alpha(f, v, all_daylight(n), at_index=n, target=target)

        brute = None
        for candidate in sorted(ratios):
            if np.mean(ratios <= candidate) >= target:
                brute = candidate
                break
        assert alpha == brute, f"case {case}: {alpha} != {brute}"
        assert np.mean(ratios <= alpha) >= target
        smaller = ratios[ratios < alpha]
        if smaller.size:
            assert np.mean(ratios <= smaller.max()) < target
    _report(4, "calibrate_alpha equals the brute-force minimal multiplier on 100 windows")


def test_criterion_5_calibrated_band_with_unit_alpha_equals_fixed_band():
    _, track, vol, _ = run_pipeline(days=5, regime="broken", seed=505)
    dark = DaylightMask(track.start_time, np.zeros(len(track), dtype=bool), 0.0)
    forced_unit = calibrated_band(track, vol, dark)  # never calibrates: alpha 1 everywhere
    reference = fixed_band(track, vol)
    assert (forced_unit.alpha == 1.0).all()
    assert np.array_equal(forced_unit.lower, reference.lower, equal_nan=True)
    assert np.array_equal(forced_unit.upper, reference.upper, equal_nan=True)
    _report(5, "calibrated band with alpha forced to 1 is pointwise identical to the fixed band")


def test_criterion_6_normality_test_size():
    rng = np.random.default_rng(506)
    replicates, n = 1000, 500
    counts = {"jarque_bera": 0, "kolmogorov_smirnov": 0, "lilliefors": 0}
    for _ in range(replicates):
        x = rng.standard_normal(n)
        counts["jarque_bera"] += jarque_bera(x, 0.05).reject
        counts["kolmogorov_smirnov"] += ks_normal(x, 0.05).reject
        counts["lilliefors"] += lilliefors(x, 0.05).reject
    rates = {name: hits / replicates for name, hits in counts.items()}
    for name, rate in rates.items():
        assert 0.035 <= rate <= 0.065, (name, rate)
    _report(6, "null rejection rates at level 0.05: "
            + ", ".join(f"{k}={v:.3f}" for k, v in rates.items()))


def test_criterion_7_all_tests_reject_pipeline_errors():
    seeds = range(20)
    all_reject = 0
    for seed in seeds:
        _, track, _, mask = run_pipeline(days=30, regime="broken", seed=1000 + seed)
        diff = track.realized - track.predicted
        sample = diff[mask.flags & ~np.isnan(diff)]
        standardized = (sample - sample.mean()) / sample.std(ddof=1)
        rejected = (
            jarque_bera(sample, 0.05).reject
            and ks_normal(standardized, 0.05).reject
            and lilliefors(sample, 0.05).reject
        )
        all_reject += rejected
    assert all_reject >= 0.95 * len(seeds)
    _report(7, f"all three tests reject the daylight error sample in {all_reject}/20 seeds")


def test_criterion_8_out_of_sample_coverage():
    _, track, vol, mask = run_pipeline(days=30, regime="broken", seed=508)
    band2 = calibrated_band(track, vol, mask, window_days=3, target=0.68, recal_every=1440)
    band1 = fixed_band(track, vol)
    events = calibration_events(track, vol, mask, window_days=3, target=0.68, recal_every=1440)

    tail = slice(10 * 1440, len(track))  # final 20 of 30 days
    eligible = (
        mask.flags[tail]
        & ~np.isnan(track.realized[tail])
        & ~np.isnan(track.predicted[tail])
        & ~np.isnan(band2.lower[tail])
    )
    realized = track.realized[tail][eligible]
    cov2 = float(np.mean(inside_band(realized, band2.lower[tail][eligible], band2.upper[tail][eligible])))
    cov1 = float(np.mean(inside_band(realized, band1.lower[tail][eligible], band1.upper[tail][eligible])))
    assert 0.55 <= cov2 <= 0.85

    tail_alphas = [a for k, a in events if a is not None and k >= 10 * 1440]
    share_above_one = np.mean([a > 1.0 for a in tail_alphas])
    if share_above_one >= 0.8:
        assert cov2 > cov1
    _report(8, f"out-of-sample coverage: calibrated {cov2:.3f} vs fixed {cov1:.3f}, "
            f"alpha > 1 on {share_above_one:.0%} of days")


def test_criterion_9_cli_outputs_byte_identical(tmp_path):
    def run_all(tag):
        base = tmp_path / tag
        base.mkdir()
        series_csv = base / "series.csv"
        track_csv = base / "track.csv"
        band_csv = base / "band.csv"
        norm_csv = base / "normtest.csv"
        outdir = base / "report"
        assert cli.main(["synth", "--output", str(series_csv), "--days", "5",
                         "--regime", "broken", "--seed", "509"]) == 0
        assert cli.main(["forecast", "--input", str(series_csv),
                         "--output", str(track_csv)]) == 0
        assert cli.main(["bands", "--input", str(track_csv),
                         "--output", str(band_csv)]) == 0
        assert cli.main(["normtest", "--input", str(track_csv),
                         "--output", str(norm_csv)]) == 0
        assert cli.main(["report", "--input", str(series_csv),
                         "--output", str(outdir)]) == 0
        files = [series_csv, track_csv, band_csv, norm_csv,
                 outdir / "scorecard.csv", outdir / "monthly.svg",
                 outdir / "zoom.svg", outdir / "histogram.svg"]
        return {f.name: f.read_bytes() for f in files}

    first = run_all("run1")
    second = run_all("run2")
    assert first == second
    _report(9, f"two identical CLI invocations produced byte-identical outputs "
            f"({len(first)} files compared)")
