import math
import re
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from conftest import START, all_daylight, make_series, run_pipeline_with_band
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solarband import report
from solarband.bands import BandTrack, calibrate_alpha, inside_band
from solarband.forecast import ForecastTrack
from solarband.normality import CURVE_POINTS, DegenerateSampleError, diff_histogram
from solarband.risk import VolatilityTrack
from solarband.report import (
    EmptyRangeError,
    NonFiniteScoreError,
    NoScorableRecordsError,
    emit_plot,
    render_histogram_svg,
    render_series_svg,
    score,
    scorecard_csv,
)


def _band(lower, upper, alpha=None, start=START):
    lower = np.asarray(lower, dtype=float)
    alpha = np.ones_like(lower) if alpha is None else np.asarray(alpha, dtype=float)
    return BandTrack(
        start_time=start,
        lower=lower,
        upper=np.asarray(upper, dtype=float),
        alpha=alpha,
    )


def _track(predicted, realized, start=START):
    return ForecastTrack(
        start_time=start,
        horizon=60,
        predicted=np.asarray(predicted, dtype=float),
        realized=np.asarray(realized, dtype=float),
    )


def test_perfect_forecast_scores_clean():
    values = np.linspace(10, 100, 50)
    track = _track(values, values)
    band = _band(values, values)
    card = score(track, band, all_daylight(50))
    assert card.rmse == 0.0 and card.mae == 0.0
    assert card.coverage == 1.0
    assert card.mean_band_width == 0.0
    assert card.n_scored == 50


def test_always_outside_band_scores_zero_coverage():
    realized = np.full(20, 100.0)
    track = _track(np.full(20, 50.0), realized)
    band = _band(np.full(20, 40.0), np.full(20, 60.0))
    assert score(track, band, all_daylight(20)).coverage == 0.0


def test_hand_computed_four_record_card():
    realized = [300.0, 250.0, 100.0, 0.0]
    predicted = [250.0, 250.0, 150.0, 20.0]
    band = _band([200.0, 240.0, 120.0, 0.0], [300.0, 260.0, 180.0, 40.0])
    card = score(_track(predicted, realized), band, all_daylight(4))
    assert card.mae == pytest.approx(30.0, abs=1e-12)
    assert card.rmse == pytest.approx(math.sqrt(1350.0), abs=1e-12)
    assert card.nrmse == pytest.approx(math.sqrt(1350.0) / 162.5, abs=1e-12)
    assert card.coverage == 0.75  # boundary hits at records 1 and 4 count as inside
    assert card.mean_band_width == pytest.approx(55.0, abs=1e-12)
    assert card.n_scored == 4


def test_rmse_at_least_mae():
    rng = np.random.default_rng(55)
    realized = rng.uniform(0, 500, 300)
    predicted = rng.uniform(0, 500, 300)
    band = _band(np.zeros(300), np.full(300, 600.0))
    card = score(_track(predicted, realized), band, all_daylight(300))
    assert card.rmse >= card.mae - 1e-12


def test_no_eligible_records_raises():
    track = _track(np.full(10, np.nan), np.ones(10))
    band = _band(np.ones(10), np.ones(10))
    with pytest.raises(NoScorableRecordsError):
        score(track, band, all_daylight(10))


@pytest.mark.parametrize(
    "realized, upper, names",
    [
        (1e160, 2e160, "rmse, nrmse"),  # err**2 overflows
        (1.5e308, 1.7e308, "rmse, mae, nrmse, mean_band_width"),  # so do the sums
    ],
)
def test_score_beyond_double_range_is_refused_by_name(realized, upper, names):
    """rmse and nrmse were inf, with an overflow RuntimeWarning."""
    n = 4
    track = _track(np.zeros(n), np.full(n, realized))
    band = _band(np.zeros(n), np.full(n, upper))
    with pytest.raises(NonFiniteScoreError, match=f"^{names} overflow double precision$"):
        score(track, band, all_daylight(n))


def test_score_coverage_matches_calibration_counting():
    # the scorer and the calibrator must agree on what "inside" means
    rng = np.random.default_rng(56)
    n = 2000
    predicted = rng.uniform(100, 400, n)
    realized = np.clip(predicted + rng.normal(0, 30, n), 0, None)
    vol_pred = rng.uniform(5, 60, n)
    track = _track(predicted, realized)
    diff = realized - predicted
    vol = VolatilityTrack(START, 60, diff, np.abs(diff), vol_pred)
    mask = all_daylight(n)
    alpha = calibrate_alpha(track, vol, mask, at_index=n, window_days=3, target=0.68)
    ratio_coverage = float(np.mean(np.abs(diff) / vol_pred <= alpha))
    band = _band(
        np.clip(predicted - alpha * vol_pred, 0, None),
        predicted + alpha * vol_pred,
        alpha=np.full(n, alpha),
    )
    card = score(track, band, mask)
    assert card.coverage == ratio_coverage
    assert card.coverage == float(np.mean(inside_band(realized, band.lower, band.upper)))


def test_scorecard_csv_round_trip():
    card = score(
        _track([100.0, 200.0], [110.0, 190.0]),
        _band([90.0, 180.0], [130.0, 220.0]),
        all_daylight(2),
    )
    text = scorecard_csv(card)
    header, row, trailer = text.split("\n")
    assert header == "rmse,mae,nrmse,coverage,mean_band_width,n_scored"
    assert trailer == ""
    values = row.split(",")
    assert float(values[0]) == card.rmse
    assert int(values[5]) == 2


# ---------------------------------------------------------------------------
# SVG artifacts
# ---------------------------------------------------------------------------


def _pipeline_pieces():
    return run_pipeline_with_band(days=3, regime="broken", seed=20)


def test_svg_deterministic():
    series, track, _, _, band = _pipeline_pieces()
    a = emit_plot(series, track, band, "monthly")
    b = emit_plot(series, track, band, "monthly")
    assert a == b


def _measured_point_count(svg):
    points = re.findall(r'class="measured"[^/]*points="([^"]*)"', svg)
    return sum(len(p.split()) for p in points)


def test_polyline_points_match_defined_samples():
    series, track, _, _, band = _pipeline_pieces()
    svg = emit_plot(series, track, band, "monthly")
    assert _measured_point_count(svg) == int((~np.isnan(series.values)).sum())


def test_polyline_points_with_gaps():
    values = np.array([1.0, 2.0, np.nan, 4.0, 5.0, np.nan, 7.0])
    series = make_series(values)
    svg = render_series_svg(series, None, None, 0, len(series), "t")
    assert _measured_point_count(svg) == 5
    assert svg.count('class="measured"') == 3  # three contiguous runs


def test_zoom_range():
    series, track, _, _, band = _pipeline_pieces()
    zoom = (series.start_time + timedelta(days=1), series.start_time + timedelta(days=2))
    svg = emit_plot(series, track, band, "zoom", zoom=zoom)
    assert _measured_point_count(svg) == 1440


def test_empty_zoom_range_raises():
    series, track, _, _, band = _pipeline_pieces()
    zoom = (series.start_time + timedelta(days=9), series.start_time + timedelta(days=10))
    with pytest.raises(EmptyRangeError):
        emit_plot(series, track, band, "zoom", zoom=zoom)
    with pytest.raises(EmptyRangeError):
        emit_plot(series, track, band, "zoom", zoom=(series.start_time, series.start_time))


def test_default_zoom_is_the_final_48_hours_or_the_whole_series():
    series, track, _, _, band = _pipeline_pieces()
    end = series.start_time + timedelta(minutes=len(series))
    final = (end - timedelta(hours=48), end)
    assert emit_plot(series, track, band, "zoom") == emit_plot(series, track, band, "zoom", zoom=final)
    assert report.zoom_range(series) == (len(series) - 2880, len(series))
    short = make_series(series.values[:2000], series.start_time)
    whole = (short.start_time, short.start_time + timedelta(minutes=2000))
    assert emit_plot(short, None, None, "zoom") == emit_plot(short, None, None, "zoom", zoom=whole)
    assert report.zoom_range(short) == (0, 2000)


def test_histogram_needs_an_aligned_mask():
    series, track, _, mask, band = _pipeline_pieces()
    with pytest.raises(ValueError, match="histogram kind needs a forecast track and a daylight mask"):
        emit_plot(series, track, band, "histogram")
    late_mask = replace(mask, start_time=mask.start_time + timedelta(days=1))
    with pytest.raises(ValueError, match="tracks are not aligned"):
        emit_plot(series, track, band, "histogram", mask=late_mask)


def test_histogram_plot_palette():
    series, track, _, mask, band = _pipeline_pieces()
    svg = emit_plot(series, track, band, "histogram", mask=mask)
    assert 'class="diff-bin"' in svg and 'fill="blue"' in svg
    assert 'class="normal-curve"' in svg and 'stroke="red"' in svg
    assert svg.count('class="diff-bin"') == report.HISTOGRAM_BINS
    (curve,) = re.findall(r'class="normal-curve"[^/]*points="([^"]*)"', svg)
    assert len(curve.split()) == CURVE_POINTS
    assert diff_histogram(np.array([0.0, 1.0, 3.0]), 5).curve_x.size == CURVE_POINTS


def test_series_plot_palette():
    series, track, _, _, band = _pipeline_pieces()
    svg = emit_plot(series, track, band, "monthly")
    assert 'stroke="blue"' in svg
    assert 'stroke="red"' in svg
    assert 'stroke-dasharray' in svg and 'stroke="black"' in svg


def test_subnormal_peak_plots_a_single_tick():
    """A peak whose tick step underflows once crashed (5e-324) or looped forever (3e-323)."""
    for peak in (5e-324, 3e-323):
        assert report._nice_step(peak) == 1.0
        svg = render_series_svg(make_series([0.0, peak]), None, None, 0, 2, "t")
        assert svg.count('text-anchor="end">') == 2  # the tick at 0 and the axis label


def test_unknown_kind_rejected():
    series, track, _, _, band = _pipeline_pieces()
    with pytest.raises(ValueError):
        emit_plot(series, track, band, "sparkline")


def test_plots_refuse_tracks_not_aligned_with_the_series():
    """A track or band a day off was drawn a day off, and a short forecast failed in numpy."""
    series, track, _, _, band = _pipeline_pieces()
    day = timedelta(days=1)
    late_track = replace(track, start_time=track.start_time + day)
    late_band = replace(band, start_time=band.start_time + day)
    short_track = replace(track, predicted=track.predicted[:3000], realized=track.realized[:3000])
    zoom = (series.start_time, series.start_time + day)
    for kind in report.PLOT_KINDS:
        for forecast, frontiers in ((late_track, late_band), (track, late_band), (short_track, None)):
            with pytest.raises(ValueError, match="tracks are not aligned"):
                emit_plot(series, forecast, frontiers, kind, zoom=zoom)


def reference_polylines(canvas, xs, ys, sx, sy, cls, style):
    """The per-point formatter the array version replaced: one ``_fmt`` per coordinate."""
    for start, stop in report._runs(~np.isnan(ys)):
        points = " ".join(
            f"{report._fmt(sx(xs[k]))},{report._fmt(sy(ys[k]))}" for k in range(start, stop)
        )
        canvas.add(f'<polyline class="{cls}" fill="none" {style} points="{points}"/>')


def _with_reference_polylines(render, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_polylines", reference_polylines)
        return render(*args)


plot_value = st.one_of(
    st.just(0.0), st.floats(0.0, 2000.0), st.floats(1e6, 1e300), st.floats(0.0, 1e-3)
)


@st.composite
def gappy_values(draw, n):
    vals = np.array(draw(st.lists(plot_value, min_size=n, max_size=n)))
    gaps = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return np.where(gaps, np.nan, vals)


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data(), n=st.integers(1, 120))
def test_series_svg_equals_per_point_reference(data, n):
    series = make_series(data.draw(gappy_values(n)))
    forecast = band = None
    if data.draw(st.booleans()):
        forecast = _track(data.draw(gappy_values(n)), series.values)
    if data.draw(st.booleans()):
        lower = data.draw(gappy_values(n))
        band = _band(lower, lower + np.nan_to_num(data.draw(gappy_values(n))))
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.one_of(st.just(lo + 1), st.integers(lo + 1, n)))  # single samples too
    args = (series, forecast, band, lo, hi, "t")
    assert render_series_svg(*args) == _with_reference_polylines(render_series_svg, *args)


@example(sample=[0.0, 5e-324], bins=60)
@settings(max_examples=40, deadline=None, database=None)
@given(
    sample=st.lists(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)), min_size=1, max_size=300),
    bins=st.integers(1, 80),
)
def test_histogram_svg_equals_per_point_reference(sample, bins):
    try:
        hist = diff_histogram(np.array(sample), bins)
    except DegenerateSampleError:  # refused only for a span of a few float steps per bin
        lo, hi = min(sample), max(sample)
        assert hi - lo < 4 * bins * np.spacing(max(abs(lo), abs(hi)))
        return
    assert render_histogram_svg(hist, "h") == _with_reference_polylines(render_histogram_svg, hist, "h")
