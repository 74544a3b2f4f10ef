"""``forecast`` then ``bands`` through ``cli.main``, byte for byte against the references composed."""

import contextlib
import io
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
from conftest import usable_cpus
from hypothesis import event, given, settings
from hypothesis import strategies as st
from reference import (
    format_timestamp,
    reference_alpha,
    reference_events,
    reference_extract_trend,
    reference_read_grid_csv,
    reference_trend_forecast,
    reference_write_grid_csv,
)

from solarband import bands, cli
from solarband import series as series_mod
from solarband.forecast import ForecastTrack
from solarband.risk import VolatilityTrack
from solarband.series import CADENCE, DaylightMask, IrradianceSeries, format_value

SERIES_HEADER = "timestamp,ghi_wm2"
BAND_HEADER = "timestamp,lower_wm2,upper_wm2,alpha"
EPS_DAY = 5.0  # the --eps-day default


def track_header(horizon):
    """The track header as the README states it: a horizon other than 60 is named."""
    named = "" if horizon == 60 else f"_{horizon}min"
    return f"timestamp,predicted{named}_wm2,realized_wm2"


def reference_volatility_track(track):
    """diff, vol and vol_pred one record at a time: vol_pred[t] is vol[t - horizon]."""
    diff = [r - p for p, r in zip(track.predicted.tolist(), track.realized.tolist())]
    vol = [abs(d) for d in diff]
    vol_pred = [vol[t - track.horizon] if t >= track.horizon else math.nan for t in range(len(vol))]
    return VolatilityTrack(track.start_time, track.horizon, diff, vol, vol_pred)


def reference_daylight_mask(track):
    """Each realized value strictly above EPS_DAY; a gap is NaN, which compares false."""
    return DaylightMask(track.start_time, [v > EPS_DAY for v in track.realized.tolist()], EPS_DAY)


def reference_chain(series_text, window_w, horizon, window_days, target, recal_every):
    """Each run's exit code, and the bytes of each file and stdout text a successful run leaves."""
    start, (values,) = reference_read_grid_csv(series_text, SERIES_HEADER)
    decomposition = reference_extract_trend(IrradianceSeries(start, values), window_w)
    predicted = np.frombuffer(reference_trend_forecast(decomposition, horizon))
    if np.isnan(predicted).all():
        return {"forecast": cli.EXIT_DATA}
    keep = ~(np.isnan(predicted) & np.isnan(values))
    track_text = reference_write_grid_csv(track_header(horizon), start, keep, predicted, values)
    out = {"forecast": cli.EXIT_OK, "track.csv": track_text.encode()}

    start, (predicted, realized) = reference_read_grid_csv(track_text, track_header(horizon),
                                                           empty_is_gap=True)
    track = ForecastTrack(start, horizon, predicted, realized)
    vol = reference_volatility_track(track)
    if np.isnan(vol.diff).all():
        return {**out, "bands": cli.EXIT_DATA}
    events = reference_events(track, vol, reference_daylight_mask(track), window_days, target, recal_every)
    if all(alpha is None for _, alpha in events):
        return {**out, "bands": cli.EXIT_UNCALIBRATABLE}
    alpha = reference_alpha(events, len(track))
    lower = np.clip(predicted - alpha * vol.vol_pred, 0.0, None)
    upper = predicted + alpha * vol.vol_pred
    band_text = reference_write_grid_csv(BAND_HEADER, start, ~np.isnan(lower) & ~np.isnan(upper),
                                         lower, upper, alpha)
    stdout = "".join(f"{format_timestamp(start + k * CADENCE)} alpha="
                     f"{'unchanged' if value is None else format_value(value)}\n" for k, value in events)
    return {**out, "bands": cli.EXIT_OK, "band.csv": band_text.encode(), "bands stdout": stdout}


@st.composite
def series_texts(draw):
    """A 2-4 day irradiance CSV with nights, clouds, gap bursts and at times a day-long outage."""
    days = draw(st.integers(2, 4), label="days")
    first = draw(st.integers(0, 366 * 1440), label="start minute")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = days * 1440
    minute_of_day = (first + np.arange(n)) % 1440
    sun = np.clip(np.sin(np.pi * (minute_of_day - 360) / 720), 0.0, None)
    values = 1000.0 * sun * rng.uniform(0.2, 1.0, n) ** draw(st.sampled_from([0.0, 1.0, 4.0]), label="clouds")
    if draw(st.booleans(), label="ties"):
        values = np.round(values * 4) / 4
    for _ in range(draw(st.integers(0, 30), label="gap bursts")):
        lo = int(rng.integers(0, n))
        values[lo : lo + int(rng.integers(1, 300))] = np.nan
    if draw(st.booleans(), label="outage"):
        lo = int(rng.integers(0, n))
        values[lo : lo + 1440] = np.nan
    values[[0, -1]] = 1.0  # anchor rows, so the grid is the drawn one
    start = datetime(2021, 1, 1, tzinfo=timezone.utc) + timedelta(minutes=first)
    return reference_write_grid_csv(SERIES_HEADER, start, ~np.isnan(values), values)


def run_in_process(argv):
    """``cli.main``'s exit code and what it printed to stdout."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, printed.getvalue()


@settings(max_examples=60, deadline=None, database=None)
@given(
    series_text=series_texts(),
    window_w=st.one_of(st.just(120), st.integers(2, 400)),
    horizon=st.one_of(st.just(60), st.integers(1, 600)),
    window_days=st.integers(1, 3),
    recal_every=st.one_of(st.sampled_from([60, 1440]), st.integers(1, 3000)),
    target=st.one_of(st.just(0.68), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    block=st.sampled_from([97, 1000, 4096]),
    bucket=st.sampled_from([1, 3, 64, 500]),
    windows=st.sampled_from([1, 2, 7]),
)
def test_forecast_then_bands_is_the_references_composed(series_text, window_w, horizon, window_days,
                                                          recal_every, target, block, bucket, windows):
    """Block, bucket and window-batch edges fall inside the series at every drawn size."""
    want = reference_chain(series_text, window_w, horizon, window_days, target, recal_every)
    event(f"forecast exit {want['forecast']}, bands exit {want.get('bands')}")
    with (tempfile.TemporaryDirectory() as tmp, usable_cpus(3),
          mock.patch.object(series_mod, "BLOCK", block),
          mock.patch.object(bands, "_BUCKET", bucket), mock.patch.object(bands, "_BLOCK", windows)):
        d = Path(tmp)
        (d / "series.csv").write_text(series_text)
        got = {}
        got["forecast"], _ = run_in_process(["forecast", "--input", str(d / "series.csv"),
                                             "--output", str(d / "track.csv"),
                                             "--window-w", str(window_w), "--horizon", str(horizon)])
        if got["forecast"] == cli.EXIT_OK:
            got["bands"], stdout = run_in_process(["bands", "--input", str(d / "track.csv"),
                                                   "--output", str(d / "band.csv"),
                                                   "--window-days", str(window_days),
                                                   "--target", repr(target),
                                                   "--recal-every", str(recal_every)])
            if stdout:
                got["bands stdout"] = stdout
        got.update((path.name, path.read_bytes()) for path in d.iterdir() if path.name != "series.csv")
    assert got == want
