import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from conftest import make_series
from hypothesis import event, given, settings
from hypothesis import strategies as st

import solarband
from solarband import cli
from solarband.bands import calibrated_band, calibration_events
from solarband.decomposition import DEFAULT_WINDOW, extract_trend
from solarband.forecast import DEFAULT_HORIZON, trend_forecast
from solarband.normality import DegenerateSampleError
from solarband.report import score, scorecard_csv
from solarband.risk import volatility_track
from solarband.series import DaylightMask, emit_csv, ingest_csv
from solarband.synth import SynthConfig, generate


def run(*args):
    return cli.main(list(args))


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run("synth", "--output", str(out), "--days", "3", "--regime", "clear",
                   "--seed", "1") == 0
    assert a.read_bytes() == b.read_bytes()


def test_forecast_csv_round_trip(tmp_path):
    series_csv = tmp_path / "series.csv"
    track_csv = tmp_path / "track.csv"
    assert run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken",
               "--seed", "3") == 0
    assert run("forecast", "--input", str(series_csv), "--output", str(track_csv)) == 0

    text = track_csv.read_text()
    assert text.startswith(cli.FORECAST_CSV_HEADER + "\n")
    series = ingest_csv(series_csv.read_text())
    expected = trend_forecast(series, extract_trend(series, 120), 60)
    restored = cli.read_forecast_csv(text, horizon=60)
    assert restored.start_time == expected.start_time
    assert np.array_equal(restored.predicted, expected.predicted, equal_nan=True)
    assert np.array_equal(restored.realized, expected.realized, equal_nan=True)


def test_bands_subcommand_writes_alpha_history(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    track_csv = tmp_path / "track.csv"
    band_csv = tmp_path / "band.csv"
    run("synth", "--output", str(series_csv), "--days", "4", "--regime", "broken", "--seed", "5")
    run("forecast", "--input", str(series_csv), "--output", str(track_csv))
    assert run("bands", "--input", str(track_csv), "--output", str(band_csv)) == 0

    lines = band_csv.read_text().strip().split("\n")
    assert lines[0] == cli.BAND_CSV_HEADER
    first = lines[1].split(",")
    assert float(first[1]) <= float(first[2])  # lower <= upper
    history = capsys.readouterr().out.strip().split("\n")
    assert len(history) == 4  # one recalibration attempt per day
    assert history[0].endswith("alpha=unchanged")  # empty first window
    assert "alpha=" in history[1] and "unchanged" not in history[1]


def test_normtest_report_lines(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    track_csv = tmp_path / "track.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "clear", "--seed", "8")
    run("forecast", "--input", str(series_csv), "--output", str(track_csv))
    assert run("normtest", "--input", str(track_csv), "--level", "0.05") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == cli.NORMTEST_HEADER
    assert len(lines) == 4
    names = []
    for line in lines[1:]:
        name, n, stat, thr, level, reject = line.split(",")
        names.append(name)
        assert int(n) >= 8
        assert float(stat) >= 0 and float(thr) > 0
        assert level == "0.05"
        assert reject in ("true", "false")
    assert names == ["jarque_bera", "kolmogorov_smirnov", "lilliefors"]


def test_report_emits_scorecard_and_three_svgs(tmp_path):
    series_csv = tmp_path / "series.csv"
    outdir = tmp_path / "out"
    run("synth", "--output", str(series_csv), "--days", "5", "--regime", "broken", "--seed", "9")
    assert run("report", "--input", str(series_csv), "--output", str(outdir)) == 0
    assert (outdir / "scorecard.csv").exists()
    svgs = sorted(p.name for p in outdir.glob("*.svg"))
    assert svgs == ["histogram.svg", "monthly.svg", "zoom.svg"]
    header = (outdir / "scorecard.csv").read_text().split("\n")[0]
    assert header == "rmse,mae,nrmse,coverage,mean_band_width,n_scored"


def test_report_equals_composed_subcommands(tmp_path):
    """`report` must match the composition of synth -> forecast -> bands."""
    series_csv = tmp_path / "series.csv"
    track_csv = tmp_path / "track.csv"
    band_csv = tmp_path / "band.csv"
    outdir = tmp_path / "out"
    run("synth", "--output", str(series_csv), "--days", "5", "--regime", "broken", "--seed", "10")
    run("forecast", "--input", str(series_csv), "--output", str(track_csv))
    run("bands", "--input", str(track_csv), "--output", str(band_csv))
    run("report", "--input", str(series_csv), "--output", str(outdir))

    track = cli.read_forecast_csv(track_csv.read_text(), horizon=60)
    vol = volatility_track(track)
    mask = DaylightMask(
        start_time=track.start_time,
        flags=~np.isnan(track.realized) & (track.realized > 5.0), eps_day=5.0
    )
    band = calibrated_band(track, vol, mask)
    composed = scorecard_csv(score(track, band, mask))
    assert (outdir / "scorecard.csv").read_text() == composed

    # the band CSV carries the same frontiers the report used
    lines = band_csv.read_text().strip().split("\n")[1:]
    defined = ~np.isnan(band.lower)
    assert len(lines) == int(defined.sum())
    first_defined = int(np.flatnonzero(defined)[0])
    assert lines[0].split(",")[1] == repr(float(band.lower[first_defined]))


def test_report_is_byte_deterministic(tmp_path):
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "4", "--regime", "broken", "--seed", "11")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for outdir in (out1, out2):
        assert run("report", "--input", str(series_csv), "--output", str(outdir)) == 0
    for name in ("scorecard.csv", "monthly.svg", "zoom.svg", "histogram.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# Run in a fresh interpreter in an empty directory: prints {artifact: sha256} for a
# lone-window fit of 100,000 seeded samples and for every file and stdout of a
# 4-day chain.
_ENVIRONMENT_CHILD = """
import contextlib, hashlib, io, json
from datetime import datetime, timezone
from pathlib import Path
import numpy as np
from solarband import cli
from solarband.decomposition import extract_trend
from solarband.series import IrradianceSeries

digest = lambda data: hashlib.sha256(data).hexdigest()
values = np.random.default_rng(5).uniform(0.0, 1200.0, 100_000)
start = datetime(2021, 3, 1, tzinfo=timezone.utc)
fit = extract_trend(IrradianceSeries(start_time=start, values=values), values.size)
hashes = {f"fit.{name}": digest(getattr(fit, name).tobytes())
          for name in ("trend", "fluctuation", "slope")}
chain = [
    ("synth", "--days", "4", "--seed", "3", "--output", "series.csv"),
    ("forecast", "--input", "series.csv", "--output", "track.csv"),
    ("bands", "--input", "track.csv", "--output", "band.csv", "--window-days", "1",
     "--recal-every", "60"),
    ("normtest", "--input", "track.csv"),
    ("report", "--input", "series.csv", "--output", "report"),
]
for args in chain:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(list(args)) == 0, args
    if args[0] in ("bands", "normtest"):
        hashes[f"{args[0]}.stdout"] = digest(text.getvalue().encode())
for path in sorted(Path().rglob("*")):
    if path.is_file():
        hashes[path.as_posix()] = digest(path.read_bytes())
print(json.dumps(hashes))
"""


def test_artifacts_do_not_depend_on_blas_threads_hash_seed_or_zone(tmp_path):
    """A lone window's slope was a BLAS dot, whose bits moved with OPENBLAS_NUM_THREADS."""
    package_root = str(Path(solarband.__file__).resolve().parents[1])
    runs = []
    for name, threads, hash_seed, zone in (("a", "1", "0", "UTC"),
                                           ("b", "2", "random", "Pacific/Chatham")):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONHASHSEED=hash_seed, TZ=zone,
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                            os.environ.get("PYTHONPATH")])))
        out = tmp_path / name
        out.mkdir()
        child = subprocess.run([sys.executable, "-c", _ENVIRONMENT_CHILD], cwd=out, env=env,
                               capture_output=True, text=True, check=True, timeout=300)
        runs.append(json.loads(child.stdout))
    first, second = runs
    assert len(first) == 3 + 2 + 7  # fit arrays, two stdouts, four CSVs and three SVGs
    assert sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k)) == []


def test_zoom_flags(tmp_path):
    series_csv = tmp_path / "series.csv"
    outdir = tmp_path / "out"
    run("synth", "--output", str(series_csv), "--days", "4", "--regime", "broken", "--seed", "12")
    assert run(
        "report", "--input", str(series_csv), "--output", str(outdir),
        "--from", "2021-05-30T12:00:00Z", "--to", "2021-05-31T00:00:00Z",
    ) == 0
    # an empty zoom window is a data error
    assert run(
        "report", "--input", str(series_csv), "--output", str(outdir),
        "--from", "2022-01-01T00:00:00Z", "--to", "2022-01-02T00:00:00Z",
    ) == cli.EXIT_DATA
    # half a zoom range is a data error too
    assert run(
        "report", "--input", str(series_csv), "--output", str(outdir),
        "--from", "2021-05-30T12:00:00Z",
    ) == cli.EXIT_DATA


def test_lilliefors_table_subcommand(tmp_path):
    out = tmp_path / "table.csv"
    assert run("lilliefors-table", "--output", str(out), "--seed", "7",
               "--replicates", "1000") == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,level,critical"
    assert len(lines) == 1 + 27 * 5  # sizes x levels
    again = tmp_path / "again.csv"
    run("lilliefors-table", "--output", str(again), "--seed", "7", "--replicates", "1000")
    assert out.read_bytes() == again.read_bytes()


def test_exit_codes(tmp_path):
    # usage error: argparse exits 2
    for argv in (["frobnicate"], ["normtest", "--input", "t.csv", "--horizon", "30"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE
    # data error: missing input file
    assert run("forecast", "--input", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "o.csv")) == cli.EXIT_DATA
    # data error: malformed CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    assert run("forecast", "--input", str(bad), "--output",
               str(tmp_path / "o.csv")) == cli.EXIT_DATA
    # uncalibratable window: a single-day run never reaches a populated window
    series_csv = tmp_path / "short.csv"
    track_csv = tmp_path / "short_track.csv"
    run("synth", "--output", str(series_csv), "--days", "1", "--regime", "clear", "--seed", "1")
    run("forecast", "--input", str(series_csv), "--output", str(track_csv))
    assert run("bands", "--input", str(track_csv), "--output",
               str(tmp_path / "b.csv")) == cli.EXIT_UNCALIBRATABLE


def test_any_recal_every_beyond_the_track_is_uncalibratable(tmp_path):
    """A step past int64 once crashed with IndexError; each leaves the track without a grid point."""
    series_csv = tmp_path / "series.csv"
    track_csv = tmp_path / "track.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken", "--seed", "4")
    run("forecast", "--input", str(series_csv), "--output", str(track_csv))
    for recal_every in (2**62, 2**63 - 1, 2**63, 2**64, 10**400):
        assert run("bands", "--input", str(track_csv), "--output", str(tmp_path / "b.csv"),
                   "--recal-every", str(recal_every)) == cli.EXIT_UNCALIBRATABLE


def test_negative_value_is_data_error(tmp_path):
    bad = tmp_path / "neg.csv"
    bad.write_text("timestamp,ghi_wm2\n2021-01-01T00:00:00Z,-4\n")
    assert run("forecast", "--input", str(bad), "--output",
               str(tmp_path / "o.csv")) == cli.EXIT_DATA


def test_nonfinite_track_value_is_data_error(tmp_path):
    bad = tmp_path / "inf.csv"
    bad.write_text("timestamp,predicted_wm2,realized_wm2\n2021-01-01T00:00:00Z,inf,5\n")
    assert run("bands", "--input", str(bad), "--output",
               str(tmp_path / "o.csv")) == cli.EXIT_DATA


def test_negative_track_value_is_data_error(tmp_path, capsys):
    header = "timestamp,predicted_wm2,realized_wm2\n"
    for row in ("2021-01-01T00:00:00Z,-5,3\n", "2021-01-01T00:00:00Z,5,-3\n"):
        with pytest.raises(cli.TrackCsvError, match="line 3: negative"):
            cli.read_forecast_csv(header + "2020-12-31T23:59:00Z,1,1\n" + row, horizon=60)
        bad = tmp_path / "neg.csv"
        bad.write_text(header + row)
        assert run("bands", "--input", str(bad), "--output",
                   str(tmp_path / "o.csv")) == cli.EXIT_DATA
        assert "line 2: negative" in capsys.readouterr().err


def test_out_of_range_flags_are_data_errors(tmp_path):
    series_csv = tmp_path / "series.csv"
    track_csv = tmp_path / "track.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "clear", "--seed", "2")
    run("forecast", "--input", str(series_csv), "--output", str(track_csv))
    assert run("bands", "--input", str(track_csv), "--output", str(tmp_path / "b.csv"),
               "--window-days", "0") == cli.EXIT_DATA
    assert run("report", "--input", str(series_csv), "--output", str(tmp_path / "out"),
               "--window-days", "0") == cli.EXIT_DATA
    # the daylight threshold is checked by the one daylight rule; NaN would flag no sample
    for eps_day in ("-1", "nan"):
        assert run("bands", "--input", str(track_csv), "--output", str(tmp_path / "b.csv"),
                   "--eps-day", eps_day) == cli.EXIT_DATA
        assert run("normtest", "--input", str(track_csv), "--eps-day", eps_day) == cli.EXIT_DATA
        assert run("report", "--input", str(series_csv), "--output", str(tmp_path / "out"),
                   "--eps-day", eps_day) == cli.EXIT_DATA


def test_bands_and_report_calibrate_once(tmp_path, monkeypatch):
    from solarband import bands as bands_mod

    calls = []
    original = bands_mod.calibration_events

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bands_mod, "calibration_events", counted)
    series_csv = tmp_path / "series.csv"
    track_csv = tmp_path / "track.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken", "--seed", "6")
    run("forecast", "--input", str(series_csv), "--output", str(track_csv))
    assert run("bands", "--input", str(track_csv), "--output", str(tmp_path / "b.csv")) == 0
    assert len(calls) == 1
    assert run("report", "--input", str(series_csv), "--output", str(tmp_path / "out")) == 0
    assert len(calls) == 2


def test_grid_span_cap_is_a_data_error(tmp_path, capsys):
    """A 2-row file spanning 90 years is refused before its grid is allocated."""
    series_csv = tmp_path / "series.csv"
    series_csv.write_text("timestamp,ghi_wm2\n2000-01-01T00:00:00Z,1\n2090-01-01T00:00:00Z,1\n")
    assert run("forecast", "--input", str(series_csv), "--output", str(tmp_path / "t.csv")) == cli.EXIT_DATA
    assert "line 3: grid longer than MAX_GRID_MINUTES" in capsys.readouterr().err
    track_csv = tmp_path / "track.csv"
    track_csv.write_text(
        f"{cli.FORECAST_CSV_HEADER}\n2000-01-01T00:00:00Z,1,1\n2090-01-01T00:00:00Z,1,1\n"
    )
    assert run("bands", "--input", str(track_csv), "--output", str(tmp_path / "b.csv")) == cli.EXIT_DATA
    assert "line 3: grid longer than MAX_GRID_MINUTES" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "b.csv").exists()


def test_calibration_flags_checked_without_a_recalibration_point(tmp_path):
    """A 10-hour track from 01:00 UTC holds no daily recalibration point, and bad flags still exit 3."""
    rows = [
        f"2021-06-01T{1 + k // 60:02d}:{k % 60:02d}:00Z,{100 + k % 7},{100 + k % 5}" for k in range(600)
    ]
    track_csv = tmp_path / "track.csv"
    track_csv.write_text("\n".join([cli.FORECAST_CSV_HEADER, *rows]) + "\n")
    band_csv = str(tmp_path / "b.csv")
    assert run("bands", "--input", str(track_csv), "--output", band_csv) == cli.EXIT_UNCALIBRATABLE
    for flags in (("--window-days", "0"), ("--target", "5")):
        assert run("bands", "--input", str(track_csv), "--output", band_csv, *flags) == cli.EXIT_DATA


def test_bad_zoom_writes_nothing(tmp_path):
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "4", "--regime", "broken", "--seed", "12")
    outdir = tmp_path / "out"
    outdir.mkdir()
    for zoom in (
        ("--from", "2022-01-01T00:00:00Z", "--to", "2022-01-02T00:00:00Z"),  # empty window
        ("--from", "2021-05-30T12:00:00Z"),  # half a range
        ("--from", "2021-05-30T12:00:30Z", "--to", "2021-05-31T00:00:00Z"),  # off the minute grid
    ):
        assert run("report", "--input", str(series_csv), "--output", str(outdir), *zoom) == cli.EXIT_DATA
        assert list(outdir.iterdir()) == []


def test_failed_report_writes_nothing(tmp_path, monkeypatch):
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken", "--seed", "12")

    def unsplittable(sample, bins):
        raise DegenerateSampleError(f"span cannot be split into {bins} bins")

    monkeypatch.setattr("solarband.report.diff_histogram", unsplittable)
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert run("report", "--input", str(series_csv), "--output", str(outdir)) == cli.EXIT_DATA
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("horizon", ["3000", "2800"])
def test_forecast_with_no_defined_prediction_is_a_data_error(tmp_path, capsys, horizon):
    """On 2,880 samples, 3000 passes the series and 2800 leaves no full trend window that far back."""
    series_csv = tmp_path / "series.csv"
    track_csv = tmp_path / "track.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken", "--seed", "9")
    assert run("forecast", "--input", str(series_csv), "--output", str(track_csv),
               "--horizon", horizon) == cli.EXIT_DATA
    assert "no defined prediction" in capsys.readouterr().err
    assert not track_csv.exists()


@pytest.mark.parametrize("scale", [1e80, 1e200])
def test_normtest_moments_beyond_double_range_are_a_data_error(tmp_path, capsys, scale):
    """At 1e80 jarque_bera's m2**2 raised OverflowError (exit 1); at 1e200 it blamed zero variance."""
    rng = np.random.default_rng(10)
    realized = scale * rng.uniform(1.0, 3.0, 200)
    rows = [
        f"2021-06-01T{10 + k // 60:02d}:{k % 60:02d}:00Z,{scale!r},{value!r}"
        for k, value in enumerate(realized.tolist())
    ]
    track_csv = tmp_path / "track.csv"
    track_csv.write_text("\n".join([cli.FORECAST_CSV_HEADER, *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("normtest", "--input", str(track_csv)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "DegenerateSampleError" in err and "overflow" in err


@pytest.mark.parametrize("flags, field", [
    (("--peak", "inf"), "clear_sky_peak"),
    (("--seed", "-1"), "seed"),
])
def test_synth_infinite_peak_or_negative_seed_is_a_data_error(tmp_path, capsys, flags, field):
    """inf * 0 at night wrote NaN samples (or warned); -1 reached numpy's own seed error."""
    out = tmp_path / "series.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("synth", "--output", str(out), *flags) == cli.EXIT_DATA
    assert f"ValueError: {field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, field", [
    (("--seed", "-1"), "seed"),
    (("--replicates", str(10**13)), "replicates"),
    (("--replicates", str(2**63)), "replicates"),
])
def test_lilliefors_table_negative_seed_or_huge_replicates_is_a_data_error(
    tmp_path, capsys, flags, field
):
    """-1 reached numpy's unnamed seed error; 10**13 replicates ended in an allocation traceback."""
    out = tmp_path / "table.csv"
    assert run("lilliefors-table", "--output", str(out), *flags) == cli.EXIT_DATA
    assert f"ValueError: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_report_error_spread_beyond_double_range_writes_nothing(tmp_path, capsys):
    """The histogram's std overflowed and its normal curve was drawn as all zero, exit 0."""
    series = generate(SynthConfig(days=3, cloud_regime="broken", seed=4))
    values = series.values[600:].copy()  # from 10:00 UTC, in daylight
    # The first 60 defined predictions have no volatility forecast, so they are
    # binned but neither calibrated nor scored; the gap after them keeps the huge
    # values out of every later trend window.
    first = DEFAULT_WINDOW - 1 + DEFAULT_HORIZON
    values[first : first + 60] = 1e160 * np.random.default_rng(0).uniform(1.0, 2.0, 60)
    lines = emit_csv(make_series(values, series.start_time + timedelta(minutes=600))).split("\n")
    del lines[1 + first + 60 : 1 + first + 260]
    series_csv = tmp_path / "series.csv"
    series_csv.write_text("\n".join(lines))
    outdir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("report", "--input", str(series_csv), "--output", str(outdir)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "DegenerateSampleError" in err and "overflow" in err
    assert not outdir.exists()


def test_report_scores_beyond_double_range_write_nothing(tmp_path, capsys):
    """The scorecard's rmse and nrmse were inf, with an overflow RuntimeWarning."""
    values = np.zeros(4 * 1440)
    rng = np.random.default_rng(0)
    for day in range(4):
        values[day * 1440 + 360 : day * 1440 + 1080] = rng.uniform(1e160, 2e160, 720)
    series_csv = tmp_path / "series.csv"
    series_csv.write_text(emit_csv(make_series(values)))
    outdir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("report", "--input", str(series_csv), "--output", str(outdir)) == cli.EXIT_DATA
    assert "NonFiniteScoreError: rmse, nrmse overflow double precision" in capsys.readouterr().err
    assert not outdir.exists()


def test_a_trend_beyond_double_range_writes_nothing(tmp_path, capsys):
    """forecast wrote 245 inf cells (exit 0), or ended in a RuntimeWarning traceback."""
    values = np.zeros(4 * 1440)
    rng = np.random.default_rng(0)
    for day in range(4):
        values[day * 1440 + 360 : day * 1440 + 1080] = rng.uniform(1e307, 1.7e308, 720)
    series_csv = tmp_path / "series.csv"
    series_csv.write_text(emit_csv(make_series(values)))
    track_csv, outdir = tmp_path / "track.csv", tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("forecast", "--input", str(series_csv), "--output", str(track_csv)) == cli.EXIT_DATA
        assert run("report", "--input", str(series_csv), "--output", str(outdir)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("NonFiniteTrendError: ") == 2 and "overflow double precision" in err
    assert not track_csv.exists() and not outdir.exists()


def _huge_track_csv(path):
    """A 3-day track whose predicted and realized values alternate between 1e307 and 1.7e308."""
    start = np.datetime64("2021-06-01T00:00")
    rows = [
        f"{start + np.timedelta64(k, 'm')}:00Z,{a!r},{b!r}"
        for k in range(3 * 1440)
        for a, b in [(1e307, 1.7e308) if k % 2 else (1.7e308, 1e307)]
    ]
    path.write_text("\n".join([cli.FORECAST_CSV_HEADER, *rows]) + "\n")


def test_bands_with_an_overflowing_frontier_writes_nothing(tmp_path, capsys):
    """2,159 upper frontiers were written as inf, with an overflow RuntimeWarning, exit 0."""
    track_csv, band_csv = tmp_path / "track.csv", tmp_path / "band.csv"
    _huge_track_csv(track_csv)
    assert run("bands", "--input", str(track_csv), "--output", str(band_csv),
               "--horizon", "1") == cli.EXIT_DATA
    assert "NonFiniteBandError: upper frontier at index 2 overflows" in capsys.readouterr().err
    assert not band_csv.exists()


def test_each_subcommand_builds_one_daylight_mask(tmp_path, monkeypatch):
    """cli bound daylight_mask at import, so a patch on the series module saw none of its calls."""
    from solarband import series as series_mod

    calls = []
    original = series_mod.daylight_mask

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(series_mod, "daylight_mask", counted)
    series_csv, track_csv = tmp_path / "series.csv", tmp_path / "track.csv"
    run("synth", "--output", str(series_csv), "--days", "3", "--seed", "6")
    run("forecast", "--input", str(series_csv), "--output", str(track_csv))
    for argv in (("bands", "--input", str(track_csv), "--output", str(tmp_path / "b.csv")),
                 ("normtest", "--input", str(track_csv)),
                 ("report", "--input", str(series_csv), "--output", str(tmp_path / "out"))):
        calls.clear()
        assert run(*argv) == 0
        assert len(calls) == 1, argv[0]


# ---------------------------------------------------------------------------
# the CLI contract: every run exits 0, 2, 3 or 4, and a failed run writes nothing
# ---------------------------------------------------------------------------

HOSTILE = ("0", "-1", str(2**31), str(2**63), str(10**20), "nan", "inf", "-inf", "-0.0", "5e-324")
_CALIBRATION = ("--horizon", "--eps-day", "--target", "--window-days", "--recal-every")
FLAGS = {
    "synth": ("--days", "--seed", "--latitude", "--day-of-year", "--peak"),
    "forecast": ("--window-w", "--horizon"),
    "bands": _CALIBRATION,
    "normtest": ("--eps-day", "--level"),
    "report": ("--window-w", *_CALIBRATION, "--from", "--to"),
    "lilliefors-table": ("--seed", "--replicates"),
}
# No drawn replicate count may allocate: each is refused before the table is simulated.
assert not any(1000 <= int(v) <= solarband.normality.MAX_REPLICATES
               for v in HOSTILE if v.lstrip("-").isdigit())


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """A directory of small valid files and mutated ones, and the names to draw inputs from."""
    d = tmp_path_factory.mktemp("contract")
    series_csv, track_csv = d / "series.csv", d / "track.csv"
    assert run("synth", "--output", str(series_csv), "--days", "3", "--seed", "2") == 0
    assert run("forecast", "--input", str(series_csv), "--output", str(track_csv)) == 0
    series_lines = series_csv.read_text().split("\n")
    track_lines = track_csv.read_text().split("\n")
    huge = np.zeros(3 * 1440)
    huge[360:1080] = 1.7e308  # its trend windows overflow
    texts = {
        "huge_series.csv": emit_csv(make_series(huge)),
        "negative.csv": "\n".join([*series_lines[:700], series_lines[700].replace(",", ",-"),
                                   *series_lines[701:]]),
        "nan_cell.csv": "\n".join([*track_lines[:500], track_lines[500].rsplit(",", 1)[0] + ",nan",
                                   *track_lines[501:]]),
        "truncated.csv": "\n".join([*series_lines[:900], series_lines[900][:13]]),
        "one_row.csv": "\n".join(series_lines[:2]) + "\n",
        "header_only.csv": track_lines[0] + "\n",
        "empty.csv": "",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    _huge_track_csv(d / "huge_track.csv")
    (d / "a_directory").mkdir()
    return d, ["series.csv", "track.csv", "huge_track.csv", *texts, "a_directory", "missing.csv"]


def _snapshot(path):
    """The bytes of a file, or of every file under a directory, or None if absent."""
    if path.is_dir():
        return {p.relative_to(path).as_posix(): p.read_bytes() for p in path.rglob("*") if p.is_file()}
    return path.read_bytes() if path.exists() else None


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_every_run_exits_0_2_3_or_4_and_a_failed_run_writes_nothing(contract_inputs, data):
    inputs, names = contract_inputs
    sub = data.draw(st.sampled_from(sorted(FLAGS)), label="subcommand")
    argv = [sub]
    if sub not in ("synth", "lilliefors-table"):
        valid = "series.csv" if sub in ("forecast", "report") else "track.csv"
        name = data.draw(st.one_of(st.just(valid), st.sampled_from(names)), label="input")
        argv.append(f"--input={inputs / name}")
    flags = data.draw(st.lists(st.sampled_from(FLAGS[sub]), unique=True, max_size=3), label="flags")
    argv += [f"{flag}={data.draw(st.sampled_from(HOSTILE), label=flag)}" for flag in flags]
    if sub == "lilliefors-table" and "--replicates" not in flags:
        argv.append("--replicates=1000")  # the smallest table, about 0.4 s
    kinds = ("absent", "file", "directory") + (("omitted",) if sub == "normtest" else ())
    kind = data.draw(st.sampled_from(kinds), label="output")
    with tempfile.TemporaryDirectory(dir=inputs) as scratch:
        out = Path(scratch) / "out"
        if kind == "file":
            out.write_text("kept\n")
        elif kind == "directory":
            out.mkdir()
            (out / "kept.txt").write_text("kept\n")
        if kind != "omitted":
            argv.append(f"--output={out}")
        before = _snapshot(out)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
        event(f"{sub} exit {code}")
        assert code in (0, 2, 3, 4), argv
        if code != 0:
            assert _snapshot(out) == before, argv
