import contextlib
import gc
import hashlib
import io
import json
import os
import re
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
from solarband import cli, normality
from solarband import series as series_mod
from solarband.bands import calibrated_band, calibration_events
from solarband.decomposition import DEFAULT_WINDOW, extract_trend
from solarband.forecast import DEFAULT_HORIZON, trend_forecast
from solarband.normality import DegenerateSampleError
from solarband.report import score, scorecard_csv
from solarband.risk import volatility_track
from solarband.series import (MAX_GRID_MINUTES, DaylightMask, SeriesCsvError, daylight_mask, emit_csv,
                              ingest_csv)
from solarband.synth import SynthConfig, generate


def run(*args):
    return cli.main(list(args))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run("synth", "--output", str(out), "--days", "3", "--regime", "clear",
                   "--seed", "1") == 0
    assert a.read_bytes() == b.read_bytes()


def test_each_synth_flag_defaults_to_its_synth_config_field():
    args = cli.build_parser().parse_args(["synth", "--output", "series.csv"])
    flags = {"latitude": "latitude", "day_of_year": "day_of_year", "days": "days",
             "clear_sky_peak": "peak", "cloud_regime": "regime", "seed": "seed"}
    assert sorted(flags) == sorted(vars(SynthConfig()))
    for field, flag in flags.items():
        assert getattr(args, flag) == getattr(SynthConfig(), field), flag


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
    restored = cli.read_forecast_csv(text)
    assert restored.start_time == expected.start_time and restored.horizon == 60
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


@pytest.mark.parametrize("level", [1e-5, 0.123456789012])
def test_normtest_report_writes_its_level_as_every_float(level):
    """``:g`` wrote these levels as 1e-05 and 0.123457; the second does not parse back."""
    x = np.random.default_rng(0).standard_normal(200)
    reports = [normality.jarque_bera(x, level), normality.ks_normal(x, level)]
    for row in cli.normtest_report_csv(reports).splitlines()[1:]:
        field = row.split(",")[4]
        assert field == series_mod.format_value(level) and float(field) == level


def test_report_emits_scorecard_and_three_svgs(tmp_path):
    series_csv = tmp_path / "series.csv"
    outdir = tmp_path / "out"
    run("synth", "--output", str(series_csv), "--days", "5", "--regime", "broken", "--seed", "9")
    assert run("report", "--input", str(series_csv), "--output", str(outdir)) == 0
    # exactly the four files, no temporary one, each with the mode a plain write gives
    modes = {p.name: p.stat().st_mode for p in outdir.iterdir()}
    assert modes == dict.fromkeys(["histogram.svg", "monthly.svg", "scorecard.csv", "zoom.svg"],
                                  series_csv.stat().st_mode)
    header = (outdir / "scorecard.csv").read_text().split("\n")[0]
    assert header == "rmse,mae,nrmse,coverage,mean_band_width,n_scored"


def test_scorecard_values_below_1e_4_are_plain_decimals(tmp_path):
    """``repr`` wrote this rmse as 2.2081109128458586e-05, where every other file writes decimals."""
    series_csv, outdir = tmp_path / "series.csv", tmp_path / "out"
    assert run("synth", "--output", str(series_csv), "--days", "4", "--peak", "0.0001", "--seed", "3") == 0
    assert run("report", "--input", str(series_csv), "--output", str(outdir), "--eps-day", "0") == 0
    header, row = (outdir / "scorecard.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert not any("e" in cell.lower() for cell in cells.values())
    assert float(cells["rmse"]) == 2.2081109128458586e-05 and cells["n_scored"] == "3760"


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

    track = cli.read_forecast_csv(track_csv.read_text())
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


def test_bands_reads_the_horizon_forecast_wrote(tmp_path):
    """bands read every track at 60 minutes, so a 30-minute track got another band, exit 0."""
    series_csv, track_csv, band_csv = tmp_path / "series.csv", tmp_path / "track.csv", tmp_path / "band.csv"
    run("synth", "--output", str(series_csv), "--days", "3", "--seed", "2")
    assert run("forecast", "--input", str(series_csv), "--output", str(track_csv), "--horizon", "30") == 0
    assert track_csv.read_text().startswith("timestamp,predicted_30min_wm2,realized_wm2\n")
    assert run("bands", "--input", str(track_csv), "--output", str(band_csv)) == 0

    series = ingest_csv(series_csv.read_text())
    track = trend_forecast(series, extract_trend(series, DEFAULT_WINDOW), 30)
    band = calibrated_band(track, volatility_track(track), daylight_mask(series))
    # compared by digest: pytest's diff of two unequal 250 kB texts takes minutes
    assert _sha256(band_csv.read_bytes()) == _sha256(cli.write_band_csv(band).encode())


# sha256 of a 3-day default-horizon chain (synth --days 3 --seed 2, then every subcommand
# with default flags, and report over a 12-hour zoom too) and of a fit over several blocks;
# the track, band and bands stdout were recorded before the track header named its horizon
PINNED_CHAIN = {
    "track.csv": "dec923c8821ec4823cee17614a4da3a198b4442ad863e7a8d4654ab93cb43453",
    "band.csv": "823fa4bc17077fe5d276b23f8425ea202e025f338338d43a3a7b397f85a02ff3",
    "bands.stdout": "20f35f48eac81f75a9cd6669e89573e1ec0bea785d53f1776b6c81ddce5e3fbd",
    "normtest.kolmogorov_smirnov": "a5205c5e9abd7688ccffb83f58e5c19dda326b6e9fd7ec3d4228431bde27a566",
    "normtest.lilliefors": "9eb8d493b178536ca39e71b14db922a2b51a40ba7354564d9b35adf6a16043a7",
    "report/histogram.svg": "ed161d009e876dff7d6f752c752f5dd1ac2d2433b0b85f99294e02ba977e2320",
    "report/monthly.svg": "ba77ed8381e743fa76b8819c07f34c65fe62cd603e089f194bc4a8bb899d3f4e",
    "report/scorecard.csv": "78d31a3f25264917ca53f0be5e9d2cde7b75f110b6019371529a1d50a40d11b4",
    "report/zoom.svg": "8771400e0ec4e114b025b2d928a0c950a9d97a5a9e1d4fb994609b220ebe1323",
    "report_zoom/histogram.svg": "ed161d009e876dff7d6f752c752f5dd1ac2d2433b0b85f99294e02ba977e2320",
    "report_zoom/monthly.svg": "ba77ed8381e743fa76b8819c07f34c65fe62cd603e089f194bc4a8bb899d3f4e",
    "report_zoom/scorecard.csv": "78d31a3f25264917ca53f0be5e9d2cde7b75f110b6019371529a1d50a40d11b4",
    "report_zoom/zoom.svg": "c06a422ee65b450a9fac843810e10372742d99a32f5bbe4e962be9ec76100249",
    "lilliefors-table.csv": "2aa83ee1bbb225e9779a179f871d1c4c13001d93796618ef7067cc5730285f08",
    "fit.trend": "175c40e7625b4388b7f8a2e5ef218862f29bd23d47fdeed4a6d829ffc8c3c014",
    "fit.slope": "942b7b280da049634a591a55e127af1a5ffacc774508871285bb85224a605ca1",
    "fit.fluctuation": "5f44cd48ac8949f8517cdc0dd12596b925ba0ed6c72bd07be6046b0a718c119a",
}


def _chain(tmp_path, capsys, series_csv):
    """The track, band, bands stdout, normtest rows and report with and without a 12-hour zoom.

    The ``jarque_bera`` row of ``normtest`` is left out: its cube and fourth
    power take numpy's ``power``, whose last bits follow the CPU's SIMD dispatch.
    """
    track_csv, band_csv = tmp_path / "track.csv", tmp_path / "band.csv"
    assert run("forecast", "--input", str(series_csv), "--output", str(track_csv)) == 0
    capsys.readouterr()
    assert run("bands", "--input", str(track_csv), "--output", str(band_csv)) == 0
    got = {"track.csv": track_csv.read_bytes(), "band.csv": band_csv.read_bytes(),
           "bands.stdout": capsys.readouterr().out.encode()}
    assert run("normtest", "--input", str(track_csv)) == 0
    for row in capsys.readouterr().out.splitlines()[1:]:
        if not row.startswith("jarque_bera,"):
            got[f"normtest.{row.split(',')[0]}"] = row.encode()
    zoom = ("--from", "2021-05-31T06:00:00Z", "--to", "2021-05-31T18:00:00Z")
    for out, flags in (("report", ()), ("report_zoom", zoom)):
        assert run("report", "--input", str(series_csv), "--output", str(tmp_path / out), *flags) == 0
        got.update({f"{out}/{path.name}": path.read_bytes() for path in (tmp_path / out).iterdir()})
    return got


def test_default_horizon_chain_bytes_are_pinned(tmp_path, capsys):
    """Every artifact of a 3-day chain, and a fit over three blocks of windows and a tail."""
    series_csv = tmp_path / "series.csv"
    assert run("synth", "--output", str(series_csv), "--days", "3", "--seed", "2") == 0
    got = _chain(tmp_path, capsys, series_csv)
    table_csv = tmp_path / "table.csv"
    assert run("lilliefors-table", "--output", str(table_csv), "--replicates", "1000") == 0
    got["lilliefors-table.csv"] = table_csv.read_bytes()
    values = np.random.default_rng(5).uniform(0.0, 1200.0, 3 * series_mod.BLOCK + 119)
    fit = extract_trend(make_series(values), 120)
    got.update({f"fit.{name}": getattr(fit, name).tobytes() for name in ("trend", "slope", "fluctuation")})
    assert {name: _sha256(data) for name, data in got.items()} == PINNED_CHAIN


# sha256 of the same chain over the 3-day series with the data rows [a, b) dropped (a 6-hour
# outage among them), 3,902 of 4,320 kept: its 1,893 daylight errors fall between two
# Lilliefors table sizes, so the lilliefors row pins the table's interpolation
GAPPY_DROPS = ((400, 407), (1500, 1860), (2400, 2430), (3100, 3103), (3900, 3918))
PINNED_GAPPY_CHAIN = {
    "track.csv": "816a521870ac2b2d8b2290c756f46a8bb02b36eae2ec4c9d41fd85a5e444f260",
    "band.csv": "03c6f384706e63b18c4d957d1e13341e010d5c0fa5fe45ecb79ac39e48f11462",
    "bands.stdout": "8deb629964698c5f7a1e51b52d5b504e19a04be4a8badf330529353a0493da03",
    "normtest.kolmogorov_smirnov": "8b61b823c094c54b01b07cfdd7b2c288f2e3e6c23a640e6c0894d3b00bc54891",
    "normtest.lilliefors": "3bd28f7f87cb1bcaae12fb361a01f255ba598b50be691cd8c25f140ae496e0c6",
    "report/histogram.svg": "76b8cea76b253ce91e60edaa00f955f8daf750d57fd4a97d6bea92052e1256c3",
    "report/monthly.svg": "7986c7c9c5432c1bbe96009d7057e3600d2fbe3c67ddea6be62f42410306c50b",
    "report/scorecard.csv": "8bd81ef2b0c3932c761cfd768a848719bd80f408d2c1e0b493e429233e72ee61",
    "report/zoom.svg": "75793ae102cec86f7ad49e5e2e0866be7aa1f1438dcacc59846b48ee3069bf31",
    "report_zoom/histogram.svg": "76b8cea76b253ce91e60edaa00f955f8daf750d57fd4a97d6bea92052e1256c3",
    "report_zoom/monthly.svg": "7986c7c9c5432c1bbe96009d7057e3600d2fbe3c67ddea6be62f42410306c50b",
    "report_zoom/scorecard.csv": "8bd81ef2b0c3932c761cfd768a848719bd80f408d2c1e0b493e429233e72ee61",
    "report_zoom/zoom.svg": "00050d6037dcbae3010f03a548ace31f5d7d7ef3add315d80395228d2ee9b53e",
}


def test_gappy_chain_bytes_are_pinned(tmp_path, capsys):
    series_csv = tmp_path / "series.csv"
    assert run("synth", "--output", str(series_csv), "--days", "3", "--seed", "2") == 0
    header, *rows = series_csv.read_text().splitlines()
    for a, b in reversed(GAPPY_DROPS):
        del rows[a:b]
    assert len(rows) == 3902
    series_csv.write_text("\n".join([header, *rows]) + "\n")
    got = _chain(tmp_path, capsys, series_csv)
    assert {name: _sha256(data) for name, data in got.items()} == PINNED_GAPPY_CHAIN


# Run in a fresh interpreter in an empty directory, pinned to one CPU if given "pin":
# prints {artifact: sha256} for a lone-window fit of 100,000 seeded samples, a fit
# of three blocks of windows and a tail, a jarque_bera over two blocks, and
# every file and stdout of a 4-day chain.
_ENVIRONMENT_CHILD = """
import contextlib, hashlib, io, json, os, sys
from datetime import datetime, timezone
from pathlib import Path
import numpy as np
from solarband import cli, normality, series
from solarband.decomposition import extract_trend
from solarband.series import IrradianceSeries

if sys.argv[1:] == ["pin"] and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
digest = lambda data: hashlib.sha256(data).hexdigest()
rng = np.random.default_rng(5)
start = datetime(2021, 3, 1, tzinfo=timezone.utc)
hashes = {}
for fit_name, n, window in (("fit", 100_000, 100_000),
                            ("blocks", 3 * series.BLOCK + 119, 120)):
    values = rng.uniform(0.0, 1200.0, n)
    fit = extract_trend(IrradianceSeries(start_time=start, values=values), window)
    hashes.update({f"{fit_name}.{name}": digest(getattr(fit, name).tobytes())
                   for name in ("trend", "fluctuation", "slope")})
sample = rng.standard_normal(2 * series.BLOCK)
hashes["jarque_bera"] = normality.jarque_bera(sample).statistic.hex()
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


def _child_env(**overrides):
    """This environment with ``overrides``, importing this checkout's solarband first."""
    package_root = str(Path(solarband.__file__).resolve().parents[1])
    return dict(os.environ, **overrides, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_artifacts_do_not_depend_on_blas_threads_hash_seed_or_zone(tmp_path):
    """A lone window's slope was a BLAS dot, whose bits moved with OPENBLAS_NUM_THREADS.

    The first child is also pinned to one CPU, so the fit's blocks and the
    power passes run in one thread there and on every usable CPU in the other.
    """
    runs = []
    for name, threads, hash_seed, zone, pin in (("a", "1", "0", "UTC", ["pin"]),
                                                ("b", "2", "random", "Pacific/Chatham", [])):
        env = _child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                         PYTHONHASHSEED=hash_seed, TZ=zone)
        out = tmp_path / name
        out.mkdir()
        child = subprocess.run([sys.executable, "-c", _ENVIRONMENT_CHILD, *pin], cwd=out,
                               env=env, capture_output=True, text=True, check=True, timeout=300)
        runs.append(json.loads(child.stdout))
    first, second = runs
    assert len(first) == 2 * 3 + 1 + 2 + 7  # fit arrays, the statistic, stdouts, CSVs and SVGs
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
    for argv in (["frobnicate"], ["normtest", "--input", "t.csv", "--horizon", "30"],
                 ["bands", "--input", "t.csv", "--output", "b.csv", "--horizon", "30"]):
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
        with pytest.raises(SeriesCsvError, match="line 3: negative"):
            cli.read_forecast_csv(header + "2020-12-31T23:59:00Z,1,1\n" + row)
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


def test_bad_zoom_writes_nothing(tmp_path, capsys):
    """An empty --from and --to drew the default zoom, and an empty --from alone blamed the pairing."""
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "4", "--regime", "broken", "--seed", "12")
    outdir = tmp_path / "out"
    outdir.mkdir()
    capsys.readouterr()
    for zoom, error in (
        (("--from", "2022-01-01T00:00:00Z", "--to", "2022-01-02T00:00:00Z"), "EmptyRangeError: zoom range"),
        (("--from", "2021-05-30T12:00:00Z"), "ValueError: --from and --to must be given together"),
        (("--from", "2021-05-30T12:00:30Z", "--to", "2021-05-31T00:00:00Z"), "is not on the minute grid"),
        (("--from", "", "--to", ""), "SeriesCsvError: malformed timestamp ''"),
        (("--from", "", "--to", "2021-05-31T18:00:00Z"), "SeriesCsvError: malformed timestamp ''"),
    ):
        assert run("report", "--input", str(series_csv), "--output", str(outdir), *zoom) == cli.EXIT_DATA
        assert error in capsys.readouterr().err
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


def test_report_into_a_directory_target_writes_nothing(tmp_path, capsys):
    """scorecard.csv and monthly.svg were written before zoom.svg/ failed with IsADirectoryError."""
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken", "--seed", "12")
    outdir = tmp_path / "out"
    (outdir / "zoom.svg").mkdir(parents=True)
    (outdir / "zoom.svg" / "kept.txt").write_text("kept\n")
    before = _snapshot(outdir)
    assert run("report", "--input", str(series_csv), "--output", str(outdir)) == cli.EXIT_DATA
    assert "IsADirectoryError" in capsys.readouterr().err
    assert _snapshot(outdir) == before


def test_report_failing_on_its_third_file_writes_nothing(tmp_path, monkeypatch):
    """An in-place writer left scorecard.csv and monthly.svg behind when zoom.svg failed."""
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken", "--seed", "12")
    outdir = tmp_path / "out"
    calls = []
    write_text = Path.write_text

    def third_fails(self, data, *args, **kwargs):
        calls.append(self.name)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", third_fails)
    assert run("report", "--input", str(series_csv), "--output", str(outdir)) == cli.EXIT_DATA
    assert len(calls) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]  # no out/, no temporary file


def test_report_failing_on_its_third_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken", "--seed", "12")
    outdir = tmp_path / "out"
    outdir.mkdir()
    calls = []
    replace = os.replace

    def third_fails(src, dst):
        calls.append(dst)
        if len(calls) == 3:
            raise OSError(5, "Input/output error")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", third_fails)
    assert run("report", "--input", str(series_csv), "--output", str(outdir)) == cli.EXIT_DATA
    assert sorted(p.name for p in outdir.iterdir()) == sorted(Path(d).name for d in calls[:2])


def test_report_overwrites_a_temporary_file_left_by_a_killed_run(tmp_path):
    """A run killed mid-write under the same process id must not lock the directory."""
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--regime", "broken", "--seed", "12")
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / f".scorecard.csv.{os.getpid()}.tmp").write_text("stale\n")
    assert run("report", "--input", str(series_csv), "--output", str(outdir)) == cli.EXIT_OK
    assert sorted(p.name for p in outdir.iterdir()) == [
        "histogram.svg", "monthly.svg", "scorecard.csv", "zoom.svg"]


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


def _daytime_series_csv(path, low, high):
    """A 4-day series, 0 at night and uniform in [low, high) from 06:00 to 18:00 UTC."""
    values = np.zeros(4 * 1440)
    rng = np.random.default_rng(0)
    for day in range(4):
        values[day * 1440 + 360 : day * 1440 + 1080] = rng.uniform(low, high, 720)
    path.write_text(emit_csv(make_series(values)))


def _huge_track_csv(path):
    """A 3-day 1-minute-horizon track whose values alternate between 1e307 and 1.7e308."""
    start = np.datetime64("2021-06-01T00:00")
    rows = [
        f"{start + np.timedelta64(k, 'm')}:00Z,{a!r},{b!r}"
        for k in range(3 * 1440)
        for a, b in [(1e307, 1.7e308) if k % 2 else (1.7e308, 1e307)]
    ]
    path.write_text("\n".join(["timestamp,predicted_1min_wm2,realized_wm2", *rows]) + "\n")


def _subnormal_track_csv(path):
    """A 4-day 1-minute-horizon track predicting 0.0; daylight realized values alternate 5e-324 and 1.0."""
    start = np.datetime64("2021-06-01T00:00")
    rows = [
        f"{start + np.timedelta64(k, 'm')}:00Z,0.0,{realized!r}"
        for k in range(4 * 1440)
        for realized in [(5e-324 if k % 2 else 1.0) if 360 <= k % 1440 < 1080 else 0.0]
    ]
    path.write_text("\n".join(["timestamp,predicted_1min_wm2,realized_wm2", *rows]) + "\n")


@pytest.fixture(scope="module")
def failure_inputs(tmp_path_factory):
    """A directory of inputs that each end a run in one failure kind."""
    d = tmp_path_factory.mktemp("failures")
    assert run("synth", "--output", str(d / "day.csv"), "--days", "1", "--seed", "9") == 0
    rows = (d / "day.csv").read_text().split("\n")[1:-1]
    (d / "no_predictions.csv").write_text("\n".join(  # every predicted cell empty
        [cli.FORECAST_CSV_HEADER, *(row.replace(",", ",,") for row in rows)]) + "\n")
    _daytime_series_csv(d / "huge_fit.csv", 1e307, 1.7e308)
    _daytime_series_csv(d / "huge_scores.csv", 1e160, 2e160)
    _huge_track_csv(d / "huge_track.csv")
    _subnormal_track_csv(d / "subnormal_track.csv")
    return d


_NO_PREDICTION = ("no defined prediction: each needs a gap-free --window-w 1000 trend window "
                  "ending --horizon 500 minutes earlier")
# a horizon of at least the series length leaves trend_forecast no prediction to extrapolate
_HORIZON_PAST_SERIES = ("no defined prediction: each needs a gap-free --window-w 120 trend window "
                        "ending --horizon 3000 minutes earlier")
_HUGE_FIT = "3356 gap-free trend windows overflow double precision, the first ending at sample 360"


@pytest.mark.parametrize("sub, name, flags, kind, message", [
    ("forecast", "day.csv", ("--window-w", "1000", "--horizon", "500"), "NoRecordsError", _NO_PREDICTION),
    ("report", "day.csv", ("--window-w", "1000", "--horizon", "500"), "NoRecordsError", _NO_PREDICTION),
    ("forecast", "day.csv", ("--horizon", "3000"), "NoRecordsError", _HORIZON_PAST_SERIES),
    ("report", "day.csv", ("--horizon", "3000"), "NoRecordsError", _HORIZON_PAST_SERIES),
    ("bands", "no_predictions.csv", (), "NoRecordsError", "forecast track has no defined records"),
    ("forecast", "huge_fit.csv", (), "NonFiniteError", _HUGE_FIT),
    ("report", "huge_fit.csv", (), "NonFiniteError", _HUGE_FIT),
    ("bands", "huge_track.csv", (), "NonFiniteError",
     "upper frontier at index 2 overflows double precision"),
    ("bands", "subnormal_track.csv", ("--eps-day", "0"), "NonFiniteError",
     "width multiplier at index 1440 is inf, not finite"),
    ("report", "huge_scores.csv", (), "NonFiniteError", "rmse, nrmse overflow double precision"),
], ids=["forecast-no-prediction", "report-no-prediction", "forecast-horizon-past-series",
        "report-horizon-past-series", "bands-no-prediction", "forecast-huge-fit", "report-huge-fit",
        "bands-huge-frontier", "bands-infinite-multiplier", "report-huge-scores"])
def test_each_failure_kind_names_one_class(failure_inputs, tmp_path, capsys, sub, name, flags, kind,
                                           message):
    """Each kind went by its stage's own class name, or by a bare ValueError.

    Only the class name changed: each message, the exit code and the absent output are as they were.
    """
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(sub, "--input", str(failure_inputs / name), "--output", str(out), *flags)
    assert code == cli.EXIT_DATA
    assert capsys.readouterr() == ("", f"solarband {sub}: {kind}: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_each_subcommand_builds_one_daylight_mask(tmp_path, monkeypatch):
    """cli bound daylight_mask at import, so a patch on the series module saw none of its calls."""
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
_CALIBRATION = ("--eps-day", "--target", "--window-days", "--recal-every")
FLAGS = {
    "synth": ("--days", "--seed", "--latitude", "--day-of-year", "--peak"),
    "forecast": ("--window-w", "--horizon"),
    "bands": _CALIBRATION,
    "normtest": ("--eps-day", "--level"),
    "report": ("--window-w", "--horizon", *_CALIBRATION, "--from", "--to"),
    "lilliefors-table": ("--seed", "--replicates"),
}
# No drawn replicate count may allocate: each is refused before the table is simulated.
assert not any(1000 <= int(v) <= solarband.normality.MAX_REPLICATES
               for v in HOSTILE if v.lstrip("-").isdigit())


# Headers that name a horizon other than the one way write_forecast_csv names it
HOSTILE_HEADERS = {
    "horizon_60.csv": "predicted_60min_wm2",  # the default horizon names none
    "horizon_030.csv": "predicted_030min_wm2",  # a leading zero
    "horizon_0.csv": "predicted_0min_wm2",
    "horizon_x.csv": "predicted_xmin_wm2",
    "horizon_max.csv": f"predicted_{MAX_GRID_MINUTES}min_wm2",  # longer than any grid
    "horizon_5000_digits.csv": f"predicted_{'9' * 5000}min_wm2",  # past int()'s digit limit
}


def _with_header(track_text, predicted_column):
    return track_text.replace("predicted_wm2", predicted_column, 1)


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """A directory of small valid files and mutated ones, and the names to draw inputs from."""
    d = tmp_path_factory.mktemp("contract")
    series_csv, track_csv = d / "series.csv", d / "track.csv"
    assert run("synth", "--output", str(series_csv), "--days", "3", "--seed", "2") == 0
    assert run("forecast", "--input", str(series_csv), "--output", str(track_csv)) == 0
    assert run("forecast", "--input", str(series_csv), "--output", str(d / "track_h30.csv"),
               "--horizon", "30") == 0
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
        **{name: _with_header(track_csv.read_text(), column) for name, column in HOSTILE_HEADERS.items()},
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    _huge_track_csv(d / "huge_track.csv")
    (d / "a_directory").mkdir()
    return d, ["series.csv", "track.csv", "track_h30.csv", "huge_track.csv", *texts, "a_directory",
               "missing.csv"]


@pytest.mark.parametrize("name", sorted(HOSTILE_HEADERS))
def test_a_track_header_naming_a_hostile_horizon_is_a_data_error(contract_inputs, tmp_path, capsys, name):
    """A well-formed horizon of MAX_GRID_MINUTES was refused as a header the file never had."""
    track_csv = contract_inputs[0] / name
    if name == "horizon_max.csv":
        refusal = f"horizon {MAX_GRID_MINUTES} is not below MAX_GRID_MINUTES ({MAX_GRID_MINUTES})"
    else:
        refusal = "expected header 'timestamp,predicted_wm2,realized_wm2'"
    with pytest.raises(SeriesCsvError, match=f"^{re.escape(refusal)}$"):
        cli.read_forecast_csv(track_csv.read_text())
    for sub in ("bands", "normtest"):
        out = tmp_path / f"{sub}.csv"
        assert run(sub, "--input", str(track_csv), "--output", str(out)) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"solarband {sub}: SeriesCsvError: {refusal}\n"
        assert not out.exists()


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
    kinds = ("absent", "file", "directory", "directory holding zoom.svg/", "in a missing directory")
    kinds += ("omitted",) if sub == "normtest" else ()
    kind = data.draw(st.sampled_from(kinds), label="output")
    with tempfile.TemporaryDirectory(dir=inputs) as scratch:
        out = Path(scratch) / ("missing/out" if kind == "in a missing directory" else "out")
        if kind == "file":
            out.write_text("kept\n")
        elif kind == "directory":
            out.mkdir()
            (out / "kept.txt").write_text("kept\n")
        elif kind == "directory holding zoom.svg/":
            (out / "zoom.svg").mkdir(parents=True)
            (out / "zoom.svg" / "kept.txt").write_text("kept\n")
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
        if kind == "in a missing directory":  # the parent of every --output must exist
            assert code != 0 and not out.parent.exists(), argv


def _contract_argv(inputs, sub):
    """A valid ``sub`` run on the contract inputs, without its --output."""
    return [sub, *{
        "synth": [],
        "forecast": [f"--input={inputs / 'series.csv'}"],
        "bands": [f"--input={inputs / 'track.csv'}"],
        "normtest": [f"--input={inputs / 'track.csv'}"],
        "report": [f"--input={inputs / 'series.csv'}"],
        "lilliefors-table": ["--replicates=1000"],
    }[sub]]


@pytest.mark.parametrize("sub", sorted(FLAGS))
def test_an_output_in_a_missing_directory_is_a_data_error(contract_inputs, tmp_path, capsys, sub):
    """report made missing/ and missing/out/ and exited 0; the others exited 3."""
    inputs, _ = contract_inputs
    out = tmp_path / "missing" / "out"
    assert run(*_contract_argv(inputs, sub), f"--output={out}") == cli.EXIT_DATA
    assert "FileNotFoundError" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_an_output_in_a_missing_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    """report ran its whole pipeline, then exited 3 when it came to write."""
    series_csv = tmp_path / "series.csv"
    run("synth", "--output", str(series_csv), "--days", "2", "--seed", "12")
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return extract_trend(*args, **kwargs)

    monkeypatch.setattr(cli, "extract_trend", counted)
    out = tmp_path / "missing" / "out"
    assert run("report", "--input", str(series_csv), "--output", str(out)) == cli.EXIT_DATA
    assert "FileNotFoundError" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


@pytest.mark.parametrize("sub, existed", [("synth", True), ("forecast", False), ("bands", True),
                                          ("normtest", False), ("report", False),
                                          ("lilliefors-table", True)])
def test_a_write_cut_by_the_file_size_limit_leaves_its_target_as_it_was(contract_inputs, tmp_path,
                                                                        sub, existed):
    """forecast wrote track.csv in place, so a file-size limit left it cut mid-row (exit 3)."""
    resource = pytest.importorskip("resource")
    inputs, _ = contract_inputs
    out = tmp_path / "out"
    if existed:
        out.write_text("kept\n")
    argv = [sys.executable, "-m", "solarband.cli", *_contract_argv(inputs, sub), f"--output={out}"]
    child = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=300,
                           preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100)))
    assert child.returncode == cli.EXIT_DATA, child.stderr
    assert "File too large" in child.stderr
    assert child.stdout == ""  # bands prints its multiplier history once band.csv's temporary file is whole
    assert _snapshot(tmp_path) == ({"out": b"kept\n"} if existed else {})  # no temporary file
    assert list(tmp_path.iterdir()) == ([out] if existed else [])


_STDOUT_CLOSED = "solarband {}: OSError: stdout is closed\n"


@pytest.mark.parametrize("sub, code", [("synth", 0), ("forecast", 0), ("bands", 3), ("normtest", 3),
                                       ("report", 0), ("lilliefors-table", 0)])
def test_a_run_with_stdout_closed_prints_nothing_or_writes_nothing(contract_inputs, tmp_path, capsys,
                                                                   monkeypatch, sub, code):
    """Each ended in an AttributeError traceback, exit 1; bands had renamed band.csv into place first.

    A run with nothing to print succeeds; one with text to print is a data error and writes no file.
    """
    inputs, _ = contract_inputs
    out = tmp_path / "out"
    argv = _contract_argv(inputs, sub) + ([] if sub == "normtest" else [f"--output={out}"])
    monkeypatch.setattr(sys, "stdout", None)
    assert run(*argv) == code
    assert capsys.readouterr().err == ("" if code == cli.EXIT_OK else _STDOUT_CLOSED.format(sub))
    assert list(tmp_path.iterdir()) == ([out] if code == cli.EXIT_OK else [])


@pytest.mark.parametrize("sub, code", [("synth", 0), ("bands", 3)])
def test_a_child_with_fd_1_closed_prints_nothing_or_writes_nothing(contract_inputs, tmp_path, sub, code):
    """As a child started with fd 1 closed (``>&-``), where Python sets ``sys.stdout`` to None."""
    inputs, _ = contract_inputs
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "solarband.cli", *_contract_argv(inputs, sub), f"--output={out}"]
    child = subprocess.run(argv, env=_child_env(), stderr=subprocess.PIPE, text=True, timeout=300,
                           preexec_fn=lambda: os.close(1))
    assert child.returncode == code
    assert child.stderr == ("" if code == cli.EXIT_OK else _STDOUT_CLOSED.format(sub))
    assert list(tmp_path.iterdir()) == ([out] if code == cli.EXIT_OK else [])


def test_a_child_whose_stdout_pipe_is_broken_writes_no_file(contract_inputs, tmp_path):
    """bands exited 3 on the broken pipe, but only after band.csv was renamed into place."""
    inputs, _ = contract_inputs
    out = tmp_path / "band.csv"
    argv = [sys.executable, "-m", "solarband.cli", *_contract_argv(inputs, "bands"), f"--output={out}"]
    read, write = os.pipe()
    os.close(read)  # before the spawn, so the child's first write to stdout is sure to fail
    try:
        child = subprocess.run(argv, env=_child_env(), stdout=write, stderr=subprocess.PIPE,
                               text=True, timeout=300)
    finally:
        os.close(write)
    assert child.returncode == cli.EXIT_DATA
    assert child.stderr.startswith("solarband bands: BrokenPipeError: ")
    assert child.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


_CLOSE_FD_2 = {
    # Python finds fd 2 closed and sets sys.stderr to None, where print falls back to stdout
    "at-spawn": ([sys.executable, "-m", "solarband.cli"], lambda: os.close(2)),
    # sys.stderr wraps a closed fd, as when a launcher script held fd 2 as the interpreter started
    "after-start": ([sys.executable, "-c", "import os; os.close(2); "
                     "from solarband.cli import entrypoint; entrypoint()"], None),
}


@pytest.mark.parametrize("closed", sorted(_CLOSE_FD_2))
@pytest.mark.parametrize("sub, flags, code", [
    ("forecast", ["--input=missing.csv"], cli.EXIT_DATA),
    ("bands", ["--recal-every", str(2**63)], cli.EXIT_UNCALIBRATABLE),
])
def test_a_failed_child_with_fd_2_closed_exits_with_its_code(contract_inputs, tmp_path, sub, flags,
                                                             code, closed):
    """Closed after start, printing the error line raised OSError and the run exited 1;
    closed at spawn, the error line went to stdout."""
    inputs, _ = contract_inputs
    out = tmp_path / "out"
    launch, preexec = _CLOSE_FD_2[closed]
    argv = [*launch, *_contract_argv(inputs, sub), *flags, f"--output={out}"]
    child = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=300,
                           cwd=tmp_path, preexec_fn=preexec)
    assert child.returncode == code
    assert child.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, code", [((), cli.EXIT_OK), (("--window-days", "0"), cli.EXIT_DATA),
                                         (("--recal-every", str(2**63)), cli.EXIT_UNCALIBRATABLE),
                                         (("--horizon", "30"), cli.EXIT_USAGE)],
                         ids=["ok", "data-error", "uncalibratable", "usage-error"])
def test_entrypoint_freezes_the_collector_once_on_every_way_out(contract_inputs, tmp_path, capsys,
                                                                monkeypatch, flags, code):
    """Exit-time collections over numpy's and scipy's import-time objects took most of a short run."""
    inputs, _ = contract_inputs
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    monkeypatch.setattr(sys, "argv", ["solarband", "bands", f"--input={inputs / 'track.csv'}",
                                      f"--output={tmp_path / 'band.csv'}", *flags])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == code
    assert freezes == [1]


def test_main_never_freezes_the_collector(contract_inputs, capsys):
    """What main froze in an in-process caller, a test or a library user, would never be collected."""
    inputs, _ = contract_inputs
    before = gc.get_freeze_count()
    assert run("normtest", f"--input={inputs / 'track.csv'}") == cli.EXIT_OK
    assert run("normtest", f"--input={inputs / 'missing.csv'}") == cli.EXIT_DATA
    assert gc.get_freeze_count() == before
