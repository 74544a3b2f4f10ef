"""Pipeline executable: synth -> forecast -> bands -> normtest -> report.

Every stage reads and writes plain CSV, so each is independently
inspectable; all randomness flows from --seed and every invocation is
byte-deterministic. ``main`` writes what each subcommand returns, all or
nothing (``_write_all``); the parent of every --output must exist. Exit
codes: 0 success, 2 usage error, 3 data error, 4 uncalibratable window.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from . import normality, report, risk, synth
from . import series as series_mod
from .decomposition import DEFAULT_WINDOW, extract_trend
from .forecast import DEFAULT_HORIZON, ForecastTrack, trend_forecast
from .series import (DEFAULT_EPS_DAY, MAX_GRID_MINUTES, DaylightMask, IrradianceSeries,
                     NoRecordsError, SeriesCsvError, _stamps, emit_csv, format_value, ingest_csv,
                     parse_timestamp, read_grid_csv, write_grid_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_UNCALIBRATABLE = 4

FORECAST_CSV_HEADER = "timestamp,predicted_wm2,realized_wm2"  # at DEFAULT_HORIZON
BAND_CSV_HEADER = "timestamp,lower_wm2,upper_wm2,alpha"
NORMTEST_HEADER = "test,n,statistic,threshold,level,reject"


# At most 7 digits and no leading zero: every horizon below MAX_GRID_MINUTES, one spelling each.
_NAMED_HORIZON = re.compile(r"timestamp,predicted_([1-9][0-9]{0,6})min_wm2,")


def _track_header(horizon: int) -> str:
    """The one header for a track at ``horizon``: any other names its predicted column.

    A horizon of ``MAX_GRID_MINUTES`` or more is a SeriesCsvError, written or read.
    """
    if horizon >= MAX_GRID_MINUTES:
        raise SeriesCsvError(f"horizon {horizon} is not below MAX_GRID_MINUTES ({MAX_GRID_MINUTES})")
    named = "" if horizon == DEFAULT_HORIZON else f"_{horizon}min"
    return FORECAST_CSV_HEADER.replace("predicted_", f"predicted{named}_")


def write_forecast_csv(track: ForecastTrack) -> str:
    """Render a forecast track; rows with neither field defined are omitted."""
    keep = ~(np.isnan(track.predicted) & np.isnan(track.realized))
    return write_grid_csv(_track_header(track.horizon), track.start_time, keep,
                          track.predicted, track.realized)


def read_forecast_csv(text: str) -> ForecastTrack:
    """Parse a forecast-track CSV back onto the minute grid, at the horizon its header names.

    A header that names no horizon is at ``DEFAULT_HORIZON``. Any header but
    the one ``write_forecast_csv`` gives its horizon is a SeriesCsvError.
    """
    named = _NAMED_HORIZON.match(text)
    horizon = int(named[1]) if named else DEFAULT_HORIZON
    start, (predicted, realized) = read_grid_csv(text, _track_header(horizon), empty_is_gap=True)
    return ForecastTrack(start_time=start, horizon=horizon, predicted=predicted, realized=realized)


def write_band_csv(band: bands_mod.BandTrack) -> str:
    """Render band frontiers; rows without a defined frontier are omitted."""
    keep = ~np.isnan(band.lower) & ~np.isnan(band.upper)
    return write_grid_csv(BAND_CSV_HEADER, band.start_time, keep,
                          band.lower, band.upper, band.alpha)


def normtest_report_csv(reports: list[normality.NormalityReport]) -> str:
    out = [NORMTEST_HEADER]
    for r in reports:
        out.append(
            f"{r.test_name},{r.n},{format_value(r.statistic)},"
            f"{format_value(r.threshold)},{format_value(r.level)},{'true' if r.reject else 'false'}"
        )
    return "\n".join(out) + "\n"


def _track_daylight(track: ForecastTrack, eps_day: float) -> DaylightMask:
    return series_mod.daylight_mask(IrradianceSeries(track.start_time, track.realized), eps_day)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


Texts = dict[Path | None, str]  # a text for each target path; None is stdout


def _cmd_synth(args: argparse.Namespace) -> Texts:
    cfg = synth.SynthConfig(latitude=args.latitude, day_of_year=args.day_of_year, days=args.days,
                            clear_sky_peak=args.peak, cloud_regime=args.regime, seed=args.seed)
    return {args.output: emit_csv(synth.generate(cfg))}


def _forecast(series: IrradianceSeries, args: argparse.Namespace) -> ForecastTrack:
    track = trend_forecast(series, extract_trend(series, args.window_w), args.horizon)
    if np.isnan(track.predicted).all():
        raise NoRecordsError(f"no defined prediction: each needs a gap-free --window-w {args.window_w} "
                             f"trend window ending --horizon {args.horizon} minutes earlier")
    return track


def _cmd_forecast(args: argparse.Namespace) -> Texts:
    series = ingest_csv(Path(args.input).read_text())
    return {args.output: write_forecast_csv(_forecast(series, args))}


def _calibrated_band_from_track(track: ForecastTrack, mask: DaylightMask, args: argparse.Namespace):
    vol = risk.volatility_track(track)
    band = bands_mod.calibrated_band(track, vol, mask, args.window_days, args.target, args.recal_every)
    if all(alpha is None for _, alpha in band.events):
        raise bands_mod.UncalibratableWindowError("no calibration window had an eligible record")
    return band


def _cmd_bands(args: argparse.Namespace) -> Texts:
    track = read_forecast_csv(Path(args.input).read_text())
    band = _calibrated_band_from_track(track, _track_daylight(track, args.eps_day), args)
    stamps = _stamps(track.start_time, np.array([k for k, _ in band.events], dtype=np.int64))
    return {args.output: write_band_csv(band), None: "".join(
        f"{stamp} alpha={format_value(alpha) if alpha is not None else 'unchanged'}\n"
        for stamp, (_, alpha) in zip(stamps, band.events)
    )}


def _cmd_normtest(args: argparse.Namespace) -> Texts:
    track = read_forecast_csv(Path(args.input).read_text())
    sample = risk.daylight_errors(track, _track_daylight(track, args.eps_day))
    return {args.output: normtest_report_csv(normality.normtests(sample, args.level))}  # None: stdout


def _cmd_report(args: argparse.Namespace) -> Texts:
    series = ingest_csv(Path(args.input).read_text())
    if (args.zoom_from is None) != (args.zoom_to is None):
        raise ValueError("--from and --to must be given together")
    zoom = None if args.zoom_from is None else (parse_timestamp(args.zoom_from), parse_timestamp(args.zoom_to))
    report.zoom_range(series, zoom)  # a bad zoom fails before the pipeline runs
    track = _forecast(series, args)
    mask = series_mod.daylight_mask(series, args.eps_day)
    band = _calibrated_band_from_track(track, mask, args)
    out = args.output
    return {
        out / "scorecard.csv": report.scorecard_csv(report.score(track, band, mask)),
        out / "monthly.svg": report.emit_plot(series, track, band, "monthly"),
        out / "zoom.svg": report.emit_plot(series, track, band, "zoom", zoom=zoom),
        out / "histogram.svg": report.emit_plot(series, track, band, "histogram", mask=mask),
    }


def _cmd_lilliefors_table(args: argparse.Namespace) -> Texts:
    rows = normality.generate_table(seed=args.seed, replicates=args.replicates)
    return {args.output: normality.format_table(rows)}


def _write_all(texts: Texts, out: Path | None) -> None:
    """Write each text to its target and the text keyed None to stdout, all or none.

    Each text goes to a temporary file beside its target. Once all are complete,
    stdout is written and flushed, and then the temporary files are renamed.
    A text for stdout while stdout is closed (``sys.stdout`` is None, as when fd 1
    was closed at start) is an OSError, raised before any file is written.
    ``out`` (--output) is a target or the directory that holds them, made here if
    missing. A failure removes the temporary files and a directory made here: only
    a failed rename (rare within one directory) keeps the targets it already replaced,
    and stdout already printed.
    """
    stdout = texts.pop(None, "")
    if stdout and sys.stdout is None:
        raise OSError("stdout is closed")
    for target in texts:
        if target.is_dir():
            raise IsADirectoryError(f"{target} is a directory")
    made = out is not None and out not in texts and not out.exists()
    if made:
        out.mkdir()  # no parents: the parent of every --output must exist
    temps = []
    try:
        for target, text in texts.items():
            temps.append(target.with_name(f".{target.name}.{os.getpid()}.tmp"))  # only a dead run can own it
            temps[-1].write_text(text)
        if stdout:
            _print(stdout)
        for temp, target in zip(temps, texts):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if made and not any(out.iterdir()):
            out.rmdir()
        raise


def _print(text: str) -> None:
    """Write text to stdout and flush it; after a broken pipe, fd 1 is os.devnull.

    The interpreter flushes stdout again at exit, where what the pipe refused
    would raise a second time (see "Note on SIGPIPE" in the ``signal`` docs).
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solarband",
        description="Minute-scale irradiance forecasting with calibrated confidence bands.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    shared = {  # flag: (type, default, help) for each flag more than one subcommand takes
        "--window-w": (int, DEFAULT_WINDOW, "trend window, minutes"),
        "--horizon": (int, DEFAULT_HORIZON, "forecast horizon, minutes"),
        "--eps-day": (float, DEFAULT_EPS_DAY, "daylight threshold, W/m2"),
        "--target": (float, bands_mod.DEFAULT_TARGET, "band coverage target"),
        "--window-days": (int, bands_mod.DEFAULT_WINDOW_DAYS, "calibration window, days"),
        "--recal-every": (int, bands_mod.DEFAULT_RECAL_MINUTES, "recalibration step, minutes"),
    }

    def add_io(p: argparse.ArgumentParser, input_help: str, output_help: str) -> None:
        p.add_argument("--input", required=True, help=input_help)
        p.add_argument("--output", type=Path, required=True, help=output_help)

    def add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            kind, default, help_text = shared[flag]
            p.add_argument(flag, type=kind, default=default, help=help_text)

    p = sub.add_parser("synth", help="generate a synthetic irradiance CSV")
    p.add_argument("--output", type=Path, required=True, help="irradiance CSV to write")
    cfg = synth.SynthConfig()  # its field defaults are the flags'
    p.add_argument("--days", type=int, default=cfg.days)
    p.add_argument("--regime", choices=synth.REGIMES, default=cfg.cloud_regime)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--latitude", type=float, default=cfg.latitude)
    p.add_argument("--day-of-year", type=int, default=cfg.day_of_year)
    p.add_argument("--peak", type=float, default=cfg.clear_sky_peak, help="clear-sky peak, W/m2")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("forecast", help="irradiance CSV -> forecast-track CSV")
    add_io(p, "irradiance CSV", "forecast-track CSV to write")
    add_shared(p, "--window-w", "--horizon")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("bands", help="forecast-track CSV -> calibrated band CSV")
    add_io(p, "forecast-track CSV", "band CSV to write")
    add_shared(p, "--eps-day", "--target", "--window-days", "--recal-every")
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("normtest", help="forecast-track CSV -> normality reports")
    p.add_argument("--input", required=True, help="forecast-track CSV")
    p.add_argument("--output", type=Path, help="report CSV (stdout when omitted)")
    add_shared(p, "--eps-day")
    p.add_argument("--level", type=float, default=normality.DEFAULT_LEVEL)
    p.set_defaults(func=_cmd_normtest)

    p = sub.add_parser("report", help="irradiance CSV -> scorecard CSV + SVG plots")
    add_io(p, "irradiance CSV", "output directory")
    add_shared(p, *shared)  # every shared flag
    p.add_argument("--from", dest="zoom_from", help="zoom start timestamp")
    p.add_argument("--to", dest="zoom_to", help="zoom end timestamp (exclusive)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("lilliefors-table", help="regenerate the simulated null table")
    p.add_argument("--output", type=Path, required=True, help="table CSV to write")
    p.add_argument("--seed", type=int, default=normality.TABLE_SEED)
    p.add_argument("--replicates", type=int, default=normality.TABLE_REPLICATES)
    p.set_defaults(func=_cmd_lilliefors_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.output is not None and not args.output.parent.is_dir():  # before any work
            raise FileNotFoundError(f"no directory {args.output.parent} to hold --output")
        _write_all(args.func(args), args.output)
    except bands_mod.UncalibratableWindowError as exc:
        return _fail(f"solarband {args.subcommand}: uncalibratable window: {exc}",
                     EXIT_UNCALIBRATABLE)
    except (ValueError, OSError) as exc:  # SeriesCsvError included
        return _fail(f"solarband {args.subcommand}: {type(exc).__name__}: {exc}", EXIT_DATA)
    return EXIT_OK


def _fail(line: str, code: int) -> int:
    """Print line to stderr and return code, also when stderr is closed and the line is lost.

    With fd 2 closed at start ``sys.stderr`` is None, where print would fall back to stdout.
    """
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)
    return code


def entrypoint() -> None:
    """Exit with ``main``'s code, the collector frozen once ``main`` is done.

    The collections at interpreter exit skip frozen objects, numpy's and scipy's
    among them. ``main`` never freezes: what an in-process caller makes stays collectable.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entrypoint()
