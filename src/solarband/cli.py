"""Pipeline executable: synth -> forecast -> bands -> normtest -> report.

Every stage reads and writes plain CSV, so each is independently
inspectable; all randomness flows from --seed and every invocation is
byte-deterministic. Exit codes: 0 success, 2 usage error, 3 data error,
4 uncalibratable window.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from . import normality, report, risk, synth
from . import series as series_mod
from .decomposition import DEFAULT_WINDOW, extract_trend
from .forecast import DEFAULT_HORIZON, ForecastTrack, trend_forecast
from .series import (
    DEFAULT_EPS_DAY,
    DaylightMask,
    IrradianceSeries,
    SeriesCsvError,
    _stamps,
    emit_csv,
    format_value,
    ingest_csv,
    parse_timestamp,
    read_grid_csv,
    write_grid_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_UNCALIBRATABLE = 4

FORECAST_CSV_HEADER = "timestamp,predicted_wm2,realized_wm2"
BAND_CSV_HEADER = "timestamp,lower_wm2,upper_wm2,alpha"
NORMTEST_HEADER = "test,n,statistic,threshold,level,reject"


class TrackCsvError(ValueError):
    """Forecast-track CSV violates the format contract."""


# A malformed stamp is a SeriesCsvError in every minute-grid file.
_TRACK_ERRORS = {"": TrackCsvError, "malformed timestamp": SeriesCsvError}


def write_forecast_csv(track: ForecastTrack) -> str:
    """Render a forecast track; rows with neither field defined are omitted."""
    keep = ~(np.isnan(track.predicted) & np.isnan(track.realized))
    return write_grid_csv(
        FORECAST_CSV_HEADER, track.start_time, keep, track.predicted, track.realized
    )


def read_forecast_csv(text: str, horizon: int) -> ForecastTrack:
    """Parse a forecast-track CSV back onto the minute grid.

    The horizon is not stored in the file; the caller supplies it (the
    ``--horizon`` flag) so the volatility shift stays consistent.
    """
    start, (predicted, realized) = read_grid_csv(
        text, FORECAST_CSV_HEADER, _TRACK_ERRORS, empty_is_gap=True
    )
    return ForecastTrack(
        start_time=start, horizon=horizon, predicted=predicted, realized=realized
    )


def write_band_csv(band: bands_mod.BandTrack) -> str:
    """Render band frontiers; rows without a defined frontier are omitted."""
    keep = ~np.isnan(band.lower) & ~np.isnan(band.upper)
    return write_grid_csv(
        BAND_CSV_HEADER, band.start_time, keep, band.lower, band.upper, band.alpha
    )


def normtest_report_csv(reports: list[normality.NormalityReport]) -> str:
    out = [NORMTEST_HEADER]
    for r in reports:
        out.append(
            f"{r.test_name},{r.n},{format_value(r.statistic)},"
            f"{format_value(r.threshold)},{r.level:g},{'true' if r.reject else 'false'}"
        )
    return "\n".join(out) + "\n"


def _track_daylight(track: ForecastTrack, eps_day: float) -> DaylightMask:
    return series_mod.daylight_mask(IrradianceSeries(track.start_time, track.realized), eps_day)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = synth.SynthConfig(
        latitude=args.latitude,
        day_of_year=args.day_of_year,
        days=args.days,
        clear_sky_peak=args.peak,
        cloud_regime=args.regime,
        seed=args.seed,
    )
    Path(args.output).write_text(emit_csv(synth.generate(cfg)))
    return EXIT_OK


def _cmd_forecast(args: argparse.Namespace) -> int:
    series = ingest_csv(Path(args.input).read_text())
    track = trend_forecast(series, extract_trend(series, args.window_w), args.horizon)
    if np.isnan(track.predicted).all():
        raise ValueError(f"no defined prediction: each needs a gap-free --window-w {args.window_w} "
                         f"trend window ending --horizon {args.horizon} minutes earlier")
    Path(args.output).write_text(write_forecast_csv(track))
    return EXIT_OK


def _calibrated_band_from_track(track: ForecastTrack, mask: DaylightMask, args: argparse.Namespace):
    vol = risk.volatility_track(track)
    band = bands_mod.calibrated_band(
        track, vol, mask, args.window_days, args.target, args.recal_every
    )
    if all(alpha is None for _, alpha in band.events):
        raise bands_mod.UncalibratableWindowError(
            "no calibration window had an eligible record"
        )
    return band


def _cmd_bands(args: argparse.Namespace) -> int:
    track = read_forecast_csv(Path(args.input).read_text(), args.horizon)
    band = _calibrated_band_from_track(track, _track_daylight(track, args.eps_day), args)
    Path(args.output).write_text(write_band_csv(band))
    stamps = _stamps(track.start_time, np.array([k for k, _ in band.events], dtype=np.int64))
    sys.stdout.write("".join(
        f"{stamp} alpha={format_value(alpha) if alpha is not None else 'unchanged'}\n"
        for stamp, (_, alpha) in zip(stamps, band.events)
    ))
    return EXIT_OK


def _cmd_normtest(args: argparse.Namespace) -> int:
    # The horizon is not in the file and the daylight errors do not depend on it.
    track = read_forecast_csv(Path(args.input).read_text(), DEFAULT_HORIZON)
    sample = risk.daylight_errors(track, _track_daylight(track, args.eps_day))
    text = normtest_report_csv(normality.normtests(sample, args.level))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    series = ingest_csv(Path(args.input).read_text())
    if bool(args.zoom_from) != bool(args.zoom_to):
        raise ValueError("--from and --to must be given together")
    zoom = (parse_timestamp(args.zoom_from), parse_timestamp(args.zoom_to)) if args.zoom_from else None
    report.zoom_range(series, zoom)  # a bad zoom fails before the pipeline runs
    track = trend_forecast(series, extract_trend(series, args.window_w), args.horizon)
    mask = series_mod.daylight_mask(series, args.eps_day)
    band = _calibrated_band_from_track(track, mask, args)

    # Every artifact is built before any is written, so a failure leaves none behind.
    texts = {
        "scorecard.csv": report.scorecard_csv(report.score(track, band, mask)),
        "monthly.svg": report.emit_plot(series, track, band, "monthly"),
        "zoom.svg": report.emit_plot(series, track, band, "zoom", zoom=zoom),
        "histogram.svg": report.emit_plot(series, track, band, "histogram", mask=mask),
    }
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    return EXIT_OK


def _cmd_lilliefors_table(args: argparse.Namespace) -> int:
    rows = normality.generate_table(seed=args.seed, replicates=args.replicates)
    Path(args.output).write_text(normality.format_table(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solarband",
        description="Minute-scale irradiance forecasting with calibrated confidence bands.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p: argparse.ArgumentParser, input_help: str, output_help: str) -> None:
        p.add_argument("--input", required=True, help=input_help)
        p.add_argument("--output", required=True, help=output_help)

    p = sub.add_parser("synth", help="generate a synthetic irradiance CSV")
    p.add_argument("--output", required=True, help="irradiance CSV to write")
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--regime", choices=synth.REGIMES, default="broken")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--latitude", type=float, default=48.7)
    p.add_argument("--day-of-year", type=int, default=150)
    p.add_argument("--peak", type=float, default=1000.0, help="clear-sky peak, W/m2")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("forecast", help="irradiance CSV -> forecast-track CSV")
    add_io(p, "irradiance CSV", "forecast-track CSV to write")
    p.add_argument("--window-w", type=int, default=DEFAULT_WINDOW, help="trend window, minutes")
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON, help="forecast horizon, minutes")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("bands", help="forecast-track CSV -> calibrated band CSV")
    add_io(p, "forecast-track CSV", "band CSV to write")
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p.add_argument("--eps-day", type=float, default=DEFAULT_EPS_DAY)
    p.add_argument("--target", type=float, default=bands_mod.DEFAULT_TARGET)
    p.add_argument("--window-days", type=int, default=bands_mod.DEFAULT_WINDOW_DAYS)
    p.add_argument("--recal-every", type=int, default=bands_mod.DEFAULT_RECAL_MINUTES)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("normtest", help="forecast-track CSV -> normality reports")
    p.add_argument("--input", required=True, help="forecast-track CSV")
    p.add_argument("--output", help="report CSV (stdout when omitted)")
    p.add_argument("--eps-day", type=float, default=DEFAULT_EPS_DAY)
    p.add_argument("--level", type=float, default=normality.DEFAULT_LEVEL)
    p.set_defaults(func=_cmd_normtest)

    p = sub.add_parser("report", help="irradiance CSV -> scorecard CSV + SVG plots")
    add_io(p, "irradiance CSV", "output directory")
    p.add_argument("--window-w", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p.add_argument("--eps-day", type=float, default=DEFAULT_EPS_DAY)
    p.add_argument("--target", type=float, default=bands_mod.DEFAULT_TARGET)
    p.add_argument("--window-days", type=int, default=bands_mod.DEFAULT_WINDOW_DAYS)
    p.add_argument("--recal-every", type=int, default=bands_mod.DEFAULT_RECAL_MINUTES)
    p.add_argument("--from", dest="zoom_from", help="zoom start timestamp")
    p.add_argument("--to", dest="zoom_to", help="zoom end timestamp (exclusive)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("lilliefors-table", help="regenerate the simulated null table")
    p.add_argument("--output", required=True, help="table CSV to write")
    p.add_argument("--seed", type=int, default=normality.TABLE_SEED)
    p.add_argument("--replicates", type=int, default=normality.TABLE_REPLICATES)
    p.set_defaults(func=_cmd_lilliefors_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except bands_mod.UncalibratableWindowError as exc:
        print(f"solarband {args.subcommand}: uncalibratable window: {exc}", file=sys.stderr)
        return EXIT_UNCALIBRATABLE
    except (ValueError, OSError) as exc:  # SeriesCsvError and TrackCsvError included
        print(f"solarband {args.subcommand}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
