"""Pipeline executable: synth -> forecast -> bands -> normtest -> report.

Every stage reads and writes plain CSV, so each is independently
inspectable; all randomness flows from --seed and every invocation is
byte-deterministic. Exit codes: 0 success, 2 usage error, 3 data error,
4 uncalibratable window.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import bands as bands_mod
from . import normality, report, risk, synth
from .decomposition import DEFAULT_WINDOW, extract_trend
from .forecast import DEFAULT_HORIZON, ForecastTrack, trend_forecast
from .series import (
    CADENCE,
    DEFAULT_EPS_DAY,
    DaylightMask,
    IrradianceSeries,
    SeriesCsvError,
    daylight_mask,
    emit_csv,
    format_timestamp,
    format_value,
    ingest_csv,
    parse_timestamp,
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
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != FORECAST_CSV_HEADER:
        raise TrackCsvError(f"expected header {FORECAST_CSV_HEADER!r}")
    stamps: list[datetime] = []
    cells: list[tuple[float, float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 3:
            raise TrackCsvError(f"line {lineno}: expected 3 fields")
        ts = parse_timestamp(fields[0])
        if ts.second != 0:
            raise TrackCsvError(f"line {lineno}: timestamp not minute-aligned")
        if stamps and ts <= stamps[-1]:
            raise TrackCsvError(f"line {lineno}: timestamps must strictly increase")
        try:
            pair = tuple(float(f) if f else float("nan") for f in fields[1:])
        except ValueError as exc:
            raise TrackCsvError(f"line {lineno}: malformed value") from exc
        for raw, value in zip(fields[1:], pair):
            if raw and not math.isfinite(value):
                raise TrackCsvError(f"line {lineno}: non-finite value {raw!r}")
            if value < 0:
                raise TrackCsvError(f"line {lineno}: negative value {raw!r}")
        stamps.append(ts)
        cells.append(pair)
    if not stamps:
        raise TrackCsvError("no data rows")
    n = (stamps[-1] - stamps[0]) // CADENCE + 1
    predicted = np.full(n, np.nan)
    realized = np.full(n, np.nan)
    for ts, (p, r) in zip(stamps, cells):
        k = (ts - stamps[0]) // CADENCE
        predicted[k] = p
        realized[k] = r
    return ForecastTrack(
        start_time=stamps[0], horizon=horizon, predicted=predicted, realized=realized
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
    return daylight_mask(IrradianceSeries(track.start_time, track.realized), eps_day)


def _run_normtests(track: ForecastTrack, eps_day: float, level: float):
    sample = risk.daylight_errors(track, _track_daylight(track, eps_day))
    if sample.size < normality.MIN_SAMPLES:
        raise ValueError(f"only {sample.size} daylight error samples, need >= {normality.MIN_SAMPLES}")
    std = float(sample.std(ddof=1))
    if std == 0.0:
        raise normality.DegenerateSampleError("degenerate sample: zero variance")
    # The fixed-reference test gets the sample standardized by its own
    # moments, which makes it approximate; the estimated-parameter test
    # handles that case exactly and is reported alongside.
    standardized = (sample - sample.mean()) / std
    return [
        normality.jarque_bera(sample, level),
        normality.ks_normal(standardized, level),
        normality.lilliefors(sample, level),
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _read_series(path: str) -> IrradianceSeries:
    return ingest_csv(Path(path).read_text())


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


def _forecast_from_series(series: IrradianceSeries, window: int, horizon: int) -> ForecastTrack:
    decomposition = extract_trend(series, window)
    return trend_forecast(series, decomposition, horizon)


def _cmd_forecast(args: argparse.Namespace) -> int:
    series = _read_series(args.input)
    track = _forecast_from_series(series, args.window_w, args.horizon)
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
    for k, alpha in band.events:
        stamp = format_timestamp(track.start_time + k * CADENCE)
        print(f"{stamp} alpha={format_value(alpha) if alpha is not None else 'unchanged'}")
    return EXIT_OK


def _cmd_normtest(args: argparse.Namespace) -> int:
    track = read_forecast_csv(Path(args.input).read_text(), args.horizon)
    text = normtest_report_csv(_run_normtests(track, args.eps_day, args.level))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _default_zoom(series: IrradianceSeries) -> tuple[datetime, datetime]:
    end = series.start_time + len(series) * CADENCE
    return max(series.start_time, end - timedelta(days=2)), end


def _cmd_report(args: argparse.Namespace) -> int:
    series = _read_series(args.input)
    track = _forecast_from_series(series, args.window_w, args.horizon)
    mask = daylight_mask(series, args.eps_day)
    band = _calibrated_band_from_track(track, mask, args)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    card = report.score(track, band, mask)
    (out / "scorecard.csv").write_text(report.scorecard_csv(card))
    report.emit_plot(series, track, band, "monthly", out / "monthly.svg")
    if args.zoom_from and args.zoom_to:
        zoom = (parse_timestamp(args.zoom_from), parse_timestamp(args.zoom_to))
    elif args.zoom_from or args.zoom_to:
        raise ValueError("--from and --to must be given together")
    else:
        zoom = _default_zoom(series)
    report.emit_plot(series, track, band, "zoom", out / "zoom.svg", zoom=zoom)
    report.emit_plot(
        series, track, band, "histogram", out / "histogram.svg", eps_day=args.eps_day
    )
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
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
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
    except (SeriesCsvError, TrackCsvError, ValueError, OSError) as exc:
        print(f"solarband {args.subcommand}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
