"""Pipeline benchmark for solarband, measured from outside the program.

    python3 perfbench/run.py --workload cli-month-gappy --seed 3 --seconds 40 --trace 0

Workloads (one closed-loop client, one operation at a time):

* ``cli-month-gappy``: ``solarband synth --days 30``, about 3% of the rows
  dropped from the CSV text (``gaps.py``), then ``forecast``, ``bands``,
  ``normtest`` and ``report`` as child processes with default flags.
  Package import is most of each subcommand, the per-row CSV and SVG code
  most of the rest; the gaps exercise grid fill, undefined windows and
  polyline splitting.
* ``core-year-hourly``: 365 days generated in memory and run through the
  library chain with hourly recalibration. No CSV and no SVG work.

There is no long-span CLI workload: one 90-day pass takes about 15 s and a
365-day pass about a minute on two shared cores, too few passes per run for
a steady median within the run budget.

Timings are wall times divided by a host-speed probe run just before and
just after each operation (``HostProbe``), so that a slower shared host does
not read as a slower program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the chain
in-process with spans around the program's public functions and prints the
per-layer metrics. Every output of every operation is compared with the
sha256 recorded in ``golden.json`` at the pinned seed commit; a nonzero exit,
an exception or a wrong hash counts as a failed operation. The last line of
standard output is the result object.

    python3 perfbench/run.py --record-golden [--workload NAME]

re-records those hashes; do that only in a change that alters an output on
purpose, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import pathlib
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gaps
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN_PATH = Path(__file__).with_name("golden.json")

POOL = 16  # --seed selects one of POOL recorded inputs: slot = seed % POOL
# A timed run makes one set-up before each pass, so that a slowdown of the
# shared host reaches setup_s and pipeline_s alike, and makes at least this
# many of each even when the window is shorter.
MIN_PASSES = 5
CHILD_TIMEOUT_S = 120
CHAIN = ("forecast", "bands", "normtest", "report")
MB = 1e6

# The console script is ``solarband = solarband.cli:entrypoint``; this is its body.
CLI_BOOT = "from solarband.cli import entrypoint; entrypoint()"

CORE_WINDOW_DAYS = 7
CORE_RECAL_EVERY = 60


# Host-speed probe. Other tenants of the shared host slow its CPUs by up to
# 75% for seconds to minutes at a time, so over ten runs the median raw pass
# spread by 12-27% (quartile distance over median). Each timed operation is
# divided by the mean time of this fixed loop run just before and just after
# it, and the ratio is scaled back to seconds by REFERENCE_S. A slower program
# raises the ratio; a slower host raises both sides of it.
REFERENCE_LOOPS = 500_000
REFERENCE_S = 0.05  # about the loop's time on a quiet 2-vCPU Intel Xeon guest


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostProbe:
    """The reference loop run between timed operations, so each has one before and after."""

    def __init__(self) -> None:
        self.refs = [reference_s()]

    def ratio(self, wall: float) -> float:
        """The wall time of the operation that just ended over the probes around it."""
        self.refs.append(reference_s())
        return wall / ((self.refs[-2] + self.refs[-1]) / 2)


def normalized(ratios: list[float]) -> float:
    """Median of the run's wall/reference ratios, in seconds at the reference speed."""
    return statistics.median(ratios) * REFERENCE_S


@dataclass(frozen=True)
class Workload:
    name: str
    days: int
    in_memory: bool = False  # library chain in this process, else CLI chain on a gappy CSV


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-month-gappy", 30),
        Workload("core-year-hourly", 365, in_memory=True),
    )
}

# Per-subcommand times are kept in the run record's samples, not here: a
# single CLI subcommand's wall time moved by 15-30% from run to run on two
# shared cores, too much for a regression bound.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}

# Spans whose self time the traced run reports, named <module>.<function>
# after the function wrapped, plus one span per CLI subcommand.
TRACED_LAYERS = (
    "series.ingest_csv",
    "series.emit_csv",
    "series.daylight_mask",
    "synth.generate",
    "cli.read_forecast_csv",
    "cli.write_forecast_csv",
    "cli.write_band_csv",
    "decomposition.extract_trend",
    "forecast.trend_forecast",
    "risk.volatility_track",
    "bands.calibrate_alpha",
    "bands.calibration_events",
    "bands.calibrated_band",
    "normality.jarque_bera",
    "normality.ks_normal",
    "normality.lilliefors",
    "normality.diff_histogram",
    "report.score",
    "report.emit_plot",
    "report.render_series_svg",
    "io.read_text",
    "io.write_text",
    *(f"cli.{sub}" for sub in CHAIN),
)

PER_LAYER_COUNTS = {
    "series.ingest_csv.rows": "count",
    "cli.read_forecast_csv.rows": "count",
    "cli.write_forecast_csv.rows": "count",
    "cli.write_band_csv.rows": "count",
    "report.svg_bytes.monthly": "bytes",
    "report.svg_bytes.zoom": "bytes",
    "report.svg_bytes.histogram": "bytes",
    "report.polylines": "count",
    "report.polyline_points": "count",
    "bands.calibrate_alpha.calls": "count",
    "bands.calibrate_alpha.failed": "count",
    "bands.calibration_events.calls": "count",
    "decomposition.extract_trend.defined_frac": "ratio",
    "normality.sample_n": "count",
    "io.read_text.bytes": "bytes",
    "io.write_text.bytes": "bytes",
}

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in TRACED_LAYERS},
    **PER_LAYER_COUNTS,
    **{f"cli.{sub}.peak_rss_mb": "MB" for sub in CHAIN},
    **{f"cli.{sub}.wall_s": "s" for sub in CHAIN},
    "import.solarband_s": "s",
    "import.scipy_stats_s": "s",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program sources, no golden record)."""


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


class Checker:
    """Counts operations and compares every output with its recorded sha256.

    With ``expected=None`` it records the digests instead (``--record-golden``).
    """

    def __init__(self, expected: dict[str, str] | None) -> None:
        self.expected = expected
        self.recorded: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def op(self, name: str, exited_ok: bool, outputs: dict) -> bool:
        """Count one operation; ``outputs`` maps names to bytes or contiguous buffers."""
        self.attempted += 1
        ok = exited_ok
        for key, data in outputs.items():
            digest = hashlib.sha256(data).hexdigest()
            if self.expected is None:
                self.recorded[key] = digest
            elif self.expected.get(key) != digest:
                print(f"perfbench: {name}: {key} does not match the golden sha256", file=sys.stderr)
                ok = False
        if not ok:
            self.failed += 1
            if self.expected is None:
                raise BenchError(f"{name} failed while recording golden hashes")
        return ok


def nbytes(outputs: dict) -> int:
    return sum(memoryview(data).nbytes for data in outputs.values())


def load_golden(workload: str, slot: int) -> dict[str, str]:
    try:
        return json.loads(GOLDEN_PATH.read_bytes())["workloads"][workload][str(slot)]
    except (OSError, KeyError) as exc:
        raise BenchError(f"no golden hashes for {workload} slot {slot}") from exc


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def require_sources() -> None:
    if not (SRC / "solarband" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'solarband'}")


def load_solarband() -> SimpleNamespace:
    """Import the checkout's solarband in this process (core chain and traced runs)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("bands", "cli", "decomposition", "forecast", "normality", "report", "risk", "series", "synth")
    mods = {n: importlib.import_module(f"solarband.{n}") for n in names}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"solarband was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_child(argv: list[str], stdout_path: Path | None) -> tuple[float, int, float]:
    """Run one ``solarband`` subcommand; return wall seconds, exit code, peak RSS (MB)."""
    with open(stdout_path or os.devnull, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_BOOT, *argv], stdout=out, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)  # a hung child fails, the run still ends
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / MB


def import_probe() -> dict[str, float]:
    """Cumulative import seconds of solarband and scipy.stats in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import solarband"],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    if proc.returncode != 0 or "solarband" not in cumulative or "scipy.stats" not in cumulative:
        raise BenchError("import probe failed:\n" + proc.stderr[-2000:])
    return {"import.solarband_s": cumulative["solarband"], "import.scipy_stats_s": cumulative["scipy.stats"]}


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

OUTPUTS = {
    "forecast": ("track.csv",),
    "bands": ("band.csv", "bands.stdout"),
    "normtest": ("normtest.stdout",),
    "report": ("report/scorecard.csv", "report/monthly.svg", "report/zoom.svg", "report/histogram.svg"),
}


def cli_argv(sub: str, d: Path) -> list[str]:
    return {
        "forecast": ["forecast", "--input", str(d / "series.csv"), "--output", str(d / "track.csv")],
        "bands": ["bands", "--input", str(d / "track.csv"), "--output", str(d / "band.csv")],
        "normtest": ["normtest", "--input", str(d / "track.csv")],
        "report": ["report", "--input", str(d / "series.csv"), "--output", str(d / "report")],
    }[sub]


def synth_argv(w: Workload, slot: int, out: Path) -> list[str]:
    return ["synth", "--output", str(out), "--days", str(w.days), "--regime", "broken", "--seed", str(slot)]


def read_outputs(sub: str, d: Path) -> dict[str, bytes]:
    """The subcommand's outputs; a missing file reads as a value no digest matches."""
    return {name: (d / name).read_bytes() if (d / name).exists() else b"<missing>" for name in OUTPUTS[sub]}


def clear_outputs(sub: str, d: Path) -> None:
    """Remove the previous pass's outputs, so a file left over cannot pass the check."""
    for name in OUTPUTS[sub]:
        (d / name).unlink(missing_ok=True)


def make_input(w: Workload, slot: int, d: Path) -> tuple[dict[str, bytes], dict]:
    """Drop gap rows from ``synth.csv`` into ``series.csv``; return outputs to check and input facts."""
    raw = (d / "synth.csv").read_bytes()
    text, record = gaps.inject_gaps(raw.decode(), slot)
    data = text.encode()
    (d / "series.csv").write_bytes(data)
    facts = {
        "grid_minutes": w.days * 1440,
        "rows": record.rows_in - record.rows_dropped,
        "gap_fraction": record.fraction,
        "gap_runs": record.runs,
    }
    return {"synth.csv": raw, "series.csv": data}, facts


def cli_setup(w: Workload, slot: int, d: Path, checker: Checker) -> tuple[float, dict]:
    for name in ("synth.csv", "series.csv"):  # so a file left over cannot pass the check
        (d / name).unlink(missing_ok=True)
    wall, code, _ = run_child(synth_argv(w, slot, d / "synth.csv"), None)
    start = time.perf_counter()
    outputs, facts = make_input(w, slot, d) if code == 0 else ({}, {})
    wall += time.perf_counter() - start
    checker.op("synth", code == 0, outputs)
    return wall, facts


def cli_chain_children(
    d: Path, checker: Checker, probe: HostProbe | None = None
) -> tuple[dict[str, float], dict[str, float], int, float]:
    """One pass of the chain as child processes.

    Returns wall seconds and peak RSS of each child, the output bytes, and
    with ``probe`` the sum of the children's wall/probe ratios (else 0).
    """
    walls, rss, size, ratio = {}, {}, 0, 0.0
    for sub in CHAIN:
        stdout_path = d / f"{sub}.stdout" if f"{sub}.stdout" in OUTPUTS[sub] else None
        clear_outputs(sub, d)
        walls[sub], code, rss[sub] = run_child(cli_argv(sub, d), stdout_path)
        if probe is not None:
            ratio += probe.ratio(walls[sub])
        outputs = read_outputs(sub, d) if code == 0 else {}
        checker.op(sub, code == 0, outputs)
        size += nbytes(outputs)
    return walls, rss, size, ratio


def cli_main_inprocess(sb, argv: list[str], recorder: spans.Recorder | None) -> tuple[int, str]:
    """``solarband.cli.main(argv)`` in this process: exit code and captured stdout."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), recorder.span(f"cli.{argv[0]}") if recorder else nullcontext():
            code = sb.cli.main(argv)
    except Exception:  # an uncaught error in the program fails the operation, not the run
        traceback.print_exc()
        code = 1
    return code, buf.getvalue()


def cli_chain_inprocess(sb, d: Path, checker: Checker, recorder: spans.Recorder | None = None) -> float:
    """One pass of the chain through ``solarband.cli.main``; returns its wall seconds."""
    total = 0.0
    for sub in CHAIN:
        clear_outputs(sub, d)
        start = time.perf_counter()
        code, stdout = cli_main_inprocess(sb, cli_argv(sub, d), recorder)
        total += time.perf_counter() - start
        if f"{sub}.stdout" in OUTPUTS[sub]:
            (d / f"{sub}.stdout").write_bytes(stdout.encode())
        checker.op(sub, code == 0, read_outputs(sub, d) if code == 0 else {})
    return total


@dataclass
class Outcome:
    metrics: dict[str, float]
    facts: dict  # the input: grid minutes, rows, gap fraction and runs
    samples: dict[str, list[float]]
    recorder: spans.Recorder | None = None


def time_cli(w: Workload, slot: int, seconds: float, d: Path, checker: Checker) -> Outcome:
    setups, passes, rss_max, size = [], [], 0.0, 0
    setup_ratios, pass_ratios = [], []
    probe = HostProbe()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, facts = cli_setup(w, slot, d, checker)
        setups.append(wall)
        setup_ratios.append(probe.ratio(wall))
        walls, rss, size, ratio = cli_chain_children(d, checker, probe)
        passes.append(walls)
        pass_ratios.append(ratio)
        rss_max = max(rss_max, *rss.values())
    samples = {"setup_s": setups, "pipeline_s": [sum(p.values()) for p in passes], "reference_s": probe.refs}
    samples.update({f"{sub}_s": [p[sub] for p in passes] for sub in CHAIN})
    metrics = {
        "setup_s": normalized(setup_ratios),
        "pipeline_s": normalized(pass_ratios),
        "peak_rss_mb": rss_max,
        "output_mb": size / MB,
    }
    return Outcome(metrics, facts, samples)


def trace_cli(w: Workload, slot: int, d: Path, checker: Checker) -> Outcome:
    """Child-process pass for peak RSS, then warm-up, traced and untraced in-process passes."""
    _, facts = cli_setup(w, slot, d, checker)
    walls, rss, _, _ = cli_chain_children(d, checker)
    sb = load_solarband()
    cli_chain_inprocess(sb, d, checker)  # warm-up, so the traced and untraced passes compare like with like
    traced = d / "traced"
    traced.mkdir()
    recorder = spans.Recorder(run=f"{w.name}-{slot}")
    undo = spans.instrument(recorder, trace_sites(sb))
    try:
        code, _ = cli_main_inprocess(sb, synth_argv(w, slot, traced / "synth.csv"), recorder)
        outputs, _ = make_input(w, slot, traced) if code == 0 else ({}, {})
        checker.op("synth", code == 0, outputs)
        traced_s = cli_chain_inprocess(sb, traced, checker, recorder)
    finally:
        spans.restore(undo)
    untraced_s = cli_chain_inprocess(sb, d, checker)
    metrics = layer_metrics(recorder, traced_s, untraced_s)
    for sub in CHAIN:
        metrics[f"cli.{sub}.peak_rss_mb"] = rss[sub]
        metrics[f"cli.{sub}.wall_s"] = walls[sub]
    return Outcome(metrics, facts, {}, recorder)


# ---------------------------------------------------------------------------
# core workload
# ---------------------------------------------------------------------------


def core_generate(sb, w: Workload, slot: int):
    return sb.synth.generate(sb.synth.SynthConfig(days=w.days, cloud_regime="broken", seed=slot))


def core_chain(sb, series) -> dict:
    """The README's library chain with hourly recalibration; returns its outputs.

    Functions are looked up on their modules at call time so the traced run
    sees them. Arrays are returned as they are, not copied, so that the
    benchmark adds little to the process's peak RSS.
    """
    import numpy as np

    dec = sb.decomposition.extract_trend(series, sb.decomposition.DEFAULT_WINDOW)
    track = sb.forecast.trend_forecast(series, dec, sb.forecast.DEFAULT_HORIZON)
    vol = sb.risk.volatility_track(track)
    mask = sb.series.daylight_mask(series, sb.series.DEFAULT_EPS_DAY)
    band = sb.bands.calibrated_band(
        track, vol, mask, window_days=CORE_WINDOW_DAYS, recal_every=CORE_RECAL_EVERY
    )
    # The CLI's normtest sample: daylight errors, standardized for ks_normal.
    diff = track.realized - track.predicted
    sample = diff[mask.flags & ~np.isnan(diff)]
    standardized = (sample - sample.mean()) / sample.std(ddof=1)
    reports = [
        sb.normality.jarque_bera(sample),
        sb.normality.ks_normal(standardized),
        sb.normality.lilliefors(sample),
    ]
    card = sb.report.score(track, band, mask)
    hist = sb.normality.diff_histogram(sample, 60)

    verdicts = "".join(f"{r.test_name},{r.n},{r.statistic!r},{r.threshold!r},{r.reject}\n" for r in reports)
    arrays = {
        "trend": dec.trend,
        "predicted": track.predicted,
        "vol_pred": vol.vol_pred,
        "band.lower": band.lower,
        "band.upper": band.upper,
        "band.alpha": band.alpha,
        "histogram": hist.counts,
    }
    # sha256 reads an array's buffer in place, which needs C order; this copies only if it is not.
    outputs = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    outputs["scorecard"] = repr(card).encode()
    outputs["normality"] = verdicts.encode()
    return outputs


class CoreRunner:
    """Set-up and passes of the in-memory chain; an exception fails the operation."""

    def __init__(self, w: Workload, slot: int, checker: Checker) -> None:
        self.sb = load_solarband()
        self.w, self.slot, self.checker = w, slot, checker
        self.facts = {"grid_minutes": w.days * 1440, "rows": w.days * 1440, "gap_fraction": 0.0, "gap_runs": 0}

    def _op(self, name: str, fn):
        try:
            return fn()
        except Exception:  # the program under test raised: record it and go on
            traceback.print_exc()
            self.checker.op(name, False, {})
            return None

    def setup(self):
        """One ``generate`` call: its wall seconds and the series (None on failure)."""
        start = time.perf_counter()
        series = self._op("generate", lambda: core_generate(self.sb, self.w, self.slot))
        wall = time.perf_counter() - start
        if series is not None:
            self.checker.op("generate", True, {"series": series.values})
        return wall, series

    def one_pass(self, series) -> tuple[float, int] | None:
        """One chain pass: its wall seconds and output bytes, or None on failure.

        The outputs are dropped once checked, so no pass overlaps the last one's.
        """
        start = time.perf_counter()
        outputs = self._op("chain", lambda: core_chain(self.sb, series))
        wall = time.perf_counter() - start
        if outputs is None:
            return None
        self.checker.op("chain", True, outputs)
        return wall, nbytes(outputs)


def time_core(w: Workload, slot: int, seconds: float, checker: Checker) -> Outcome:
    core = CoreRunner(w, slot, checker)
    setups, passes, size = [], [], 0
    setup_ratios, pass_ratios = [], []
    probe = HostProbe()
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, series = core.setup()
        setups.append(wall)
        setup_ratios.append(probe.ratio(wall))
        result = None if series is None else core.one_pass(series)
        series = None  # free this input before the next set-up makes another
        if result is None:
            break
        passes.append(result[0])
        pass_ratios.append(probe.ratio(result[0]))
        size = result[1]
    if not passes:
        raise BenchError("the core chain failed; nothing was measured")
    metrics = {
        "setup_s": normalized(setup_ratios),
        "pipeline_s": normalized(pass_ratios),
        # The chain runs in this process; the benchmark keeps no copy of its data.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "output_mb": size / MB,
    }
    return Outcome(metrics, core.facts, {"setup_s": setups, "pipeline_s": passes, "reference_s": probe.refs})


def trace_core(w: Workload, slot: int, checker: Checker) -> Outcome:
    """Warm-up pass, traced set-up and pass, then one untraced pass for the overhead."""
    core = CoreRunner(w, slot, checker)
    _, series = core.setup()
    if series is not None:
        core.one_pass(series)
    recorder = spans.Recorder(run=f"{w.name}-{slot}")
    undo = spans.instrument(recorder, trace_sites(core.sb))
    try:
        _, series = core.setup()
        traced = None if series is None else core.one_pass(series)
    finally:
        spans.restore(undo)
    untraced = None if traced is None else core.one_pass(series)
    if untraced is None:
        raise BenchError("the core chain failed; nothing was traced")
    traced_s, untraced_s = traced[0], untraced[0]
    return Outcome(layer_metrics(recorder, traced_s, untraced_s), core.facts, {}, recorder)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _rows_in(rec: spans.Recorder, name: str, args, kwargs, result) -> None:
    rec.count(f"{name}.rows", args[0].count("\n") - 1)  # every line ends in LF; minus the header


def _rows_out(rec: spans.Recorder, name: str, args, kwargs, result) -> None:
    rec.count(f"{name}.rows", result.count("\n") - 1)


def _defined(rec: spans.Recorder, name: str, args, kwargs, result) -> None:
    trend = result.trend
    rec.count(f"{name}.defined", int((trend == trend).sum()))  # NaN != NaN
    rec.count(f"{name}.samples", trend.size)


def _sample_n(rec: spans.Recorder, name: str, args, kwargs, result) -> None:
    rec.counts["normality.sample_n"] = len(args[0])


def _svg_bytes(rec: spans.Recorder, name: str, args, kwargs, result) -> None:
    kind = args[3] if len(args) > 3 else kwargs["kind"]
    rec.count(f"report.svg_bytes.{kind}", len(result))  # SVG text is ASCII


_POINTS = re.compile(r'points="([^"]*)"')


def _polylines(rec: spans.Recorder, name: str, args, kwargs, result) -> None:
    points = _POINTS.findall(result)
    rec.count("report.polylines", len(points))
    rec.count("report.polyline_points", sum(p.count(" ") + 1 for p in points if p))


def _text_read(rec: spans.Recorder, name: str, args, kwargs, result) -> None:
    rec.count(f"{name}.bytes", len(result))  # every file the pipeline reads is ASCII


def _text_written(rec: spans.Recorder, name: str, args, kwargs, result) -> None:
    rec.count(f"{name}.bytes", len(args[1] if len(args) > 1 else kwargs["data"]))


def trace_sites(sb) -> list:
    """Every public function at each module attribute its callers look it up by."""
    return [
        (sb.cli, "ingest_csv", "series.ingest_csv", _rows_in),
        (sb.cli, "emit_csv", "series.emit_csv", None),
        (sb.series, "daylight_mask", "series.daylight_mask", None),
        (sb.report, "daylight_mask", "series.daylight_mask", None),
        (sb.synth, "generate", "synth.generate", None),
        (sb.cli, "read_forecast_csv", "cli.read_forecast_csv", _rows_in),
        (sb.cli, "write_forecast_csv", "cli.write_forecast_csv", _rows_out),
        (sb.cli, "write_band_csv", "cli.write_band_csv", _rows_out),
        (sb.cli, "extract_trend", "decomposition.extract_trend", _defined),
        (sb.decomposition, "extract_trend", "decomposition.extract_trend", _defined),
        (sb.cli, "trend_forecast", "forecast.trend_forecast", None),
        (sb.forecast, "trend_forecast", "forecast.trend_forecast", None),
        (sb.risk, "volatility_track", "risk.volatility_track", None),
        (sb.bands, "calibrate_alpha", "bands.calibrate_alpha", None),
        (sb.bands, "calibration_events", "bands.calibration_events", None),
        (sb.bands, "calibrated_band", "bands.calibrated_band", None),
        (sb.normality, "jarque_bera", "normality.jarque_bera", _sample_n),
        (sb.normality, "ks_normal", "normality.ks_normal", None),
        (sb.normality, "lilliefors", "normality.lilliefors", None),
        (sb.normality, "diff_histogram", "normality.diff_histogram", None),
        (sb.report, "diff_histogram", "normality.diff_histogram", None),
        (sb.report, "score", "report.score", None),
        (sb.report, "emit_plot", "report.emit_plot", _svg_bytes),
        (sb.report, "render_series_svg", "report.render_series_svg", _polylines),
        (pathlib.Path, "read_text", "io.read_text", _text_read),
        (pathlib.Path, "write_text", "io.write_text", _text_written),
    ]


def layer_metrics(recorder: spans.Recorder, traced_s: float, untraced_s: float) -> dict[str, float]:
    own = spans.self_time_by_name(recorder.spans)
    counts = recorder.counts
    metrics = {f"{name}.self_s": own.get(name, 0.0) for name in TRACED_LAYERS}
    metrics.update({name: counts.get(name, 0) for name in PER_LAYER_COUNTS})
    samples = counts.get("decomposition.extract_trend.samples", 0)
    metrics["decomposition.extract_trend.defined_frac"] = (
        counts.get("decomposition.extract_trend.defined", 0) / samples if samples else 0.0
    )
    for sub in CHAIN:  # from a child-process pass, set by trace_cli
        metrics[f"cli.{sub}.peak_rss_mb"] = metrics[f"cli.{sub}.wall_s"] = 0.0
    metrics["trace.pipeline_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
    }


def tail_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if the count supports one."""
    n = len(values)
    if n < 20:
        return "too few samples for a tail percentile"
    q = (n - 10) / n
    return f"p{100 * q:.0f}={sorted(values)[int(q * n) - 1]:.4f}"


def print_summary(metrics: dict, units: dict, samples: dict) -> None:
    for name, unit in units.items():
        values = samples.get(name)
        extra = ""
        if values:
            raw = f"raw median={statistics.median(values):.4f}, {tail_percentile(values)}"
            extra = f"  n={len(values)}, {raw}, reference median={statistics.median(samples['reference_s']):.4f}"
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}{extra}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    require_sources()
    WORK.mkdir(exist_ok=True)
    w = WORKLOADS[workload]
    slot = seed % POOL
    checker = Checker(load_golden(workload, slot))
    env = environment()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True, stdout=subprocess.DEVNULL)
    env.update(import_probe())
    if w.in_memory:
        outcome = trace_core(w, slot, checker) if trace else time_core(w, slot, seconds, checker)
    else:
        d = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        try:
            outcome = trace_cli(w, slot, d, checker) if trace else time_cli(w, slot, seconds, d, checker)
        finally:
            shutil.rmtree(d, ignore_errors=True)
    metrics, samples = outcome.metrics, outcome.samples
    if trace:
        metrics.update({k: env[k] for k in ("import.solarband_s", "import.scipy_stats_s")})
        (WORK / f"trace-{workload}-s{seed}.json").write_text(json.dumps(outcome.recorder.to_json()))
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": workload,
        "seed": seed,
        "input_slot": slot,
        "environment": env,
        "input": outcome.facts,
        "samples": samples,
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"result-{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps({**record, "result": result}))
    print(json.dumps(record))
    print_summary(metrics, units, samples)
    return result


def record_golden(names: list[str]) -> None:
    require_sources()
    golden = json.loads(GOLDEN_PATH.read_bytes()) if GOLDEN_PATH.exists() else {}
    golden["pool"] = POOL
    table = golden.setdefault("workloads", {})
    for name in names:
        w = WORKLOADS[name]
        table[name] = {}
        for slot in range(POOL):
            checker = Checker(None)
            if w.in_memory:
                core = CoreRunner(w, slot, checker)
                _, series = core.setup()
                core.one_pass(series)
            else:
                d = WORK / f"record-{name}-{slot}"
                shutil.rmtree(d, ignore_errors=True)
                d.mkdir(parents=True)
                try:
                    cli_setup(w, slot, d, checker)
                    cli_chain_children(d, checker)
                finally:
                    shutil.rmtree(d, ignore_errors=True)
            table[name][str(slot)] = checker.recorded
            print(f"recorded {name} slot {slot}", file=sys.stderr)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            record_golden([args.workload] if args.workload else list(WORKLOADS))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
