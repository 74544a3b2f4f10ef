"""A standing mutation check: each named mutant must make its named tests fail.

Run from anywhere, with the same Python that runs the test suite:

    python tests/mutants.py

Each mutant replaces one exact snippet of one file under ``src/`` with its
replacement, in a fresh temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``,
and runs its named tests there with pytest. The mutant is killed when pytest reports a
failed test (exit 1). The check fails when any mutant survives, when a
snippet does not occur exactly once in its file (a refactor must update its
mutants), or when the named tests do not all pass on the unmutated copy.
Standard library only; pytest runs in child processes, one at a time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "ranks-without-downward-settle",
        "src/solarband/bands.py",
        "    while (down := (rank > 1) & ((rank - 1) / counts >= target)).any():\n"
        "        rank -= down\n",
        "",
        ("tests/test_bands.py::test_calibrate_exact_rank_boundaries",),
    ),
    Mutant(
        "ranks-without-upward-settle",
        "src/solarband/bands.py",
        "    while (up := rank / counts < target).any():\n        rank += up\n",
        "",
        ("tests/test_bands.py::test_calibrate_target_just_past_a_boundary_takes_the_next_rank",),
    ),
    Mutant(
        "order-statistics-off-by-one",
        "src/solarband/bands.py",
        "runs[offsets + within - 1]",
        "runs[offsets + within - 2]",
        ("tests/test_bands.py::test_calibrate_matches_brute_force",
         "tests/test_bands.py::test_a_batch_equals_the_per_window_rule_at_every_index"),
    ),
    Mutant(
        "calibration-grid-anchored-to-the-track-start",
        "src/solarband/bands.py",
        "min((-start_minute) % recal_every, n)",
        "min(0, n)",
        ("tests/test_bands.py::test_recalibration_grid_is_absolute",),
    ),
    Mutant(
        "trend-slope-without-its-plus-zero-start",
        "src/solarband/decomposition.py",
        "acc.fill(0.0)",
        "acc.fill(-0.0)",
        ("tests/test_decomposition.py::test_block_fit_is_the_whole_view_fit_bit_for_bit",),
    ),
    Mutant(
        "trend-overflow-uncounted-in-a-one-row-block",
        "src/solarband/decomposition.py",
        "        return a + bad\n",
        "        return a + bad if b - a > 1 else bad[:0]\n",
        ("tests/test_decomposition.py::test_block_fit_is_the_whole_view_fit_bit_for_bit",),
    ),
    Mutant(
        "the-first-overflow-taken-from-the-last-block",
        "src/solarband/decomposition.py",
        "np.concatenate(in_blocks(fit, slope.size))",
        "np.concatenate(in_blocks(fit, slope.size)[::-1])",
        ("tests/test_decomposition.py::test_block_fit_is_the_whole_view_fit_bit_for_bit",),
    ),
    Mutant(
        "a-share-skips-its-last-block",
        "src/solarband/series.py",
        "range(count * share // shares, count * (share + 1) // shares)",
        "range(count * share // shares, count * (share + 1) // shares - 1)",
        ("tests/test_decomposition.py::test_the_fit_does_not_depend_on_the_cpu_count",
         "tests/test_normality.py::test_jarque_bera_does_not_depend_on_the_cpu_count"),
    ),
    Mutant(
        "tracks-with-nan-compare-unequal",
        "src/solarband/series.py",
        "equal_nan=self._dtype is float",
        "equal_nan=False",
        ("tests/test_tracks.py::test_tracks_compare_by_value",),
    ),
    Mutant(
        "inside-band-as-an-open-interval",
        "src/solarband/bands.py",
        "(lower <= realized) & (realized <= upper)",
        "(lower < realized) & (realized < upper)",
        ("tests/test_report.py::test_hand_computed_four_record_card",),
    ),
    Mutant(
        "a-normality-tie-rejects",
        "src/solarband/normality.py",
        "reject=statistic > threshold",
        "reject=statistic >= threshold",
        ("tests/test_normality.py::test_a_statistic_equal_to_its_threshold_is_no_reject",),
    ),
    Mutant(
        "eligible-drops-its-first-field",
        "src/solarband/series.py",
        "    for field in fields:\n",
        "    for field in fields[1:]:\n",
        ("tests/test_bands.py::test_a_batch_equals_the_per_window_rule_at_every_index",),
    ),
    Mutant(
        "grid-reader-checks-the-second-before-the-stamp-layout",
        "src/solarband/series.py",
        '    check("malformed timestamp", malformed | (commas[:, 0] - starts[:n] != STAMP_LEN))\n'
        '    check("timestamp not minute-aligned", second != 0)\n',
        '    check("timestamp not minute-aligned", second != 0)\n'
        '    check("malformed timestamp", malformed[:n] | (commas[:n, 0] - starts[:n] != STAMP_LEN))\n',
        ("tests/test_grid_csv.py::test_first_defect_names_its_line",),
    ),
    Mutant(
        "track-header-admits-max-grid-minutes",
        "src/solarband/cli.py",
        "    if horizon >= MAX_GRID_MINUTES:\n",
        "    if horizon > MAX_GRID_MINUTES:\n",
        ("tests/test_grid_csv.py::"
         "test_the_longest_horizon_a_track_header_names_round_trips_and_the_next_is_refused",
         "tests/test_cli.py::test_a_track_header_naming_a_hostile_horizon_is_a_data_error[horizon_max.csv]"),
    ),
    Mutant(
        "a-grid-ending-on-the-last-stamp-minute-refused",
        "src/solarband/series.py",
        "len(self) - 1 > (LAST_MINUTE - self.start_time) // CADENCE",
        "len(self) - 1 >= (LAST_MINUTE - self.start_time) // CADENCE",
        ("tests/test_grid_csv.py::test_a_track_ends_by_the_last_minute_a_stamp_names",),
    ),
    Mutant(
        "one-polyline-drawn-across-a-gap",
        "src/solarband/report.py",
        "zip(edges[::2], edges[1::2])",
        "[(edges[0], edges[-1])] if edges else []",
        ("tests/test_report.py::test_polyline_points_with_gaps",
         "tests/test_report.py::test_series_svg_equals_per_point_reference"),
    ),
    Mutant(
        "report-writes-its-files-in-place",
        "src/solarband/cli.py",
        "        out.mkdir()  # no parents: the parent of every --output must exist\n",
        "        out.mkdir()  # no parents: the parent of every --output must exist\n"
        "        for target, text in texts.items():\n"
        "            target.write_text(text)\n",
        ("tests/test_cli.py::test_report_failing_on_its_third_file_writes_nothing",),
    ),
    Mutant(
        "writer-in-place",
        "src/solarband/cli.py",
        "            temps[-1].write_text(text)\n",
        "            target.write_text(text)\n"
        "            temps[-1].write_text(text)\n",
        ("tests/test_cli.py::test_a_write_cut_by_the_file_size_limit_leaves_its_target_as_it_was",),
    ),
    Mutant(
        "every-track-read-at-the-default-horizon",
        "src/solarband/cli.py",
        "start_time=start, horizon=horizon,",
        "start_time=start, horizon=DEFAULT_HORIZON,",
        ("tests/test_cli.py::test_bands_reads_the_horizon_forecast_wrote",),
    ),
    Mutant(
        "cloud-noise-lanes-kept-without-their-merge-check",
        "src/solarband/synth.py",
        "        if np.array_equal(guess.view(np.int64), ends.view(np.int64)):\n"
        "            break\n",
        "        break\n",
        ("tests/test_synth.py::test_lanes_that_cannot_merge_rerun_the_whole_track",),
    ),
    Mutant(
        "every-regime-runs-the-overcast-lane",
        "src/solarband/synth.py",
        '    return math.ceil(_LANE * (math.log(_OVERCAST["rho"]) / math.log(rho)))\n',
        "    return _LANE\n",
        ("tests/test_synth.py::test_each_lane_is_the_shortest_that_forgets_as_much_as_the_overcast_lane",),
    ),
    Mutant(
        "dwell-scales-swapped",
        "src/solarband/synth.py",
        'np.resize([p["dwell_high"], p["dwell_low"]], _DRAWS + 1)',
        'np.resize([p["dwell_low"], p["dwell_high"]], _DRAWS + 1)',
        ("tests/test_synth.py::test_broken_levels_equal_one_scalar_draw_per_dwell",
         "tests/test_synth.py::test_crafted_draws_equal_one_scalar_draw_per_dwell"),
    ),
    Mutant(
        "dwell-first-draw-clamp-dropped",
        "src/solarband/synth.py",
        "        if held < 0:  # only for a first draw of 0.0; max() here took 50% longer\n"
        "            held = 0\n",
        "",
        ("tests/test_synth.py::test_crafted_draws_equal_one_scalar_draw_per_dwell",),
    ),
    Mutant(
        "dwell-blocks-scaled-as-if-each-began-on-a-bright-draw",
        "src/solarband/synth.py",
        "scales[first % 2 : first % 2 + _DRAWS]",
        "scales[:_DRAWS]",
        ("tests/test_synth.py::test_crafted_draws_equal_one_scalar_draw_per_dwell",),
    ),
    Mutant(
        "no-defined-prediction-raised-as-a-bare-value-error",
        "src/solarband/cli.py",
        'raise NoRecordsError(f"no defined prediction:',
        'raise ValueError(f"no defined prediction:',
        ("tests/test_cli.py::test_each_failure_kind_names_one_class",),
    ),
    Mutant(
        "text-for-a-closed-stdout-unchecked",
        "src/solarband/cli.py",
        "    if stdout and sys.stdout is None:\n"
        '        raise OSError("stdout is closed")\n',
        "",
        ("tests/test_cli.py::test_a_run_with_stdout_closed_prints_nothing_or_writes_nothing",),
    ),
    Mutant(
        "stdout-written-after-the-renames",
        "src/solarband/cli.py",
        "        if stdout:\n"
        "            _print(stdout)\n"
        "        for temp, target in zip(temps, texts):\n"
        "            os.replace(temp, target)\n",
        "        for temp, target in zip(temps, texts):\n"
        "            os.replace(temp, target)\n"
        "        if stdout:\n"
        "            _print(stdout)\n",
        ("tests/test_cli.py::test_a_child_whose_stdout_pipe_is_broken_writes_no_file",),
    ),
    Mutant(
        "an-error-line-to-a-closed-stderr-raises",
        "src/solarband/cli.py",
        "        with contextlib.suppress(OSError):\n"
        "            print(line, file=sys.stderr)\n",
        "        print(line, file=sys.stderr)\n",
        ("tests/test_cli.py::test_a_failed_child_with_fd_2_closed_exits_with_its_code",),
    ),
    Mutant(
        "collector-frozen-in-main",
        "src/solarband/cli.py",
        # main rebound to freeze on every way out: the freeze moved from entrypoint into main
        "    try:\n        sys.exit(main())\n    finally:\n        gc.freeze()\n",
        "    sys.exit(main())\n\n\n"
        "_main = main\n\n\n"
        "def main(argv=None):\n"
        "    try:\n        return _main(argv)\n    finally:\n        gc.freeze()\n",
        ("tests/test_cli.py::test_main_never_freezes_the_collector",),
    ),
    Mutant(
        "normtest-level-written-with-g",
        "src/solarband/cli.py",
        "{format_value(r.level)}",
        "{r.level:g}",
        ("tests/test_cli.py::test_normtest_report_writes_its_level_as_every_float",),
    ),
    Mutant(
        "an-empty-batch-reads-from-the-track-start",
        "src/solarband/bands.py",
        "los.min(initial=n)",
        "los.min(initial=0)",
        ("tests/test_bands.py::test_standalone_call_computes_only_its_window",),
    ),
    Mutant(
        "a-gap-cell-written-as-nan",
        "src/solarband/series.py",
        '"" if math.isnan(v) else format_value(v)',
        "format_value(v)",
        ("tests/test_grid_csv.py::test_array_writer_matches_row_loop",
         "tests/test_cli.py::test_default_horizon_chain_bytes_are_pinned"),
    ),
    Mutant(
        "empty-zoom-flag-reads-as-absent",
        "src/solarband/cli.py",
        "    if (args.zoom_from is None) != (args.zoom_to is None):\n"
        "        raise ValueError(\"--from and --to must be given together\")\n"
        "    zoom = None if args.zoom_from is None else",
        "    if bool(args.zoom_from) != bool(args.zoom_to):\n"
        "        raise ValueError(\"--from and --to must be given together\")\n"
        "    zoom = None if not args.zoom_from else",
        ("tests/test_cli.py::test_bad_zoom_writes_nothing",),
    ),
)


def checkout_copy(into: Path) -> Path:
    """``src/``, ``tests/`` and the pytest settings of this checkout, copied under ``into``."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", into)
    return into


def pytest_code(copy: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def mutate(copy: Path, mutant: Mutant) -> str | None:
    """Apply ``mutant`` in ``copy``; the reason it cannot be applied, or None."""
    path = copy / mutant.file
    text = path.read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        return f"snippet occurs {found} times in {mutant.file}, not once"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return None


def main() -> int:
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        baseline = checkout_copy(Path(scratch) / "baseline")
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = pytest_code(baseline, tests)
        if code != 0:
            print(f"FAIL baseline: the named tests exit {code} on the unmutated copy")
            return 1
        for i, mutant in enumerate(MUTANTS):
            copy = checkout_copy(Path(scratch) / f"m{i}")
            reason = mutate(copy, mutant)
            if reason is None:
                code = pytest_code(copy, mutant.tests)
                reason = None if code == 1 else f"pytest exit {code}, not 1 (a failed test)"
            print(f"{'killed' if reason is None else 'FAIL'} {mutant.name}"
                  + ("" if reason is None else f": {reason}"), flush=True)
            failures += reason is not None
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
