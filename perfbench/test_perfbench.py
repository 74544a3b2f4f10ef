"""Tests for the benchmark's own machinery (run with pytest from the repo root)."""

import hashlib
import math
from pathlib import Path

import pytest

import gaps
import run
import spans


def _series_csv(rows: int) -> str:
    lines = ["timestamp,ghi_wm2"]
    lines += [f"2021-05-30T{k // 60 % 24:02d}:{k % 60:02d}:00Z,{k}.5" for k in range(rows)]
    return "\n".join(lines) + "\n"


def test_self_time_subtracts_children_on_hand_built_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None, "r"),
        spans.Span("a", 1.0, 4.0, 0, "r"),
        spans.Span("a.x", 2.0, 3.0, 1, "r"),
        spans.Span("b", 5.0, 9.0, 0, "r"),
        spans.Span("b.y", 5.0, 6.0, 3, "r"),
        spans.Span("b.y", 8.5, 9.5, 3, "r"),  # overruns its parent: only 0.5 s is inside b
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 1.0])
    assert spans.self_time_by_name(tree) == pytest.approx(
        {"root": 3.0, "a": 2.0, "a.x": 1.0, "b": 2.5, "b.y": 2.0}
    )


def test_overlapping_children_are_covered_once():
    tree = [
        spans.Span("p", 0.0, 10.0, None, "r"),
        spans.Span("c", 1.0, 5.0, 0, "r"),
        spans.Span("c", 3.0, 7.0, 0, "r"),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_recorder_nests_spans_and_counts_failures():
    class Owner:
        @staticmethod
        def work(x):
            if x < 0:
                raise ValueError("negative")
            return x * 2

    recorder = spans.Recorder(run="t")
    original = Owner.work
    undo = spans.instrument(recorder, [(Owner, "work", "owner.work", None)])
    with recorder.span("outer"):
        assert Owner.work(2) == 4
        with pytest.raises(ValueError):
            Owner.work(-1)
    spans.restore(undo)
    assert Owner.work is original
    assert [s.name for s in recorder.spans] == ["outer", "owner.work", "owner.work"]
    assert [s.parent for s in recorder.spans] == [None, 0, 0]
    assert all(s.end >= s.start for s in recorder.spans)
    assert recorder.counts["owner.work.calls"] == 2
    assert recorder.counts["owner.work.failed"] == 1


def test_traced_run_removes_every_wrapper():
    sb = run.load_solarband()
    originals = [getattr(owner, attr) for owner, attr, _, _ in run.trace_sites(sb)]
    tiny = run.Workload("core-tiny", 2, in_memory=True)
    checker = run.Checker(None)
    outcome = run.trace_core(tiny, 0, checker)
    metrics, recorder = outcome.metrics, outcome.recorder
    after = [getattr(owner, attr) for owner, attr, _, _ in run.trace_sites(sb)]
    assert all(a is b for a, b in zip(after, originals))
    assert not any(hasattr(f, "__wrapped__") for f in after)
    assert checker.failed == 0
    assert metrics["bands.calibrate_alpha.calls"] == recorder.counts["bands.calibrate_alpha.calls"] > 0
    assert metrics["synth.generate.self_s"] > 0
    assert metrics["series.ingest_csv.self_s"] == 0.0  # no CSV on the in-memory chain
    assert set(metrics) == set(run.PER_LAYER) - {"import.solarband_s", "import.scipy_stats_s"}


def test_gap_injector_is_seeded_and_keeps_the_grid_span():
    text = _series_csv(20000)
    first, record = gaps.inject_gaps(text, seed=11)
    again, _ = gaps.inject_gaps(text, seed=11)
    other, _ = gaps.inject_gaps(text, seed=12)
    assert first == again
    assert first != other

    rows_in = text.splitlines()[1:]
    rows_out = first.splitlines()[1:]
    assert rows_out[0] == rows_in[0] and rows_out[-1] == rows_in[-1]
    kept = set(rows_out)
    missing = [row not in kept for row in rows_in]
    runs = sum(1 for k, gone in enumerate(missing) if gone and (k == 0 or not missing[k - 1]))
    assert record.rows_in == len(rows_in)
    assert record.rows_dropped == sum(missing) == len(rows_in) - len(rows_out)
    assert record.runs == runs
    assert math.isclose(record.fraction, gaps.TARGET_FRACTION, abs_tol=gaps.BURST_MIN / len(rows_in))


def test_one_flipped_byte_counts_as_a_failure():
    data = b"timestamp,predicted_wm2,realized_wm2\n2021-05-30T00:00:00Z,0.0,0.0\n"
    checker = run.Checker({"track.csv": hashlib.sha256(data).hexdigest()})
    assert checker.op("forecast", True, {"track.csv": data})
    flipped = bytearray(data)
    flipped[-3] ^= 0x01
    assert not checker.op("forecast", True, {"track.csv": bytes(flipped)})
    assert not checker.op("forecast", False, {"track.csv": data})  # nonzero exit
    assert (checker.attempted, checker.failed) == (3, 2)


def test_missing_output_never_matches(tmp_path: Path):
    checker = run.Checker({"normtest.stdout": hashlib.sha256(b"").hexdigest()})
    assert not checker.op("normtest", True, run.read_outputs("normtest", tmp_path))


@pytest.mark.parametrize("trace", [False, True])
def test_core_workload_runs_in_a_clean_checkout(tmp_path: Path, monkeypatch, trace):
    work = tmp_path / "work"  # not there yet, as in a fresh checkout
    monkeypatch.setattr(run, "WORK", work)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    result = run.run("core-year-hourly", 5, 0.0, trace)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    assert (work / f"result-core-year-hourly-s5-t{int(trace)}.json").is_file()



def test_normalized_time_follows_the_program_not_the_host():
    quiet = [0.8 / 0.05, 0.81 / 0.05]
    loaded = [0.8 * 1.5 / (0.05 * 1.5), 0.81 * 1.5 / (0.05 * 1.5)]  # host 50% slower
    slower_program = [r * 1.2 for r in quiet]
    assert run.normalized(quiet) == pytest.approx(run.normalized(loaded))
    assert run.normalized(slower_program) == pytest.approx(1.2 * run.normalized(quiet))
    assert run.normalized(quiet) == pytest.approx(0.805 * run.REFERENCE_S / 0.05)


def test_host_probe_divides_by_the_probes_around_the_operation(monkeypatch):
    probes = iter([0.04, 0.06, 0.10])
    monkeypatch.setattr(run, "reference_s", lambda: next(probes))
    probe = run.HostProbe()
    assert probe.ratio(1.0) == pytest.approx(1.0 / 0.05)
    assert probe.ratio(1.6) == pytest.approx(1.6 / 0.08)
    assert probe.refs == [0.04, 0.06, 0.10]
