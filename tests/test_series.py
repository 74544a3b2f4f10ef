import threading
from unittest import mock

import numpy as np
import pytest
from conftest import START, make_series, usable_cpus
from hypothesis import given, settings
from hypothesis import strategies as st

from solarband import series
from solarband.series import SeriesCsvError, daylight_mask, emit_csv, in_blocks, ingest_csv

HEADER = "timestamp,ghi_wm2"


def test_ingest_consecutive_rows():
    text = (
        f"{HEADER}\n"
        "2021-03-01T00:00:00Z,0\n"
        "2021-03-01T00:01:00Z,100\n"
        "2021-03-01T00:02:00Z,200\n"
    )
    s = ingest_csv(text)
    assert len(s) == 3
    assert s.start_time == START
    assert np.array_equal(s.values, [0.0, 100.0, 200.0])


def test_ingest_fills_missing_minute_with_gap():
    text = f"{HEADER}\n2021-03-01T00:00:00Z,10\n2021-03-01T00:02:00Z,30\n"
    s = ingest_csv(text)
    assert len(s) == 3
    assert s.values[0] == 10.0
    assert np.isnan(s.values[1])
    assert s.values[2] == 30.0


def test_ingest_named_errors():
    """Each defect is a SeriesCsvError whose message names its line and the defect."""
    cases = [
        (f"{HEADER}\n2021-03-01T00:00:00Z,-5\n", "^line 2: negative value: "),
        ("time,ghi\n2021-03-01T00:00:00Z,1\n", "^expected header 'timestamp,ghi_wm2'$"),
        (f"{HEADER}\n2021-03-01T00:00:00Z,1\n2021-03-01T00:00:00Z,2\n", "^line 3: duplicate timestamp: "),
        (f"{HEADER}\n2021-03-01T00:01:00Z,1\n2021-03-01T00:00:00Z,2\n", "^line 3: timestamp out of order: "),
        (f"{HEADER}\n2021-03-01T00:00:30Z,1\n", "^line 2: timestamp not minute-aligned: "),
        (f"{HEADER}\n", "^no data rows$"),
        (f"{HEADER}\n2021-03-01T00:00:00Z,nan\n", "^line 2: non-finite value: "),
    ]
    for text, message in cases:
        with pytest.raises(SeriesCsvError, match=message) as exc:
            ingest_csv(text)
        assert type(exc.value) is SeriesCsvError


def test_round_trip_gap_free():
    s = make_series([0.0, 123.456, 200.75])
    assert ingest_csv(emit_csv(s)) == s


def test_round_trip_restores_interior_gaps():
    s = make_series([10.0, np.nan, np.nan, 30.0, np.nan, 50.0])
    text = emit_csv(s)
    assert text.count("\n") == 4  # header + three non-gap rows
    assert ingest_csv(text) == s


def test_round_trip_full_precision():
    vals = [123.456, 0.1 + 0.2, 1e-7, 9876543.2109876]
    s = make_series(vals)
    restored = ingest_csv(emit_csv(s))
    assert restored.values.tolist() == s.values.tolist()  # bit-exact
    assert "e" not in emit_csv(s).lower().split("\n", 1)[1]  # plain decimal rows


def test_round_trip_random_series():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        values = rng.uniform(0, 1200, n)
        gaps = rng.random(n) < 0.3
        values[gaps] = np.nan
        values[0] = 1.0  # boundary samples must be non-gap to round-trip
        values[-1] = 2.0
        s = make_series(values)
        assert ingest_csv(emit_csv(s)) == s


def test_ingest_never_fabricates_values():
    s = make_series([5.0, np.nan, 7.25])
    text = emit_csv(s)
    emitted = {line.split(",")[1] for line in text.strip().split("\n")[1:]}
    restored = ingest_csv(text)
    for v in restored.values[~np.isnan(restored.values)]:
        assert repr(float(v)) in emitted


def test_series_invariants():
    with pytest.raises(ValueError):
        make_series([-1.0])
    with pytest.raises(ValueError):
        make_series([np.inf])
    with pytest.raises(ValueError):
        make_series([])


def test_values_are_immutable():
    s = make_series([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_daylight_mask_all_zero():
    s = make_series([0.0, 0.0, 0.0])
    assert not daylight_mask(s, 1.0).flags.any()


def test_daylight_mask_basic():
    s = make_series([0.0, 50.0, 0.0])
    assert daylight_mask(s, 1.0).flags.tolist() == [False, True, False]


def test_daylight_mask_strict_boundary():
    s = make_series([0.0])
    assert daylight_mask(s, 0.0).flags.tolist() == [False]


def test_daylight_mask_excludes_gaps_and_is_monotone():
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 100, 200)
    values[rng.random(200) < 0.2] = np.nan
    values[0] = values[-1] = 1.0
    s = make_series(values)
    assert not daylight_mask(s, 0.0).flags[np.isnan(values)].any()
    previous = daylight_mask(s, 0.0).flags
    for eps in (1.0, 10.0, 50.0, 200.0):
        flags = daylight_mask(s, eps).flags
        assert not (flags & ~previous).any()  # raising eps never flips false -> true
        previous = flags
    # deterministic re-masking
    assert daylight_mask(s, 5.0) == daylight_mask(s, 5.0)


def test_daylight_mask_rejects_negative_eps():
    with pytest.raises(ValueError):
        daylight_mask(make_series([1.0]), -0.5)


@settings(max_examples=200, deadline=None, database=None)
@given(block=st.integers(1, 9), n=st.integers(1, 50), cpus=st.sampled_from([1, 2, 3, 5]))
def test_in_blocks_runs_each_block_once_and_returns_them_in_order(block, n, cpus):
    """The fewest balanced blocks tile [0, n); share 0, with the first block, runs in the caller."""
    seen = []  # list.append holds the GIL: safe from every thread

    def fn(a, b):
        seen.append((a, b, threading.get_ident(), np.geterr()["over"], np.geterr()["invalid"]))
        return a, b

    with mock.patch.object(series, "BLOCK", block), usable_cpus(cpus):
        got = in_blocks(fn, n)
    starts = [a for a, _ in got]
    assert starts[0] == 0 and [b for _, b in got] == starts[1:] + [n]
    assert sorted(call[:2] for call in seen) == got
    sizes = [b - a for a, b in got]
    assert len(got) == -(-n // block) and max(sizes) <= block and max(sizes) - min(sizes) <= 1
    assert {call[:3] for call in seen if call[0] == 0} == {(0, got[0][1], threading.get_ident())}
    assert {call[3:] for call in seen} == {("ignore", "ignore")}


@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_an_error_in_a_worker_thread_reaches_the_caller(cpus):
    threads = {}

    def fn(a, b):
        threads[a] = threading.get_ident()
        if a == 4:
            raise ArithmeticError(f"block [{a}, {b})")
        return a

    with mock.patch.object(series, "BLOCK", 1), usable_cpus(cpus):
        with pytest.raises(ArithmeticError, match=r"block \[4, 5\)"):
            in_blocks(fn, 5)
    assert sorted(threads) == [0, 1, 2, 3, 4] and threads[4] != threading.get_ident()
