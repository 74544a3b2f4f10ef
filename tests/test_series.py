import numpy as np
import pytest
from conftest import START, make_series

from solarband.series import (
    DuplicateTimestampError,
    MalformedHeaderError,
    MisalignedTimestampError,
    NegativeIrradianceError,
    NonMonotoneTimestampError,
    SeriesCsvError,
    daylight_mask,
    emit_csv,
    ingest_csv,
)

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
    with pytest.raises(NegativeIrradianceError):
        ingest_csv(f"{HEADER}\n2021-03-01T00:00:00Z,-5\n")
    with pytest.raises(MalformedHeaderError):
        ingest_csv("time,ghi\n2021-03-01T00:00:00Z,1\n")
    with pytest.raises(DuplicateTimestampError):
        ingest_csv(f"{HEADER}\n2021-03-01T00:00:00Z,1\n2021-03-01T00:00:00Z,2\n")
    with pytest.raises(NonMonotoneTimestampError):
        ingest_csv(f"{HEADER}\n2021-03-01T00:01:00Z,1\n2021-03-01T00:00:00Z,2\n")
    with pytest.raises(MisalignedTimestampError):
        ingest_csv(f"{HEADER}\n2021-03-01T00:00:30Z,1\n")
    with pytest.raises(SeriesCsvError):
        ingest_csv(f"{HEADER}\n")  # no data rows
    with pytest.raises(SeriesCsvError):
        ingest_csv(f"{HEADER}\n2021-03-01T00:00:00Z,nan\n")


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
