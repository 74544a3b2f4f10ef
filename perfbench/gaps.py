"""Seeded gap injection on the text of a series CSV.

Works on the CSV text only, so the program under test receives nothing but
the generated input. The first and last data rows are always kept, which
fixes the span of the minute grid the program rebuilds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OUTAGE_ROWS = 360  # one 6-hour outage
BURST_MIN, BURST_MAX = 3, 30
TARGET_FRACTION = 0.03


@dataclass(frozen=True)
class GapRecord:
    rows_in: int
    rows_dropped: int
    runs: int

    @property
    def fraction(self) -> float:
        return self.rows_dropped / self.rows_in


def _place(drop: bytearray, rng: random.Random, length: int) -> bool:
    """Mark a run of ``length`` rows that touches no first/last row or other run."""
    n = len(drop)
    start = rng.randint(1, n - 1 - length)
    if any(drop[max(start - 1, 0) : start + length + 1]):
        return False
    drop[start : start + length] = b"\x01" * length
    return True


def inject_gaps(text: str, seed: int) -> tuple[str, GapRecord]:
    """Drop about 3% of the data rows: one outage plus 3-30 minute bursts."""
    header, _, body = text.partition("\n")
    rows = body.split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    n = len(rows)
    target = round(TARGET_FRACTION * n)
    if target < OUTAGE_ROWS + BURST_MAX:
        raise ValueError(f"{n} rows is too short for the gap pattern")
    rng = random.Random(f"perfbench-gaps-{seed}")
    drop = bytearray(n)
    while not _place(drop, rng, OUTAGE_ROWS):
        pass
    dropped, runs = OUTAGE_ROWS, 1
    while dropped < target:
        length = max(min(rng.randint(BURST_MIN, BURST_MAX), target - dropped), BURST_MIN)
        if _place(drop, rng, length):
            dropped += length
            runs += 1
    kept = [row for row, gone in zip(rows, drop) if not gone]
    return "\n".join([header, *kept]) + "\n", GapRecord(n, dropped, runs)
