"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``instrument`` replaces a
function at the module attribute its callers look up, and ``restore`` puts
the original back. Nothing inside the program is changed on disk.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Recorder.spans
    run: str


class Recorder:
    """Single-threaded span stack plus named counters, kept in memory."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            s = self.spans[index]
            self.spans[index] = Span(s.name, s.start, time.perf_counter(), s.parent, s.run)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.run] for s in self.spans],
            "counts": dict(self.counts),
        }


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return [(s.end - s.start) - _covered(kids) for s, kids in zip(spans, children)]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def instrument(recorder: Recorder, sites) -> list[tuple[object, str, object]]:
    """Wrap each ``(owner, attr, span_name, observe)`` site in a span.

    ``observe(recorder, span_name, args, kwargs, result)``, when given, adds
    counts after the span closes, inside a ``trace.observe`` span of its own,
    so its cost is charged neither to the wrapped call nor to the caller. The
    call count and, for calls that raise, a ``.failed`` count are kept for
    every site. Returns the undo list for :func:`restore`.
    """
    undo = []
    for owner, attr, name, observe in sites:
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrap(recorder, original, name, observe))
    return undo


def _wrap(recorder: Recorder, original, name: str, observe):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.count(f"{name}.calls")
        try:
            with recorder.span(name):
                result = original(*args, **kwargs)
        except Exception:
            recorder.count(f"{name}.failed")
            raise
        if observe is not None:
            with recorder.span("trace.observe"):
                observe(recorder, name, args, kwargs, result)
        return result

    return wrapper


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
