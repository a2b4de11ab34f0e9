"""Spans recorded around calls into the program, and their self times.

A span is (id, name, start, end, parent).  Most spans nest in time: a
child runs inside its parent.  A *replay* child does not.  To split a
call into layers from outside the program, the benchmark repeats on
their own the library calls that the parent call makes inside, right
after the parent ends, and records them as the parent's children.

Either way a span's self time is its duration minus the length of the
union of its children's intervals (overlapping children count once).
For a replayed parent that is the part of the call the replays do not
account for, e.g. ``enumerate_exact`` minus its census.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Keeps spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        """Time the block; yields the span id (``None`` when disabled).

        Without ``parent`` the innermost open span is the parent.
        """
        if not self.enabled:
            yield None
            return
        sid = self._next_id
        self._next_id += 1
        if parent is None and self._open:
            parent = self._open[-1]
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    spans = list(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children[s.id]) for s in spans}


def totals(spans: Iterable[Span], own: bool = False) -> dict[str, float]:
    """Seconds per span name: inclusive durations, or self times with ``own``."""
    spans = list(spans)
    times = self_times(spans) if own else {s.id: s.end - s.start for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += times[s.id]
    return out
