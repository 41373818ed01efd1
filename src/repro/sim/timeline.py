"""Interval timelines: serially-reusable simulated resources.

A :class:`Timeline` models a resource that can do one thing at a time — a
compute device, a NIC, a PCIe bus.  Work is placed onto the timeline with
:meth:`Timeline.allocate`, which finds the *first* gap of the requested
duration at or after the requester's ready time (first-fit).

First-fit gap allocation makes contention modelling independent of the real
execution order of simulated clients: if client B is simulated *after*
client A but issues work at an earlier virtual time, B's work lands in the
gap before A's reservations, exactly as a FIFO hardware queue ordered by
arrival time would behave.

Busy-run index
--------------

Back-to-back work makes long chains of reservations that touch exactly
(``prev.end == next.start``): a daemon CPU serving 64 tenants is one such
chain for the whole run.  Nothing of positive length fits inside a chain,
so the timeline keeps the *busy runs* — the maximal chains, as a second
bisectable list maintained on every insert — and
:meth:`Timeline.next_free` searches runs instead of reservations.  Only a
zero-duration request, which fits at any reservation *boundary* (also one
inside a run), searches the reservations themselves.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.sim.errors import TimelineError


class Interval(NamedTuple):
    """A closed-open busy interval ``[start, end)`` on a timeline."""

    start: float
    end: float
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        return self.start < other.end and other.start < self.end


def _first_fit(spans: List[tuple], ready: float, duration: float) -> float:
    """Earliest ``start >= ready`` with ``duration`` free before the next
    of the busy ``(start, end, ...)`` spans, which are sorted by start."""
    start = ready
    idx = bisect.bisect_left(spans, (ready,))  # a 1-tuple sorts before its start's span
    # The previous span may still cover `ready`.
    if idx > 0 and spans[idx - 1][1] > start:
        start = spans[idx - 1][1]
    for i in range(idx, len(spans)):
        span = spans[i]
        if span[0] - start >= duration:
            return start
        if span[1] > start:
            start = span[1]
    return start


class Timeline:
    """A serially-reusable resource with first-fit interval allocation.

    Parameters
    ----------
    name:
        Label for diagnostics.
    epsilon:
        Durations below ``epsilon`` are treated as instantaneous and do not
        reserve capacity.
    """

    __slots__ = ("name", "epsilon", "_records", "_runs")

    def __init__(self, name: str = "", epsilon: float = 1e-15) -> None:
        self.name = name
        self.epsilon = epsilon
        # Two lists sorted by start: the reservations as plain
        # ``(start, end, tag)`` tuples and the busy runs (module
        # docstring) as ``(start, end)``.  Plain tuples on purpose: a
        # long run keeps hundreds of thousands, and the garbage
        # collector stops tracking a tuple of floats and a string at
        # its first pass, which it never does for an object.
        self._records: List[Tuple[float, float, object]] = []
        self._runs: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval._make, self._records)

    @property
    def busy_until(self) -> float:
        """The end of the last reservation (0.0 when empty)."""
        if not self._records:
            return 0.0
        return self._records[-1][1]

    def busy_time(self, window_start: float = 0.0, window_end: Optional[float] = None) -> float:
        """Total reserved time overlapping ``[window_start, window_end)``."""
        if window_end is None:
            window_end = self.busy_until
        total = 0.0
        for start, end, _ in self._records:
            lo = max(start, window_start)
            hi = min(end, window_end)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, window_start: float, window_end: float) -> float:
        """Fraction of ``[window_start, window_end)`` that is reserved."""
        span = window_end - window_start
        if span <= 0.0:
            return 0.0
        return self.busy_time(window_start, window_end) / span

    def busy_runs(self) -> List[Tuple[float, float]]:
        """The busy runs (module docstring) as ``(start, end)`` pairs
        in time order."""
        return list(self._runs)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def next_free(self, ready: float, duration: float) -> float:
        """Earliest start time ``>= ready`` with a free gap of ``duration``."""
        if duration < 0.0:
            raise TimelineError(f"timeline {self.name!r}: negative duration {duration}")
        # Zero duration fits at any reservation boundary, also one
        # inside a run; anything longer only between runs.
        return _first_fit(self._records if duration == 0.0 else self._runs, ready, duration)

    def _insert(self, pos: int, start: float, end: float, tag: object) -> None:
        """Record ``[start, end)`` at list position ``pos``; keep the
        runs in step."""
        records, runs = self._records, self._runs
        # The left neighbour ends run j-1; the right one starts run j.
        j = bisect.bisect_left(runs, (start,))
        if 0 < pos < len(records) and records[pos - 1][1] == records[pos][0]:
            # ...unless the two already touch (then one of the three is
            # zero-width): split their run, the joins below remake it.
            runs[j - 1 : j] = [
                (runs[j - 1][0], records[pos - 1][1]),
                (records[pos][0], runs[j - 1][1]),
            ]
        joins_left = pos > 0 and records[pos - 1][1] == start
        joins_right = pos < len(records) and records[pos][0] == end
        if joins_left and joins_right:
            runs[j - 1 : j + 1] = [(runs[j - 1][0], runs[j][1])]
        elif joins_left:
            runs[j - 1] = (runs[j - 1][0], end)
        elif joins_right:
            runs[j] = (start, runs[j][1])
        else:
            runs.insert(j, (start, end))
        records.insert(pos, (start, end, tag))

    def allocate(self, ready: float, duration: float, tag: object = None) -> Interval:
        """Reserve the first free gap of ``duration`` at or after ``ready``.

        Returns the reserved :class:`Interval`.  Instantaneous work
        (``duration < epsilon``) is not recorded but still returns an
        interval positioned after any reservation covering ``ready``.
        """
        records, runs = self._records, self._runs
        if runs and ready > runs[-1][0] and duration >= self.epsilon > 0.0:
            # Behind the last run's start, where virtual time mostly
            # moves: nothing to search, and (unless a zero-width
            # reservation sits exactly there) nothing to insert before.
            run_start, run_end = runs[-1]
            start = run_end if run_end > ready else ready
            if start > records[-1][0]:
                end = start + duration
                if start == run_end:
                    runs[-1] = (run_start, end)
                else:
                    runs.append((start, end))
                records.append((start, end, tag))
                return Interval(start, end, tag)
        start = self.next_free(ready, duration)
        end = start + duration
        if duration >= self.epsilon:
            self._insert(bisect.bisect_left(records, (start,)), start, end, tag)
        return Interval(start, end, tag)

    def reserve(self, start: float, end: float, tag: object = None) -> Interval:
        """Reserve an exact interval; raises :class:`TimelineError` on
        conflict with an existing reservation."""
        if end < start:
            raise TimelineError(f"timeline {self.name!r}: end {end} < start {start}")
        iv = Interval(start, end, tag)
        pos = bisect.bisect_left(self._records, (start,))
        for neighbour in map(Interval._make, self._records[max(pos - 1, 0) : pos + 1]):
            if neighbour.overlaps(iv):
                raise TimelineError(f"timeline {self.name!r}: {iv} overlaps {neighbour}")
        if iv.duration >= self.epsilon:
            self._insert(pos, start, end, tag)
        return iv

    def clear(self) -> None:
        self._records.clear()
        self._runs.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeline {self.name!r} n={len(self)} busy_until={self.busy_until:.9f}>"
