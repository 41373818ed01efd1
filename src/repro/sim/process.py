"""The rank scheduler of the SPMD baseline (mini-MPI).

A rank is a generator.  It yields either a delay in seconds (resume
``delay`` later) or a mailbox key, a tuple (resume with the next item
:meth:`Scheduler.put` under that key).  The scheduler resumes ranks in
virtual-time order; equal times resume in the order they were scheduled,
which makes every run bit-reproducible.

Time order is what keeps ranks that share a resource honest: a rank's
step first-fits the NIC timelines at the scheduler's ``now``, so two
ranks on one host (layout ``A B A B``) are served in the order their
requests happen in virtual time, not in the order the host happens to
run them.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Deque, Dict, Generator, List, Tuple

from repro.sim.errors import DeadlockError, SimulationError


class Scheduler:
    """A heap of ``(time, scheduling order, rank, value)`` resumptions."""

    def __init__(self) -> None:
        self.now = 0.0
        self.results: List[Any] = []  # each rank's return value
        self._ranks: List[Generator] = []
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._order = count()
        self._mail: Dict[tuple, Deque[Any]] = {}
        self._waiting: Dict[tuple, int] = {}

    def spawn(self, program: Generator) -> None:
        """Add a rank that starts at the current time; ranks are numbered
        in spawn order."""
        self._schedule(self.now, len(self._ranks), None)
        self._ranks.append(program)
        self.results.append(None)

    def put(self, key: tuple, item: Any) -> None:
        """Deliver ``item`` under ``key``: wake the rank waiting on it at
        the current time, or queue the item for the next wait."""
        rank = self._waiting.pop(key, None)
        if rank is None:
            self._mail.setdefault(key, deque()).append(item)
        else:
            self._schedule(self.now, rank, item)

    def run(self) -> float:
        """Run every rank to completion; returns the final time."""
        heap = self._heap
        while heap:
            self.now, _, rank, value = heapq.heappop(heap)
            try:
                wait = self._ranks[rank].send(value)
            except StopIteration as stop:
                self.results[rank] = stop.value
                continue
            if not isinstance(wait, tuple):
                if wait < 0:
                    raise SimulationError(f"rank {rank} yielded negative delay {wait}")
                self._schedule(self.now + wait, rank, None)
            elif self._mail.get(wait):
                self._schedule(self.now, rank, self._mail[wait].popleft())
            elif wait in self._waiting:
                raise SimulationError(f"ranks {self._waiting[wait]} and {rank} both wait on {wait}")
            else:
                self._waiting[wait] = rank
        if self._waiting:
            stuck = sorted((r, k) for k, r in self._waiting.items())
            raise DeadlockError(f"deadlock: (rank, key) still waiting: {stuck}")
        return self.now

    def _schedule(self, time: float, rank: int, value: Any) -> None:
        heapq.heappush(self._heap, (time, next(self._order), rank, value))
