"""Blocking FIFO channels for simulated processes."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.errors import CommunicationError, SimulationError
from repro.sim.process import Environment, SimEvent


class ChannelClosed(SimulationError, CommunicationError):
    """Raised on ``get`` from a closed, empty channel or ``put`` to a closed
    channel.

    Inherits :class:`CommunicationError` too, so resilience code that
    handles "the message did not make it" catches channel closure alongside
    the :mod:`repro.net.link` failures with a single except clause.
    """


class Channel:
    """An unbounded (or bounded) FIFO connecting simulated processes.

    ``put`` and ``get`` return :class:`SimEvent` objects to be yielded from
    process generators.  Items put with a *transfer delay* become visible to
    getters only after that delay — this is how network latency is charged in
    the process model.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None, name: str = "") -> None:
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()
        self._putters: Deque[tuple[SimEvent, Any]] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    def close(self) -> None:
        self._closed = True
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.fail(ChannelClosed(f"channel {self.name!r} closed"))

    # ------------------------------------------------------------------
    def put(self, item: Any, delay: float = 0.0) -> SimEvent:
        """Deposit ``item``; the returned event triggers when accepted."""
        if self._closed:
            raise ChannelClosed(f"put on closed channel {self.name!r}")
        done = SimEvent(self.env)
        if delay > 0.0:
            arrival = self.env.timeout(delay)
            arrival.callbacks.append(lambda _ev: self._deliver(item))
            done.succeed()
        else:
            self._deliver(item)
            if self.capacity is not None and len(self._items) > self.capacity:
                # Block the putter until space frees up.
                self._putters.append((done, None))
            else:
                done.succeed()
        return done

    def _deliver(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> SimEvent:
        """Returns an event that triggers with the next item."""
        ev = SimEvent(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                putter, _ = self._putters.popleft()
                if not putter.triggered:
                    putter.succeed()
        elif self._closed:
            ev.fail(ChannelClosed(f"get on closed empty channel {self.name!r}"))
        else:
            self._getters.append(ev)
        return ev
