"""Generator-based cooperative processes (a miniature SimPy).

Used by the SPMD baselines (mini-MPI) where simulated control flow is
genuinely concurrent.  A process is a generator that yields
:class:`SimEvent` objects; the :class:`Environment` resumes it when the
yielded event triggers.

Supported waitables:

* ``yield env.timeout(dt)`` — resume after ``dt`` simulated seconds.
* ``yield other_process`` — join: resume when the process terminates, with
  its return value.
* ``yield event`` — any :class:`SimEvent`, e.g. a channel operation.
* ``yield env.all_of([...])`` / ``yield env.any_of([...])``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.errors import DeadlockError, ProcessKilled, SimulationError
from repro.sim.eventqueue import EventQueue

PENDING = object()


class SimEvent:
    """An occurrence at a point in simulated time.

    An event starts *pending*; it is *triggered* by :meth:`succeed` or
    :meth:`fail` which schedules its callbacks, and *processed* once the
    callbacks have run.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["SimEvent"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        self.env._schedule(self)
        return self


class Timeout(SimEvent):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay)

    def succeed(self, value: Any = None) -> "SimEvent":  # pragma: no cover
        raise SimulationError("Timeout triggers automatically")


class Process(SimEvent):
    """Wraps a generator; itself an event that triggers on termination."""

    __slots__ = ("generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[SimEvent] = None
        # Bootstrap: resume the generator at the current simulated time.
        boot = SimEvent(env)
        boot.callbacks.append(self._resume)
        boot.succeed()

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessKilled` into the process at the current time."""
        if self.triggered:
            return
        interruptor = SimEvent(self.env)

        def _do_interrupt(_ev: SimEvent) -> None:
            if self.triggered:
                return
            target = self._target
            if target is not None and self in (target.callbacks or []):
                target.callbacks.remove(self._resume)  # type: ignore[union-attr]
            self._step(ProcessKilled(cause), throw=True)

        interruptor.callbacks.append(_do_interrupt)
        interruptor.succeed()

    # ------------------------------------------------------------------
    def _resume(self, event: SimEvent) -> None:
        if event._ok:
            self._step(event._value, throw=False)
        else:
            self._step(event._value, throw=True)

    def _step(self, value: Any, throw: bool) -> None:
        self._target = None
        try:
            if throw:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except ProcessKilled:
            if not self.triggered:
                self.succeed(None)
            return
        if not isinstance(target, SimEvent):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield SimEvent"
            )
        self._target = target
        if target.processed:
            # Already over: resume immediately at the current time.
            relay = SimEvent(self.env)
            relay.callbacks.append(lambda _ev: self._resume(target))
            relay.succeed()
        else:
            target.callbacks.append(self._resume)


class Condition(SimEvent):
    """Base for ``all_of`` / ``any_of`` composite waits."""

    __slots__ = ("events", "_n_done")

    def __init__(self, env: "Environment", events: Iterable[SimEvent], need_all: bool) -> None:
        super().__init__(env)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        need = len(self.events) if need_all else 1

        def _on_done(ev: SimEvent) -> None:
            if self.triggered:
                return
            if not ev._ok:
                self.fail(ev._value)
                return
            self._n_done += 1
            if self._n_done >= need:
                self.succeed([e._value for e in self.events if e.triggered and e._ok])

        for ev in self.events:
            if ev.processed:
                relay = SimEvent(env)
                relay.callbacks.append(lambda _r, ev=ev: _on_done(ev))
                relay.succeed()
            else:
                ev.callbacks.append(_on_done)


class Environment:
    """Discrete-event execution environment for processes."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue = EventQueue()

    @property
    def now(self) -> float:
        return self._now

    # -- factories ------------------------------------------------------
    def event(self) -> SimEvent:
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[SimEvent]) -> Condition:
        return Condition(self, events, need_all=True)

    def any_of(self, events: Iterable[SimEvent]) -> Condition:
        return Condition(self, events, need_all=False)

    # -- scheduling core --------------------------------------------------
    def _schedule(self, event: SimEvent, delay: float = 0.0) -> None:
        self._queue.push(self._now + delay, event)

    def step(self) -> None:
        time, event = self._queue.pop()
        if time < self._now:
            raise SimulationError("event queue went backwards in time")
        self._now = time
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks or []:
            cb(event)
        if event._ok is False and not (callbacks or []):
            # An unhandled failure with nobody waiting: surface it.
            raise event._value

    def run(self, until: Optional[SimEvent] = None, max_steps: int = 50_000_000) -> Any:
        """Run until ``until`` triggers (or the queue drains)."""
        steps = 0
        while self._queue:
            if until is not None and until.processed:
                break
            self.step()
            steps += 1
            if steps > max_steps:
                raise SimulationError("simulation exceeded max_steps — livelock?")
        if until is not None:
            if not until.triggered:
                raise DeadlockError(
                    "event queue drained but the awaited event never triggered"
                )
            if until._ok is False:
                raise until._value
            return until._value
        return None
