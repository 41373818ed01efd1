"""The rank scheduler: time order, scheduling order on ties, mailboxes."""

import pytest

from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.process import Scheduler


def test_timeout_advances_clock():
    s = Scheduler()
    log = []

    def rank():
        yield 1.5
        log.append(s.now)
        yield 0.5
        log.append(s.now)

    s.spawn(rank())
    assert s.run() == 2.0
    assert log == [1.5, 2.0]


def test_process_return_value():
    s = Scheduler()

    def rank(value):
        yield 1.0
        return value

    s.spawn(rank(42))
    s.spawn(rank(7))
    s.run()
    assert s.results == [42, 7]


def test_two_processes_interleave():
    s = Scheduler()
    log = []

    def rank(name, dt, n):
        for _ in range(n):
            yield dt
            log.append((s.now, name))

    s.spawn(rank("a", 1.0, 3))
    s.spawn(rank("b", 1.5, 2))
    s.run()
    # At t=3.0 both resume; b scheduled its 3.0 wake-up at t=1.5 (before a
    # did at t=2.0), so b runs first.
    assert log == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"), (3.0, "a")]


def test_deterministic_ordering_same_time():
    """Equal-time wake-ups run in scheduling order, not rank order."""
    s = Scheduler()
    log = []

    def rank(name, first):
        yield first
        yield 2.0 - first  # every rank wakes at t=2.0
        log.append(name)

    # Scheduling order of the t=2.0 wake-ups is the order of the first
    # wake-ups: e, c, a, d, b (binary fractions, so every sum is exactly 2).
    for name, first in zip("abcde", (0.25, 0.5, 0.125, 0.375, 0.0625)):
        s.spawn(rank(name, first))
    s.run()
    assert log == list("ecadb")


def test_put_wakes_the_waiter_before_the_putter_resumes():
    s = Scheduler()
    log = []

    def receiver():
        item = yield ("mbox",)
        log.append(("got", item, s.now))

    def sender():
        yield 1.0
        s.put(("mbox",), "x")
        yield 0.0
        log.append(("sent", s.now))

    s.spawn(receiver())
    s.spawn(sender())
    s.run()
    assert log == [("got", "x", 1.0), ("sent", 1.0)]


def test_channel_put_get():
    """A mailbox is a FIFO channel: items put before anyone waits queue in
    order, and a wait on a non-empty mailbox still resumes through the
    heap, after ranks already scheduled at the same time."""
    s = Scheduler()
    log = []

    def producer():
        for i in range(3):
            s.put(("q",), i)
        yield 0.0

    def consumer():
        yield 1.0
        for _ in range(3):
            item = yield ("q",)
            log.append((s.now, item))

    def bystander():
        yield 1.0
        log.append((s.now, "bystander"))

    s.spawn(producer())
    s.spawn(consumer())
    s.spawn(bystander())
    s.run()
    assert log == [(1.0, "bystander"), (1.0, 0), (1.0, 1), (1.0, 2)]


def test_deadlock_detection():
    s = Scheduler()

    def starved(key):
        yield key

    s.spawn(starved((0, 1)))
    s.spawn(starved((2, 1)))
    with pytest.raises(DeadlockError, match=r"\(0, \(0, 1\)\), \(1, \(2, 1\)\)"):
        s.run()


def test_negative_timeout_rejected():
    s = Scheduler()

    def rank():
        yield -1.0

    s.spawn(rank())
    with pytest.raises(SimulationError, match="negative delay"):
        s.run()


def test_two_waiters_on_one_key_rejected():
    s = Scheduler()

    def rank():
        yield ("shared",)

    s.spawn(rank())
    s.spawn(rank())
    with pytest.raises(SimulationError, match="both wait"):
        s.run()


def test_process_failure_propagates_out_of_run():
    s = Scheduler()

    def rank():
        yield 1.0
        raise ValueError("boom")

    s.spawn(rank())
    with pytest.raises(ValueError, match="boom"):
        s.run()
