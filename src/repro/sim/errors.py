"""Exception types raised by the simulation kernel."""


class SimulationError(RuntimeError):
    """Base class for all virtual-time simulation errors."""


class CommunicationError(RuntimeError):
    """Common base for every message-plumbing failure in the repo.

    The network errors (:class:`repro.net.link.NetworkError` and its
    subclasses) derive from this type, so resilience code can catch
    "anything that means the message did not make it" with one handler.  It
    lives here rather than in :mod:`repro.net` because the sim layer must not
    import the net layer.
    """


class WatchdogTimeout(SimulationError):
    """A watchdog deadline elapsed before the awaited condition held.

    Raised by :class:`repro.sim.faults.FaultInjector` when a run exceeds
    its transfer budget — the simulation analogue of a test harness hang.
    """


class ClockError(SimulationError):
    """An operation would move a :class:`~repro.sim.clock.VirtualClock`
    backwards in time."""


class TimelineError(SimulationError):
    """An interval reservation conflicts with existing reservations."""


class DeadlockError(SimulationError):
    """The rank scheduler ran out of work while ranks are still waiting —
    a genuine deadlock in the simulated program."""
