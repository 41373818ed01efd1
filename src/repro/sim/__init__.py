"""Deterministic virtual-time simulation kernel.

This package provides the one timing model the reproduction is built on,
**client-driven timestamping** (:mod:`repro.sim.clock`,
:mod:`repro.sim.timeline`): every logical entity (an application thread, a
daemon, a device, a NIC) owns a clock and/or an interval timeline.  API
calls advance clocks; shared resources serialise work through first-fit
interval allocation, which makes contention results independent of the
*real* execution order of the simulated clients.

Besides it, :mod:`repro.sim.process` holds the rank scheduler of the SPMD
mini-MPI baseline: rank generators resumed in virtual-time order, so that
their clock and timeline calls happen in time order too.

Time is measured in seconds, as ``float``.
"""

from repro.sim.clock import VirtualClock
from repro.sim.errors import CommunicationError, SimulationError, WatchdogTimeout
from repro.sim.timeline import Interval, Timeline

#: Names served lazily from :mod:`repro.sim.faults` (PEP 562): the fault
#: module raises :mod:`repro.net.link` error classes, and ``repro.net``
#: imports the hardware layer, which imports this package — eagerly
#: importing faults here would close that cycle at import time.
_FAULT_EXPORTS = ("FaultAction", "FaultInjector", "FaultPlan", "install_fault_injector")


def __getattr__(name: str):
    """Lazy re-export of the fault-injection API (see ``_FAULT_EXPORTS``)."""
    if name in _FAULT_EXPORTS:
        from repro.sim import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CommunicationError",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "Interval",
    "SimulationError",
    "Timeline",
    "VirtualClock",
    "WatchdogTimeout",
    "install_fault_injector",
]
