"""PCIe host<->device bus timing model.

The paper's Section V-D measured a strong asymmetry between writing to a
device and reading back (reads up to 15x slower); :class:`PCIeBus` models
the two directions with separate bandwidths, sharing one bus timeline
(transfers to different devices on the same host serialise, as they do
through a real root complex).
"""

from __future__ import annotations

from repro.hw.specs import PCIeSpec
from repro.sim.timeline import Interval, Timeline


class PCIeBus:
    """Shared host bus with direction-dependent bandwidth."""

    def __init__(self, spec: PCIeSpec, name: str = "") -> None:
        self.spec = spec
        self.timeline = Timeline(name=name or spec.name)

    def write_duration(self, nbytes: int) -> float:
        """Host-to-device transfer time."""
        return self.spec.latency + nbytes / self.spec.write_bandwidth

    def read_duration(self, nbytes: int) -> float:
        """Device-to-host transfer time."""
        return self.spec.latency + nbytes / self.spec.read_bandwidth

    def write(self, ready: float, nbytes: int, tag: object = None) -> Interval:
        return self.timeline.allocate(ready, self.write_duration(nbytes), tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PCIeBus {self.spec.name!r}>"
