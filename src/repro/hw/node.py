"""Host nodes: devices + PCIe bus (+ a NIC attached by the network layer)."""

from __future__ import annotations

from typing import List, Optional

from repro.hw.device import ComputeDevice
from repro.hw.pcie import PCIeBus
from repro.hw.specs import DeviceType, HostSpec


class Host:
    """A simulated machine.

    Exposes the node's OpenCL-visible devices (CPU device + GPUs), a PCIe
    bus shared by all its devices, and — once the network layer attaches
    one — a NIC.  The CPU device accesses host memory directly (no PCIe
    cost); GPU transfers are charged to the bus.
    """

    def __init__(self, spec: HostSpec, name: Optional[str] = None) -> None:
        self.spec = spec
        self.name = name or spec.name
        self.pcie = PCIeBus(spec.pcie, name=f"{self.name}.pcie")
        self.devices: List[ComputeDevice] = []
        cpu_dev = ComputeDevice(spec.cpu, index=0, host=self)
        self.devices.append(cpu_dev)
        for i, gspec in enumerate(spec.gpus):
            self.devices.append(ComputeDevice(gspec, index=i + 1, host=self))
        self.nic = None  # attached by repro.net.network.Network.add_host

    @property
    def cpu_device(self) -> ComputeDevice:
        return self.devices[0]

    @property
    def gpu_devices(self) -> List[ComputeDevice]:
        return [d for d in self.devices if d.spec.device_type == DeviceType.GPU]

    def device_needs_bus(self, device: ComputeDevice) -> bool:
        """True when host<->device data movement crosses PCIe (GPUs and
        accelerators; the CPU device shares host memory)."""
        return device.spec.device_type != DeviceType.CPU

    def upload_duration(self, device: ComputeDevice, nbytes: int) -> float:
        if self.device_needs_bus(device):
            return self.pcie.write_duration(nbytes)
        # CPU device: a memcpy within host RAM (charge a high-bandwidth copy).
        return nbytes / 8e9

    def download_duration(self, device: ComputeDevice, nbytes: int) -> float:
        if self.device_needs_bus(device):
            return self.pcie.read_duration(nbytes)
        return nbytes / 8e9

    def upload(self, device: ComputeDevice, ready: float, nbytes: int, tag: object = None):
        """Charge a host-to-device transfer; returns the busy interval."""
        if self.device_needs_bus(device):
            return self.pcie.write(ready, nbytes, tag)
        from repro.sim.timeline import Interval

        return Interval(ready, ready + self.upload_duration(device, nbytes), tag)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name!r} devices={len(self.devices)}>"
