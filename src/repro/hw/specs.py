"""Hardware specification catalogue.

All bandwidths are bytes/second, latencies seconds, memory sizes bytes.
``ops_per_second`` is the effective throughput of the abstract scalar
operations counted by the kernel executor (:mod:`repro.clc.runtime`) — a
single calibration constant per device, not a marketing FLOPS figure.

Bandwidth calibration note: the paper's "38.8 GB/s" PCIe
write figure is a pinned-cache artifact; we instead derive self-consistent
numbers from the paper's own ratios (GigE write path ~50x slower than PCIe
write, GigE read path ~4.5x slower than PCIe read, device reads ~15x slower
than writes, iperf effective GigE ~106 MB/s = 85% of 125 MB/s).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Tuple

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


class DeviceType(enum.Flag):
    """OpenCL device type bits (mirrors ``CL_DEVICE_TYPE_*``)."""

    DEFAULT = 1
    CPU = 2
    GPU = 4
    ACCELERATOR = 8
    ALL = 0xFFFFFFFF


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one OpenCL compute device."""

    name: str
    device_type: DeviceType
    vendor: str
    compute_units: int
    clock_mhz: int
    global_mem: int
    local_mem: int = 32 * KB
    max_work_group_size: int = 1024
    max_alloc: int = 0  # 0 -> global_mem // 4 (the OpenCL minimum rule)
    ops_per_second: float = 1e9
    launch_overhead: float = 20e-6
    version: str = "OpenCL 1.1"
    driver_version: str = "repro-ocl 1.0"

    def __post_init__(self) -> None:
        if self.max_alloc == 0:
            object.__setattr__(self, "max_alloc", self.global_mem // 4)

    def scaled(self, factor: float) -> "DeviceSpec":
        """A copy with throughput scaled by ``factor`` (benchmark rescaling
        for reduced-size workloads; see :mod:`repro.bench.figures`)."""
        return replace(self, ops_per_second=self.ops_per_second * factor)


@dataclass(frozen=True)
class PCIeSpec:
    """Host <-> device bus. Write = host-to-device, read = device-to-host."""

    name: str
    write_bandwidth: float
    read_bandwidth: float
    latency: float

    def scaled(self, factor: float) -> "PCIeSpec":
        return replace(
            self,
            write_bandwidth=self.write_bandwidth * factor,
            read_bandwidth=self.read_bandwidth * factor,
        )


@dataclass(frozen=True)
class LinkSpec:
    """A network technology.

    ``bandwidth`` is the theoretical data rate; ``efficiency`` the fraction
    achievable by a well-tuned transport (the paper measured 85% for GigE
    with iperf); ``latency`` the one-way message latency; ``mtu`` the
    payload per frame used for small-transfer granularity.
    """

    name: str
    bandwidth: float
    efficiency: float
    latency: float
    mtu: int = 1500

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * self.efficiency

    def scaled(self, factor: float) -> "LinkSpec":
        return replace(self, bandwidth=self.bandwidth * factor)


@dataclass(frozen=True)
class HostSpec:
    """A node: its CPU device, optional GPUs, bus and RAM."""

    name: str
    cpu: DeviceSpec
    gpus: Tuple[DeviceSpec, ...] = ()
    pcie: "PCIeSpec" = None  # type: ignore[assignment]
    ram: int = 16 * GB
    # Per-request daemon/CPU processing overhead (request decode + dispatch).
    request_overhead: float = 12e-6
    # Per-sub-command dispatch cost inside a CommandBatch: the envelope is
    # decoded once (charged as one request_overhead), each coalesced
    # command then only pays this smaller decode+dispatch slice.
    batch_command_overhead: float = 2e-6

    def __post_init__(self) -> None:
        if self.pcie is None:
            object.__setattr__(self, "pcie", PCIE_GEN2_X16)


# ----------------------------------------------------------------------
# Networks (Section V testbeds)
# ----------------------------------------------------------------------
#: Gigabit Ethernet: 125 MB/s theoretical; iperf measured ~106 MB/s (85%).
GIGABIT_ETHERNET = LinkSpec("Gigabit Ethernet", bandwidth=125e6, efficiency=0.85, latency=100e-6, mtu=1500)

#: QDR Infiniband as in the Mandelbrot cluster: ~3.2 GB/s effective.
INFINIBAND_QDR = LinkSpec("Infiniband QDR", bandwidth=4e9, efficiency=0.80, latency=2e-6, mtu=4096)

#: PCIe gen2 x16 with the strong read/write asymmetry the paper measured
#: (device reads ~15x slower than writes).
PCIE_GEN2_X16 = PCIeSpec("PCIe 2.0 x16", write_bandwidth=5.3e9, read_bandwidth=355e6, latency=20e-6)


# ----------------------------------------------------------------------
# Devices (Section V testbeds)
# ----------------------------------------------------------------------
#: A dual-socket Intel Westmere X5650 node (2 x 6 cores, 2.67 GHz) exposed
#: as a single OpenCL CPU device by the AMD APP SDK.
WESTMERE_NODE_CPU = DeviceSpec(
    name="Intel Xeon X5650 (2 sockets, AMD APP)",
    device_type=DeviceType.CPU,
    vendor="Intel",
    compute_units=12,
    clock_mhz=2670,
    global_mem=24 * GB,
    local_mem=32 * KB,
    max_work_group_size=1024,
    ops_per_second=42e9,
    launch_overhead=80e-6,
)

#: Quad-core Intel Xeon E5520 (the GPU server's host CPU).
XEON_E5520 = DeviceSpec(
    name="Intel Xeon E5520",
    device_type=DeviceType.CPU,
    vendor="Intel",
    compute_units=4,
    clock_mhz=2270,
    global_mem=12 * GB,
    ops_per_second=12e9,
    launch_overhead=60e-6,
)

#: NVIDIA NVS 3100M: the desktop PC's low-end GPU.
NVS_3100M = DeviceSpec(
    name="NVIDIA NVS 3100M",
    device_type=DeviceType.GPU,
    vendor="NVIDIA",
    compute_units=2,
    clock_mhz=1470,
    global_mem=512 * MB,
    local_mem=16 * KB,
    max_work_group_size=512,
    ops_per_second=25e9,
    launch_overhead=15e-6,
)

#: One GPU of an NVIDIA Tesla S1070 (4 GB each, 4 per chassis).
TESLA_C1060 = DeviceSpec(
    name="NVIDIA Tesla T10 (S1070)",
    device_type=DeviceType.GPU,
    vendor="NVIDIA",
    compute_units=30,
    clock_mhz=1300,
    global_mem=4 * GB,
    local_mem=16 * KB,
    max_work_group_size=512,
    ops_per_second=49e9,
    launch_overhead=15e-6,
)


# ----------------------------------------------------------------------
# Hosts (Section V testbeds)
# ----------------------------------------------------------------------
#: One compute node of the Mandelbrot cluster.
WESTMERE_NODE = HostSpec(name="westmere-node", cpu=WESTMERE_NODE_CPU, ram=24 * GB)

#: The desktop PC of the OSEM experiment.
DESKTOP_PC = HostSpec(name="desktop-pc", cpu=XEON_E5520, gpus=(NVS_3100M,), ram=8 * GB)

#: The GPU server: quad-core Xeon + Tesla S1070 (4 GPUs).
GPU_SERVER = HostSpec(
    name="gpu-server",
    cpu=XEON_E5520,
    gpus=(TESLA_C1060,) * 4,
    ram=24 * GB,
)
