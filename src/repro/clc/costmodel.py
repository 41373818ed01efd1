"""Mapping kernel work accounting onto device time.

The vector backend counts *weighted abstract operations per active lane*
(see the ``W_*`` constants in :mod:`repro.clc.vecrt`).  A device spec's
``ops_per_second`` says how many of those ops it retires per simulated
second; the kernel's execution time is then launch overhead + ops/rate.

``workload_scale`` supports the benchmark-rescaling methodology described
in :mod:`repro.bench.figures`: benches run reduced-size workloads but charge the cost
of the paper-size ones by scaling the measured op count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clc.runtime import ExecutionStats
from repro.hw.specs import DeviceSpec


@dataclass(frozen=True)
class KernelCost:
    """Simulated execution cost of one kernel dispatch."""

    ops: float
    seconds: float
    launch_overhead: float

    @property
    def compute_seconds(self) -> float:
        return self.seconds - self.launch_overhead


def kernel_cost(
    stats: ExecutionStats,
    device: DeviceSpec,
    workload_scale: float = 1.0,
) -> KernelCost:
    """Simulated seconds for ``stats`` on ``device``."""
    if workload_scale <= 0:
        raise ValueError(f"workload_scale must be positive, got {workload_scale}")
    ops = stats.ops * workload_scale
    seconds = device.launch_overhead + ops / device.ops_per_second
    return KernelCost(ops=ops, seconds=seconds, launch_overhead=device.launch_overhead)
