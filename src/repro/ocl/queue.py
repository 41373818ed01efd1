"""Command queues: in-order execution with virtual-time scheduling.

Data effects happen eagerly (at enqueue, in program order); command
*timing* resolves lazily once all dependencies (explicit wait lists plus
the in-order predecessor) are resolved.  Kernel commands occupy the
device timeline; buffer transfers occupy the host's PCIe bus for GPU-class
devices.  Cross-queue contention for one device emerges from the shared
timeline — the effect behind the paper's Section V-C "without device
manager" measurement.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set

import numpy as np

from repro.clc import execute_kernel as clc_execute
from repro.clc.costmodel import kernel_cost
from repro.ocl.constants import (
    CL_COMMAND_BARRIER,
    CL_COMMAND_COPY_BUFFER,
    CL_COMMAND_MARKER,
    CL_COMMAND_NDRANGE_KERNEL,
    CL_COMMAND_READ_BUFFER,
    CL_COMMAND_WRITE_BUFFER,
    CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE,
    CL_QUEUE_PROFILING_ENABLE,
    ErrorCode,
)
from repro.ocl.context import Context
from repro.ocl.errors import CLError, require
from repro.ocl.event import Event
from repro.ocl.kernel import Kernel
from repro.ocl.memory import Buffer
from repro.ocl.platform import Device

#: On-device buffer-to-buffer copy bandwidth (global memory copy).
DEVICE_COPY_BANDWIDTH = 20e9

_VALID_QUEUE_PROPS = CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE | CL_QUEUE_PROFILING_ENABLE


class CommandQueue:
    """``clCreateCommandQueue`` result."""

    def __init__(self, context: Context, device: Device, properties: int = 0) -> None:
        context.check_device(device)
        if properties & ~_VALID_QUEUE_PROPS:
            raise CLError(ErrorCode.CL_INVALID_QUEUE_PROPERTIES, f"0x{properties:x}")
        self.context = context
        self.device = device
        self.properties = properties
        self.in_order = not (properties & CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE)
        #: Commands still awaiting a dependency, and the latest ``end``
        #: among the resolved ones: all :meth:`finish` needs, no history.
        self._unresolved: Set[Event] = set()
        self._latest_end = float("-inf")
        self._prev: Optional[Event] = None
        #: Benchmark rescaling knob (see :mod:`repro.bench.figures`): multiplies kernel
        #: op counts so reduced-size workloads charge paper-size costs.
        self.workload_scale = 1.0
        self.refcount = 1

    # ------------------------------------------------------------------
    # command machinery
    # ------------------------------------------------------------------
    def _enqueue(
        self,
        command_type: int,
        t: float,
        duration: float,
        wait_for: Optional[Sequence[Event]],
        schedule: Callable[[float, float], tuple],
    ) -> Event:
        """Create an event whose timing resolves when dependencies do.

        ``schedule(ready, duration) -> (start, end)`` places the command on
        the owning resource's timeline.
        """
        if wait_for:
            for ev in wait_for:
                if not isinstance(ev, Event):
                    raise CLError(ErrorCode.CL_INVALID_EVENT_WAIT_LIST, f"not an event: {ev!r}")
        deps: List[Event] = list(wait_for or [])
        if self.in_order and self._prev is not None:
            deps.append(self._prev)
        event = Event(self.context, command_type, queued_at=t)
        if self.in_order:
            self._prev = event

        remaining = [d for d in deps if not d.resolved]

        def try_resolve() -> None:
            nonlocal remaining
            if event.resolved:
                # Registered on several dependencies: a resolution
                # cascade (e.g. a user event unblocking an in-order
                # chain) may kick this command through one dependency's
                # dependents while it still sits on another's list.
                return
            remaining = [d for d in remaining if not d.resolved]
            if remaining:
                return
            ready = t
            for d in deps:
                ready = max(ready, d.end)
            start, end = schedule(ready, duration)
            event.submitted_at = min(start, max(t, ready))
            self._unresolved.discard(event)
            self._latest_end = max(self._latest_end, end)
            event._mark_resolved(start, end)

        if remaining:
            self._unresolved.add(event)
            for d in list(remaining):
                d.on_resolve(try_resolve)
        else:
            try_resolve()
        return event

    def _device_schedule(self, tag: object) -> Callable[[float, float], tuple]:
        timeline = self.device.hw.timeline

        def schedule(ready: float, duration: float) -> tuple:
            iv = timeline.allocate(ready, duration, tag)
            return iv.start, iv.end

        return schedule

    def _bus_schedule(self, direction: str, tag: object) -> Callable[[float, float], tuple]:
        host = self.device.host
        if not host.device_needs_bus(self.device.hw):
            def schedule(ready: float, duration: float) -> tuple:
                return ready, ready + duration

            return schedule
        timeline = host.pcie.timeline

        def schedule(ready: float, duration: float) -> tuple:
            iv = timeline.allocate(ready, duration, tag)
            return iv.start, iv.end

        return schedule

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def enqueue_write_buffer(
        self,
        buffer: Buffer,
        data: np.ndarray,
        t: float,
        offset: int = 0,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        """Host-to-device upload (data effect immediate, timing on the bus)."""
        self._check_buffer(buffer)
        nbytes = buffer.write(offset, data)
        duration = self.device.host.upload_duration(self.device.hw, nbytes)
        buffer.last_write = self._enqueue(
            CL_COMMAND_WRITE_BUFFER, t, duration, wait_for, self._bus_schedule("write", "h2d")
        )
        return buffer.last_write

    def enqueue_read_buffer(
        self,
        buffer: Buffer,
        t: float,
        offset: int = 0,
        nbytes: Optional[int] = None,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> tuple:
        """Device-to-host download; returns ``(data, event)``, ``data`` a
        read-only view of device memory (the caller copies it)."""
        self._check_buffer(buffer)
        if nbytes is None:
            nbytes = buffer.size - offset
        data = buffer.view(offset, nbytes)
        duration = self.device.host.download_duration(self.device.hw, nbytes)
        event = self._enqueue(
            CL_COMMAND_READ_BUFFER, t, duration, wait_for, self._bus_schedule("read", "d2h")
        )
        return data, event

    def enqueue_copy_buffer(
        self,
        src: Buffer,
        dst: Buffer,
        t: float,
        src_offset: int = 0,
        dst_offset: int = 0,
        nbytes: Optional[int] = None,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        self._check_buffer(src)
        self._check_buffer(dst)
        if nbytes is None:
            nbytes = src.size - src_offset
        if src is dst:
            lo1, hi1 = src_offset, src_offset + nbytes
            lo2, hi2 = dst_offset, dst_offset + nbytes
            if lo1 < hi2 and lo2 < hi1:
                raise CLError(ErrorCode.CL_MEM_COPY_OVERLAP)
        dst.write(dst_offset, src.view(src_offset, nbytes))
        duration = nbytes / DEVICE_COPY_BANDWIDTH
        dst.last_write = self._enqueue(
            CL_COMMAND_COPY_BUFFER, t, duration, wait_for, self._device_schedule("copy")
        )
        return dst.last_write

    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size: Sequence[int],
        t: float,
        local_size: Optional[Sequence[int]] = None,
        global_offset: Optional[Sequence[int]] = None,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        """Execute a kernel (eagerly) and charge device time for it."""
        if kernel.context is not self.context:
            raise CLError(ErrorCode.CL_INVALID_KERNEL, "kernel from another context")
        max_wg = self.device.hw.spec.max_work_group_size
        if local_size is not None:
            wg = 1
            for v in local_size:
                wg *= int(v)
            require(
                wg <= max_wg,
                ErrorCode.CL_INVALID_WORK_GROUP_SIZE,
                f"work-group size {wg} exceeds device limit {max_wg}",
            )
        args = kernel.bound_args(global_size, global_offset, local_size)
        from repro.clc.errors import CLCRuntimeError

        try:
            stats = clc_execute(
                kernel.compiled,
                global_size,
                args,
                local_size=local_size,
                global_offset=global_offset,
            )
        except CLCRuntimeError as exc:
            text = str(exc)
            if "local size" in text or "work dimensions" in text or "dimensionality" in text:
                raise CLError(ErrorCode.CL_INVALID_WORK_GROUP_SIZE, text) from exc
            raise CLError(ErrorCode.CL_OUT_OF_RESOURCES, text) from exc
        cost = kernel_cost(stats, self.device.hw.spec, self.workload_scale)
        event = self._enqueue(
            CL_COMMAND_NDRANGE_KERNEL,
            t,
            cost.seconds,
            wait_for,
            self._device_schedule(f"kernel:{kernel.name}"),
        )
        for buffer in kernel.written_buffers():
            buffer.last_write = event
        return event

    def enqueue_marker(self, t: float) -> Event:
        return self._enqueue(CL_COMMAND_MARKER, t, 0.0, None, lambda r, d: (r, r))

    def enqueue_barrier(self, t: float, wait_for: Optional[Sequence[Event]] = None) -> Event:
        return self._enqueue(CL_COMMAND_BARRIER, t, 0.0, wait_for, lambda r, d: (r, r))

    # ------------------------------------------------------------------
    def _check_buffer(self, buffer: Buffer) -> None:
        if not isinstance(buffer, Buffer):
            raise CLError(ErrorCode.CL_INVALID_MEM_OBJECT, f"not a buffer: {buffer!r}")
        if buffer.context is not self.context:
            raise CLError(ErrorCode.CL_INVALID_MEM_OBJECT, "buffer from another context")

    @property
    def blocked(self) -> bool:
        """Whether a command enqueued now waits on an unresolved in-order
        predecessor."""
        return self._prev is not None and not self._prev.resolved

    def finish(self, t: float) -> float:
        """``clFinish``: returns the time all enqueued commands complete."""
        if self._unresolved:
            raise CLError(
                ErrorCode.CL_INVALID_OPERATION,
                "deadlock: clFinish with commands gated on an incomplete user event",
            )
        return max(t, self._latest_end)

    def flush(self, t: float) -> float:
        return t

    def retain(self) -> None:
        self.refcount += 1

    def release(self) -> None:
        self.refcount -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommandQueue dev={self.device.name!r} unresolved={len(self._unresolved)}>"
