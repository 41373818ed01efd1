"""The flat C-style OpenCL API surface.

Applications program against this method set (``clGetPlatformIDs``,
``clCreateContext``, ...).  :class:`NativeAPI` implements it on the local
host's devices; ``repro.core.client.api.DOpenCLAPI`` implements the *same
surface* over the network — which is exactly how dOpenCL runs unmodified
applications (the client driver is "a drop-in replacement for an existing
OpenCL implementation", Section III-B).

The API instance owns the application's virtual clock: blocking calls
advance it to command completion; every call charges a small host-side
overhead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.clc import LocalMemory
from repro.hw.node import Host
from repro.ocl.constants import CL_COMPLETE, CL_DEVICE_TYPE_ALL, ErrorCode
from repro.ocl.context import Context
from repro.ocl.errors import CLError
from repro.ocl.event import Event, UserEvent
from repro.ocl.kernel import Kernel
from repro.ocl.memory import Buffer
from repro.ocl.platform import Device, Platform
from repro.ocl.program import Program
from repro.ocl.queue import CommandQueue
from repro.sim.clock import VirtualClock

#: Host-side cost of one API call (argument marshalling, dispatch).
API_CALL_OVERHEAD = 2e-6


class NativeAPI:
    """The vendor OpenCL implementation on one host."""

    def __init__(
        self,
        host: Host,
        clock: Optional[VirtualClock] = None,
        platform_name: str = "repro-ocl",
    ) -> None:
        self.host = host
        self.clock = clock if clock is not None else VirtualClock(name=f"{host.name}.app")
        self.platform = Platform(host, name=platform_name)
        #: Benchmark rescaling knob applied to queues created through here.
        self.workload_scale = 1.0

    # ------------------------------------------------------------------
    def _tick(self) -> float:
        return self.clock.advance_by(API_CALL_OVERHEAD)

    # -- platform / device ------------------------------------------------
    def clGetPlatformIDs(self) -> List[Platform]:
        self._tick()
        return [self.platform]

    def clGetPlatformInfo(self, platform: Platform, key: str) -> object:
        self._tick()
        return platform.get_info(key)

    def clGetDeviceIDs(self, platform: Platform, device_type: int = CL_DEVICE_TYPE_ALL) -> List[Device]:
        self._tick()
        return platform.get_devices(device_type)

    def clGetDeviceInfo(self, device: Device, key: str) -> object:
        self._tick()
        return device.get_info(key)

    # -- context -----------------------------------------------------------
    def clCreateContext(self, devices: Sequence[Device]) -> Context:
        self._tick()
        return Context(devices)

    def clRetainContext(self, context: Context) -> None:
        context.retain()

    def clReleaseContext(self, context: Context) -> None:
        context.release()

    # -- command queue ------------------------------------------------------
    def clCreateCommandQueue(self, context: Context, device: Device, properties: int = 0) -> CommandQueue:
        self._tick()
        queue = CommandQueue(context, device, properties)
        queue.workload_scale = self.workload_scale
        return queue

    def clRetainCommandQueue(self, queue: CommandQueue) -> None:
        queue.retain()

    def clReleaseCommandQueue(self, queue: CommandQueue) -> None:
        queue.release()

    def clFinish(self, queue: CommandQueue) -> None:
        t = self._tick()
        self.clock.advance_to(queue.finish(t))

    def clFlush(self, queue: CommandQueue) -> None:
        queue.flush(self._tick())

    # -- memory ---------------------------------------------------------------
    def clCreateBuffer(
        self,
        context: Context,
        flags: int,
        size: int,
        host_data: Optional[np.ndarray] = None,
    ) -> Buffer:
        self._tick()
        return Buffer(context, flags, size, host_data)

    def clRetainMemObject(self, buffer: Buffer) -> None:
        buffer.retain()

    def clReleaseMemObject(self, buffer: Buffer) -> None:
        buffer.release()

    def clEnqueueWriteBuffer(
        self,
        queue: CommandQueue,
        buffer: Buffer,
        blocking: bool,
        offset: int,
        data: np.ndarray,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        t = self._tick()
        event = queue.enqueue_write_buffer(buffer, data, t, offset, wait_for)
        if blocking:
            self.clock.advance_to(event.wait(t))
        return event

    def clEnqueueReadBuffer(
        self,
        queue: CommandQueue,
        buffer: Buffer,
        blocking: bool = True,
        offset: int = 0,
        nbytes: Optional[int] = None,
        wait_for: Optional[Sequence[Event]] = None,
    ):
        """Returns ``(data, event)``; ``data`` is a byte array copy."""
        t = self._tick()
        data, event = queue.enqueue_read_buffer(buffer, t, offset, nbytes, wait_for)
        if blocking:
            self.clock.advance_to(event.wait(t))
        return data.copy(), event

    def clEnqueueCopyBuffer(
        self,
        queue: CommandQueue,
        src: Buffer,
        dst: Buffer,
        src_offset: int = 0,
        dst_offset: int = 0,
        nbytes: Optional[int] = None,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        t = self._tick()
        return queue.enqueue_copy_buffer(src, dst, t, src_offset, dst_offset, nbytes, wait_for)

    # -- unimplemented object kinds (paper Section III-B parity) -----------------
    def clCreateImage2D(self, *args, **kwargs):
        raise CLError(
            ErrorCode.CL_INVALID_OPERATION,
            "images are not implemented (paper Section III-B: 'API functions ... "
            "for images, samplers, or profiling have not been implemented yet')",
        )

    clCreateImage3D = clCreateImage2D

    def clCreateSampler(self, *args, **kwargs):
        raise CLError(ErrorCode.CL_INVALID_OPERATION, "samplers are not implemented")

    def clEnqueueMapBuffer(self, *args, **kwargs):
        raise CLError(
            ErrorCode.CL_INVALID_OPERATION,
            "buffer mapping is not implemented (use read/write transfers)",
        )

    # -- program / kernel ----------------------------------------------------
    def clCreateProgramWithSource(self, context: Context, source: str) -> Program:
        self._tick()
        return Program(context, source)

    def clBuildProgram(self, program: Program, options: str = "") -> None:
        t = self._tick()
        self.clock.advance_to(program.build(options, t))

    def clGetProgramBuildInfo(self, program: Program, device: Device, key: str) -> object:
        self._tick()
        return program.build_info(key)

    def clRetainProgram(self, program: Program) -> None:
        program.retain()

    def clReleaseProgram(self, program: Program) -> None:
        program.release()

    def clCreateKernel(self, program: Program, name: str) -> Kernel:
        self._tick()
        return Kernel(program, name)

    def clCreateKernelsInProgram(self, program: Program) -> List[Kernel]:
        self._tick()
        return [Kernel(program, name) for name in program.kernel_names]

    def clSetKernelArg(self, kernel: Kernel, index: int, value: object) -> None:
        self._tick()
        kernel.set_arg(index, value)

    def clRetainKernel(self, kernel: Kernel) -> None:
        kernel.retain()

    def clReleaseKernel(self, kernel: Kernel) -> None:
        kernel.release()

    def clEnqueueNDRangeKernel(
        self,
        queue: CommandQueue,
        kernel: Kernel,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
        global_offset: Optional[Sequence[int]] = None,
        wait_for: Optional[Sequence[Event]] = None,
    ) -> Event:
        t = self._tick()
        return queue.enqueue_nd_range_kernel(
            kernel, global_size, t, local_size, global_offset, wait_for
        )

    # -- events ------------------------------------------------------------------
    def clWaitForEvents(self, events: Sequence[Event]) -> None:
        t = self._tick()
        if not events:
            raise CLError(ErrorCode.CL_INVALID_VALUE, "empty event list")
        for ev in events:
            self.clock.advance_to(ev.wait(t))

    def clGetEventInfo(self, event: Event, key: str = "STATUS") -> object:
        self._tick()
        if key == "STATUS":
            return event.status
        if key == "COMMAND_TYPE":
            return event.command_type
        raise CLError(ErrorCode.CL_INVALID_VALUE, f"unknown event info key {key!r}")

    def clGetEventProfilingInfo(self, event: Event, param: int) -> float:
        self._tick()
        return event.profiling_info(param)

    def clSetEventCallback(self, event: Event, callback, status: int = CL_COMPLETE) -> None:
        self._tick()
        event.set_callback(callback, status)

    def clCreateUserEvent(self, context: Context) -> UserEvent:
        t = self._tick()
        return UserEvent(context, t)

    def clSetUserEventStatus(self, event: UserEvent, status: int) -> None:
        t = self._tick()
        event.set_status(status, t)

    def clRetainEvent(self, event: Event) -> None:
        event.retain()

    def clReleaseEvent(self, event: Event) -> None:
        event.release()

    # -- convenience (not part of the C API) ----------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NativeAPI host={self.host.name!r} t={self.clock.now:.6f}>"


#: Re-exported so applications can say ``cl.LocalMemory(nbytes)``.
NativeAPI.LocalMemory = LocalMemory
