"""The flat OpenCL API implemented by the dOpenCL client driver.

Exposes exactly the same method surface as
:class:`repro.ocl.api.NativeAPI`, so an application written against that
surface runs on dOpenCL *unmodified* — the paper's headline property
("dOpenCL allows running existing OpenCL applications in a heterogeneous
distributed environment without any modifications").

Paper-parity limitations are honoured: images, samplers, buffer mapping
and event profiling raise ``CL_INVALID_OPERATION`` (Section III-B lists
them as unimplemented in dOpenCL).

Enqueue-class calls (``clEnqueueNDRangeKernel``, ``clEnqueueWriteBuffer``,
releases, event status updates) **and creation calls** (``clCreateContext`` /
``clCreateCommandQueue`` / ``clCreateBuffer`` / ``clCreateProgramWithSource``;
``clCreateKernel`` and ``clSetKernelArg`` ride the launches that need them)
are forwarded *asynchronously*: they join the driver's per-connection send windows and
are coalesced into one ``CommandBatch`` round trip per daemon at the
next synchronization point — see :mod:`repro.core.client.driver`.
Creation calls are *handle promises*: the stub (with its client-assigned
unique ID) is returned and usable immediately; the daemon registers the
object under that provisional ID when the batch replays, and a creation
failure poisons the ID so dependent commands are skipped and the error
surfaces as ``CLError`` at the next sync point touching that daemon, as
in real asynchronous OpenCL.  Sync points are dependency-tracked:
``clFinish`` drains every window, while ``clWaitForEvents`` and blocking
transfers drain only the windows the awaited handle transitively
depends on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.clc import CLCompileError, LocalMemory
from repro.clc.driver import deserialize_program, kernel_arg_metadata
from repro.core.client.driver import DOpenCLDriver, ProgramBuildRecord
from repro.core.client.stubs import (
    BufferStub,
    ContextStub,
    EventStub,
    KernelStub,
    ProgramStub,
    QueueStub,
    RemoteDevice,
    ServerHandle,
    UserEventStub,
)
from repro.core.protocol import messages as P
from repro.ocl.api import API_CALL_OVERHEAD
from repro.ocl.constants import (
    CL_COMMAND_NDRANGE_KERNEL,
    CL_COMMAND_READ_BUFFER,
    CL_COMMAND_WRITE_BUFFER,
    CL_COMPLETE,
    CL_DEVICE_TYPE_ALL,
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_WRITE,
    CL_MEM_USE_HOST_PTR,
    CL_MEM_WRITE_ONLY,
    ErrorCode,
)
from repro.ocl.errors import CLError, require


class DOpenCLAPI:
    """Flat ``cl*`` API over a :class:`DOpenCLDriver`."""

    LocalMemory = LocalMemory

    def __init__(self, driver: DOpenCLDriver) -> None:
        self.driver = driver
        self.clock = driver.clock

    # ------------------------------------------------------------------
    def _tick(self) -> float:
        return self.clock.advance_by(API_CALL_OVERHEAD)

    @staticmethod
    def _record_command_deps(
        queue: QueueStub, event: EventStub, wait_for: Optional[Sequence[EventStub]]
    ) -> None:
        """Record a forwarded command's dependency edges on its stubs:
        the explicit wait list plus — on an in-order queue — the queue's
        previous command (which the daemon serialises before this one).
        Stored on the event stub so the window graph can follow the
        chain even after the commands left their send windows."""
        deps = [e.id for e in (wait_for or ())]
        if queue.in_order and queue.last_event_id is not None:
            deps.append(queue.last_event_id)
        event.depends_on = tuple(deps)
        queue.last_event_id = queue.tail_event_id = event.id

    @property
    def now(self) -> float:
        """Current virtual time on the application's clock."""
        return self.clock.now

    # -- platform / device ------------------------------------------------
    def clGetPlatformIDs(self) -> List[object]:
        """The single dOpenCL platform merging all connected servers."""
        self._tick()
        return [self.driver.platform]

    def clGetPlatformInfo(self, platform, key: str) -> object:
        """Platform info key lookup (client-side, no network)."""
        self._tick()
        return platform.get_info(key)

    def clGetDeviceIDs(self, platform, device_type: int = CL_DEVICE_TYPE_ALL) -> List[RemoteDevice]:
        """All devices of all servers; triggers automatic connection."""
        self._tick()
        # Automatic connection happens here — "during the application's
        # initialization phase, when it obtains the list of available
        # devices" (Section III-C).
        self.driver.ensure_connected()
        return platform.get_devices(device_type)

    def clGetDeviceInfo(self, device: RemoteDevice, key: str) -> object:
        """Device info from the client-side cache (Section III-B)."""
        self._tick()
        return device.get_info(key)  # answered from the client-side cache

    # -- dOpenCL API extension (paper Listing 1) ----------------------------
    def clConnectServerWWU(self, address: str) -> ServerHandle:
        """Paper Listing 1: connect to an additional server at runtime."""
        self._tick()
        return self.driver.connect_server(address)

    def clDisconnectServerWWU(self, server: ServerHandle) -> None:
        """Paper Listing 1: drop a server; its devices become unavailable."""
        self._tick()
        self.driver.disconnect_server(server)

    def clGetServerInfoWWU(self, server: ServerHandle, key: str) -> object:
        """Paper Listing 1: query a connected server's self-description."""
        self._tick()
        return self.driver.server_info(server, key)

    # -- context --------------------------------------------------------------
    def clCreateContext(self, devices: Sequence[RemoteDevice]) -> ContextStub:
        """Create a compound context stub spanning every involved server.

        A handle promise: the stub is usable immediately, the per-server
        creations ride the send windows, and daemon-side failures
        surface at the next sync point."""
        self._tick()
        require(len(devices) > 0, ErrorCode.CL_INVALID_VALUE, "context needs devices")
        for dev in devices:
            if not isinstance(dev, RemoteDevice):
                raise CLError(ErrorCode.CL_INVALID_DEVICE, f"not a dOpenCL device: {dev!r}")
            if not dev.available:
                raise CLError(ErrorCode.CL_DEVICE_NOT_AVAILABLE, dev.name)
        context = ContextStub(self.driver, self.driver.new_id(), list(devices))
        self.driver.register_context(context)
        self.driver.forward_creation(
            context.unique_servers,
            lambda conn: P.CreateContextRequest(
                context_id=context.id,
                device_ids=[d.remote_id for d in context.server_devices[conn.name]],
            ),
        )
        return context

    def clRetainContext(self, context: ContextStub) -> None:
        """Bump the context stub's reference count."""
        context.retain()

    def clReleaseContext(self, context: ContextStub) -> None:
        """Drop a reference; the last one defers the remote releases."""
        context.release()
        if context.refcount <= 0:
            self.driver.fanout_deferred(
                context.unique_servers,
                lambda conn: P.ReleaseContextRequest(context_id=context.id),
            )

    # -- command queue ------------------------------------------------------------
    def clCreateCommandQueue(self, context: ContextStub, device: RemoteDevice, properties: int = 0) -> QueueStub:
        """Create a queue on the one server hosting ``device`` (handle
        promise: the creation rides that server's send window)."""
        self._tick()
        if device not in context.devices:
            raise CLError(ErrorCode.CL_INVALID_DEVICE, "device not in context")
        queue = QueueStub(context, self.driver.new_id(), device, properties)
        self.driver.forward_creation(
            [device.server],
            lambda c: P.CreateQueueRequest(
                queue_id=queue.id,
                context_id=context.id,
                device_id=device.remote_id,
                properties=properties,
            ),
        )
        return queue

    def clRetainCommandQueue(self, queue: QueueStub) -> None:
        """Bump the queue stub's reference count."""
        queue.retain()

    def clReleaseCommandQueue(self, queue: QueueStub) -> None:
        """Drop a reference; the last one defers the remote release."""
        queue.release()
        if queue.refcount <= 0:
            self.driver.defer(queue.server, P.ReleaseQueueRequest(queue_id=queue.id))

    def clFinish(self, queue: QueueStub) -> None:
        """Synchronization point: every send window drains (commands on
        other servers may gate this queue through event wait lists).  An
        in-order queue learns its completion from the notification of its
        last command, so its ``clFinish`` costs the drain and no more —
        nothing if the drain sent nothing.  Otherwise the
        ``FinishRequest`` closes the drain's last batch to the queue's
        daemon, or takes its own round trip when the drain sent that
        daemon nothing (:meth:`DOpenCLDriver.finish`)."""
        self._tick()
        self.driver.finish(queue)

    def clFlush(self, queue: QueueStub) -> None:
        """Submission guarantee without blocking: everything enqueued on
        any queue of this daemon so far is ordered ahead of anything
        issued later.  No round trip of its own: the ``FlushRequest``
        rides the send window and the driver records a submission
        barrier at its tail, which prefix flushing never reorders across
        (:meth:`DOpenCLDriver.mark_flush_barrier`)."""
        self._tick()
        self.driver.defer(queue.server, P.FlushRequest(queue_id=queue.id))
        self.driver.mark_flush_barrier(queue.server)

    # -- memory ---------------------------------------------------------------------
    def clCreateBuffer(
        self,
        context: ContextStub,
        flags: int,
        size: int,
        host_data: Optional[np.ndarray] = None,
    ) -> BufferStub:
        """Create a compound buffer stub; nothing is sent — a copy is
        created where a command first uses the buffer."""
        self._tick()
        require(size > 0, ErrorCode.CL_INVALID_BUFFER_SIZE, f"size must be positive, got {size}")
        if flags & (CL_MEM_COPY_HOST_PTR | CL_MEM_USE_HOST_PTR):
            require(host_data is not None, ErrorCode.CL_INVALID_HOST_PTR, "flags require host data")
        elif host_data is not None:
            raise CLError(
                ErrorCode.CL_INVALID_HOST_PTR,
                "host data passed without CL_MEM_COPY_HOST_PTR/CL_MEM_USE_HOST_PTR",
            )
        buffer = BufferStub(
            context,
            self.driver.new_id(),
            flags or CL_MEM_READ_WRITE,
            size,
            protocol=self.driver.coherence_protocol,
        )
        if host_data is not None:
            raw = np.ascontiguousarray(host_data).view(np.uint8).ravel()
            require(
                raw.size == size,
                ErrorCode.CL_INVALID_HOST_PTR,
                f"host data is {raw.size} bytes, buffer is {size}",
            )
            buffer.write_host(0, raw)  # also clears the pristine flag
        # Remote copies are plain allocations (``remote_flags``): host
        # data reaches servers through coherence uploads.  A daemon-side
        # allocation failure (device memory exhaustion, per-device size
        # limits) poisons the buffer ID there and fails the command that
        # needed the copy.
        self.driver.create_buffer(buffer)
        # Registered for the read-coalescing planner's sibling scan.
        context.live_buffers.append(buffer)
        return buffer

    def clRetainMemObject(self, buffer: BufferStub) -> None:
        """Bump the buffer stub's reference count."""
        buffer.retain()

    def clReleaseMemObject(self, buffer: BufferStub) -> None:
        """Drop a reference; the last one defers the remote releases to
        the copies' holders."""
        if buffer.refcount == 1:
            # Real OpenCL's enqueued read retains the mem object until it
            # completes; here the pending deferred fetch must run before
            # the release forwards, or the resolution would fetch a
            # buffer the daemon already freed.
            self.driver.resolve_deferred_reads([buffer.id])
        buffer.release()
        if buffer.released:
            # Drop it from the read-coalescing candidate pool eagerly —
            # a released stub pins its host-side data array, and the
            # lazy prune in read_gang_candidates only runs when a gang
            # scan happens.
            context = buffer.context
            context.live_buffers = [
                b for b in context.live_buffers if not b.released
            ]
            self.driver.fanout_holders(buffer, lambda conn: P.ReleaseBufferRequest(buffer_id=buffer.id))

    def clEnqueueWriteBuffer(
        self,
        queue: QueueStub,
        buffer: BufferStub,
        blocking: bool,
        offset: int,
        data: np.ndarray,
        wait_for: Optional[Sequence[EventStub]] = None,
    ) -> EventStub:
        """Host-to-buffer write: send the bytes to the queue's server and
        mark that server's copy Modified (:meth:`_write_through`).  On the
        pipeline the write is windowed; a blocking one drains its event's
        dependency closure and resumes at its completion."""
        t = self._tick()
        self._check_queue_buffer(queue, buffer)
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        # Bounds validated before the read-modify-write fetch below can
        # mutate planner/directory state (mirror of the read-side rule).
        buffer.check_range(offset, raw.size)
        # WAR hazard: a pending deferred read of this buffer must
        # observe the *pre-write* bytes — resolve it before the write
        # mutates anything.
        self.driver.resolve_deferred_reads([buffer.id] + [e.id for e in wait_for or ()])
        event = self._write_through(queue, buffer, offset, raw, wait_for, blocking)
        if blocking and event.resolved:
            self.clock.advance_to(event.completion_arrival)
        return event

    def _write_through(
        self,
        queue: QueueStub,
        buffer: BufferStub,
        offset: int,
        raw: np.ndarray,
        wait_for: Optional[Sequence[EventStub]],
        blocking: bool,
    ) -> EventStub:
        """The one host-write path (``clEnqueueWriteBuffer`` and the
        client-mediated copy; :meth:`DOpenCLDriver.enqueue_write`).  The
        protocol ships whole objects: a write covering the buffer sends
        ``raw`` itself — a blocking write streams it before the call
        returns, a non-blocking one takes a copy — while a partial write
        merges ``raw`` into a valid client copy (read-modify-write) and
        sends that.  A write that failed before it landed puts the merged
        range back, so every copy keeps its bytes and, since
        ``note_host_write`` never ran, the directory its state; one that
        landed before a failure surfaced is recorded like any other."""
        whole = offset == 0 and raw.size == buffer.size
        if not whole and not buffer.planner.is_valid("client"):
            buffer.planner.note_client_demand()
            plan = buffer.planner.acquire_read("client")
            self.driver.run_transfer_plans([(buffer, plan)], queue)
        event = self.driver.new_event_stub(queue.context, queue.server.name, CL_COMMAND_WRITE_BUFFER)
        # Same dependency bookkeeping as a kernel launch: the upload is
        # gated daemon-side on its wait list (and the queue's previous
        # command), so the stub records the chain (for waits on the
        # upload event) and the buffer records its pending writer (for
        # blocking reads) — both must survive the command leaving any
        # window.
        self._record_command_deps(queue, event, wait_for)
        buffer.last_write_event = event.id
        init = P.BufferDataUpload(
            buffer_id=buffer.id,
            queue_id=queue.id,
            event_id=event.id,
            offset=0,
            nbytes=buffer.size,
            wait_event_ids=self.driver.daemon_wait_ids(queue.server, wait_for),
            replica_servers=self.driver.replica_broadcast_targets(event) or None,
        )
        if whole:
            buffer.pristine = False
            payload, undo = raw, None
        else:
            undo = buffer.array[offset : offset + raw.size].copy()
            buffer.write_host(offset, raw)
            payload = buffer.array
        try:
            self.driver.enqueue_write(queue, buffer, init, payload, blocking, wait_for)
        except BaseException:
            if event.resolved:
                self.driver.note_host_write(buffer, queue.server.name)
            elif undo is not None:
                buffer.store(offset, undo)
            raise
        # The application's host pointer is transient: after the upload the
        # *server's* copy is the modified one and the client stub (like all
        # other copies) is invalid — which is why a subsequent read streams
        # the data back over the network (the Fig. 7 measurement).
        self.driver.note_host_write(buffer, queue.server.name)
        return event

    def clEnqueueReadBuffer(
        self,
        queue: QueueStub,
        buffer: BufferStub,
        blocking: bool = True,
        offset: int = 0,
        nbytes: Optional[int] = None,
        wait_for: Optional[Sequence[EventStub]] = None,
    ):
        """Returns ``(data, event)``.

        Per the MSI protocol: only touches the network when the client's
        copy is invalid (then it downloads the whole object from the
        modified owner).  A blocking read that must download also
        gang-revalidates the sibling dirty buffers stranded on the same
        daemon in one fused fetch, so back-to-back result reads cost one
        round trip per source daemon.

        A non-blocking read (with ``defer_reads`` on, the default) is a
        *deferred fetch*: the enqueue records a read-dep on the buffer's
        writers plus the ``wait_for`` list on the window graph and
        returns immediately — zero network traffic, zero virtual-time
        advance beyond the call overhead.  The returned array fills (and
        the event resolves, with the transfer's real completion
        timestamps) when the fetch rides the next relevant flush —
        ``event.wait()``, a sync point touching the buffer, or
        ``clFinish``.  With ``defer_reads=False`` the read is eager:
        fetched synchronously at enqueue, like a blocking read."""
        t = self._tick()
        self._check_queue_buffer(queue, buffer)
        if nbytes is None:
            nbytes = buffer.size - offset
        # Bounds are validated *before* any planner or directory state
        # mutates (note_client_demand / acquire_read below): a rejected
        # read must leave the coherence machinery untouched.
        buffer.check_range(offset, nbytes)
        if not blocking and self.driver.defer_reads:
            event = self.driver.new_deferred_read_event(
                queue.context, queue.server.name
            )
            # The wait list becomes event-deps of the deferred fetch
            # (plus the in-order queue predecessor) instead of blocking
            # the enqueue — resolution waits them out when the fetch
            # actually runs.
            self._record_command_deps(queue, event, wait_for)
            out = np.zeros(nbytes, dtype=np.uint8)
            self.driver.record_deferred_read(buffer, queue, event, offset, nbytes, out)
            return out, event
        # Eager path (blocking reads; every read under the
        # ``defer_reads=False`` ablation, which must drain too or it
        # could return pre-write bytes): a targeted sync point draining
        # the buffer's writers, transitively, plus an in-order queue's
        # own command chain (real OpenCL completes a blocking read after
        # every prior command of its queue); a stashed deferred failure
        # surfaces here.  When the wait list already reached the client,
        # the drain is the download's own: it rides the producers' batch.
        handles = self.driver.buffer_sync_handles(buffer) + self.driver.queue_sync_handles(queue)
        fold = self.driver.read_rides_drain(wait_for)
        if not fold:
            self.driver.flush_for_handles(handles)
            for ev in wait_for or ():
                # ev.wait drains the relevant send windows (flush hook)
                # before resolving.
                self.clock.advance_to(ev.wait(self.clock.now))
        event = self.driver.register_event(
            EventStub(queue.context, self.driver.new_id(), queue.server.name, CL_COMMAND_READ_BUFFER)
        )
        # Read coalescing: when this blocking read must download its
        # buffer, the sibling dirty buffers stranded on the same daemon
        # ride the same CoalescedBufferDownload — the next back-to-back
        # result read finds its client copy already valid.
        siblings = self.driver.read_gang(buffer, handles, fold) if blocking else []
        # Discard any stale completion record for this buffer so the pop
        # below observes only what *this* read's download (or staged-push
        # apply) actually did.
        self.driver.pop_fetch_completion(buffer.id)
        buffer.planner.note_client_demand()
        plan = buffer.planner.acquire_read("client")
        if plan:
            self.driver.run_transfer_plans(
                [(buffer, plan)],
                queue,
                gang=siblings,
                drain=handles if fold else None,
                raising=fold,
            )
        elif fold:
            self.driver.flush_for_handles(handles)
        # Profiling truth: a read that downloaded (or consumed a staged
        # push) completes at the transfer's daemon-side completion time
        # and resolves at the data's client arrival; a read satisfied
        # from a valid client copy completes locally, now.
        completion = self.driver.pop_fetch_completion(buffer.id)
        if completion is None:
            completion = (self.clock.now, self.clock.now)
        event.mark_complete(*completion)
        data = buffer.read_host(offset, nbytes)
        return data, event

    def clEnqueueCopyBuffer(
        self,
        queue: QueueStub,
        src: BufferStub,
        dst: BufferStub,
        src_offset: int = 0,
        dst_offset: int = 0,
        nbytes: Optional[int] = None,
        wait_for: Optional[Sequence[EventStub]] = None,
    ) -> EventStub:
        """Client-mediated buffer copy (validate src, update dst, upload)."""
        t = self._tick()
        self._check_queue_buffer(queue, src)
        self._check_queue_buffer(queue, dst)
        if nbytes is None:
            nbytes = src.size - src_offset
        # Overlap and the bounds of both ranges validated (in the native
        # runtime's order) before any coherence traffic or directory
        # mutation (validate-before-mutate).
        if src is dst and src_offset < dst_offset + nbytes and dst_offset < src_offset + nbytes:
            raise CLError(ErrorCode.CL_MEM_COPY_OVERLAP)
        src.check_range(src_offset, nbytes)
        dst.check_range(dst_offset, nbytes)
        # WAR hazard: pending deferred reads of dst see pre-copy bytes.
        self.driver.resolve_deferred_reads([dst.id] + [e.id for e in wait_for or ()])
        # Client-mediated copy: validate the client's copy of src, then
        # write its slice to dst through the host-write path.
        src.planner.note_client_demand()
        plan = src.planner.acquire_read("client")
        self.driver.run_transfer_plans([(src, plan)], queue)
        raw = src.array[src_offset : src_offset + nbytes]
        return self._write_through(queue, dst, dst_offset, raw, wait_for, blocking=True)

    def _check_queue_buffer(self, queue: QueueStub, buffer: BufferStub) -> None:
        if not isinstance(buffer, BufferStub):
            raise CLError(ErrorCode.CL_INVALID_MEM_OBJECT, f"not a buffer: {buffer!r}")
        if buffer.context is not queue.context:
            raise CLError(ErrorCode.CL_INVALID_MEM_OBJECT, "buffer from another context")
        if buffer.released:
            raise CLError(ErrorCode.CL_INVALID_MEM_OBJECT, "buffer was released")

    # -- unimplemented in dOpenCL (Section III-B parity) ----------------------------
    def clCreateImage2D(self, *args, **kwargs):
        """Unimplemented in dOpenCL (Section III-B parity)."""
        raise CLError(
            ErrorCode.CL_INVALID_OPERATION,
            "images are not implemented in dOpenCL (Section III-B)",
        )

    clCreateImage3D = clCreateImage2D

    def clCreateSampler(self, *args, **kwargs):
        """Unimplemented in dOpenCL (Section III-B parity)."""
        raise CLError(
            ErrorCode.CL_INVALID_OPERATION,
            "samplers are not implemented in dOpenCL (Section III-B)",
        )

    def clEnqueueMapBuffer(self, *args, **kwargs):
        """Unimplemented in dOpenCL (Section III-B parity)."""
        raise CLError(
            ErrorCode.CL_INVALID_OPERATION,
            "buffer mapping is not implemented in dOpenCL (Section III-B)",
        )

    def clGetEventProfilingInfo(self, event, param):
        """Unimplemented in dOpenCL (Section III-B parity)."""
        raise CLError(
            ErrorCode.CL_INVALID_OPERATION,
            "event profiling is not implemented in dOpenCL (Section III-B)",
        )

    # -- program / kernel --------------------------------------------------------------
    def clCreateProgramWithSource(self, context: ContextStub, source: str) -> ProgramStub:
        """Replicate the program source to every server
        (:meth:`DOpenCLDriver.create_program`)."""
        self._tick()
        require(bool(source.strip()), ErrorCode.CL_INVALID_VALUE, "empty program source")
        program = ProgramStub(context, self.driver.new_id(), source)
        self.driver.create_program(program)
        return program

    def clBuildProgram(self, program: ProgramStub, options: str = "") -> None:
        """Build on every server; failures merge into one CLError
        (:meth:`DOpenCLDriver.build_program`).  The kernel argument
        metadata ends up cached on the stub, so ``clCreateKernel`` needs
        no reply data of its own."""
        self._tick()
        program.options = options
        self.driver.build_program(program, options)

    def clGetProgramBuildInfo(self, program: ProgramStub, device, key: str) -> object:
        """Build status/log/options from the program stub."""
        self._tick()
        return program.build_info(key)

    def clGetProgramInfo(self, program: ProgramStub, key: str) -> object:
        """Program queries: SOURCE, KERNEL_NAMES, or BINARIES.

        ``BINARIES`` fetches the serialized ``CompiledProgram`` from
        the first live context server (flush + one synchronous round
        trip through the retry layer); the compiler is deterministic, so
        every server holds the identical binary and the reply is
        replicated client-side per server."""
        self._tick()
        if key == "SOURCE":
            return program.source
        if key == "KERNEL_NAMES":
            if program.build_status != "SUCCESS":
                raise CLError(
                    ErrorCode.CL_INVALID_PROGRAM_EXECUTABLE,
                    "program has not been built successfully",
                )
            return sorted(program.kernel_meta)
        if key == "BINARIES":
            if program.build_status != "SUCCESS":
                raise CLError(
                    ErrorCode.CL_INVALID_PROGRAM_EXECUTABLE,
                    "program has not been built successfully",
                )
            servers = program.context.unique_servers
            # With no live server left, the first one's terminal error.
            conn = next((c for c in servers if c.connected and not c.dead), servers[0])
            outcome = self.driver.roundtrip(
                conn, P.GetProgramBinaryRequest(program_id=program.id)
            )
            return [bytes(outcome.response.binary)] * len(servers)
        raise CLError(ErrorCode.CL_INVALID_VALUE, f"unknown program info key {key!r}")

    def clCreateProgramWithBinary(self, context: ContextStub, binary: bytes) -> ProgramStub:
        """Create a program from a serialized binary (binary install).

        The blob is validated and decoded client-side — a corrupt blob
        raises ``CL_INVALID_BINARY`` before anything ships — then the
        binary rides the send windows to every context server, which
        installs it straight into the daemon build cache, skipping the
        compiler front-end.  The subsequent ``clBuildProgram`` (still
        required, per OpenCL semantics) resolves as a cache hit on both
        sides."""
        self._tick()
        try:
            compiled = deserialize_program(bytes(binary))
        except CLCompileError as exc:
            raise CLError(ErrorCode.CL_INVALID_BINARY, str(exc))
        program = ProgramStub(context, self.driver.new_id(), compiled.source)
        program.binary = bytes(binary)
        self.driver.forward_creation(
            context.unique_servers,
            lambda conn: P.CreateProgramWithBinaryRequest(
                program_id=program.id, context_id=context.id, binary=program.binary
            ),
        )
        self.driver.remember_build(
            program.digest,
            compiled.options,
            ProgramBuildRecord(kind="success", kernel_meta=kernel_arg_metadata(compiled)),
        )
        return program

    def clRetainProgram(self, program: ProgramStub) -> None:
        """Bump the program stub's reference count."""
        program.retain()

    def clReleaseProgram(self, program: ProgramStub) -> None:
        """Drop a reference; the last one defers the remote releases."""
        program.release()
        if program.refcount <= 0:
            self.driver.fanout_deferred(
                program.context.unique_servers,
                lambda conn: P.ReleaseProgramRequest(program_id=program.id),
            )

    def clCreateKernel(self, program: ProgramStub, name: str) -> KernelStub:
        """Assemble the stub client-side from the argument metadata the
        build cached on the program, rejecting unknown names
        (:meth:`DOpenCLDriver.create_kernel`)."""
        self._tick()
        if program.build_status != "SUCCESS":
            raise CLError(
                ErrorCode.CL_INVALID_PROGRAM_EXECUTABLE,
                "program has not been built successfully",
            )
        meta = program.kernel_meta.get(name)
        if meta is None:
            raise CLError(ErrorCode.CL_INVALID_KERNEL_NAME, f"no kernel {name!r}")
        kernel = KernelStub(
            program,
            self.driver.new_id(),
            name,
            num_args=int(meta["num_args"]),
            arg_kinds=list(meta.get("arg_kinds") or []),
            arg_types=list(meta.get("arg_types") or []),
            writable_buffer_args=list(meta.get("writable_buffer_args") or []),
        )
        self.driver.create_kernel(kernel)
        return kernel

    def clCreateKernelsInProgram(self, program: ProgramStub) -> List[KernelStub]:
        """Not forwarded by dOpenCL; create kernels by name instead."""
        raise CLError(
            ErrorCode.CL_INVALID_OPERATION,
            "clCreateKernelsInProgram is not forwarded; create kernels by name",
        )

    def clSetKernelArg(self, kernel: KernelStub, index: int, value: object) -> None:
        """Validate the argument client-side and record it on the stub
        (:meth:`DOpenCLDriver.set_kernel_arg`)."""
        self._tick()
        require(
            0 <= index < kernel.num_args,
            ErrorCode.CL_INVALID_ARG_INDEX,
            f"kernel {kernel.name!r} has {kernel.num_args} args, got index {index}",
        )
        kind = kernel.arg_kinds[index]
        if kind == "buffer":
            if not isinstance(value, BufferStub):
                raise CLError(
                    ErrorCode.CL_INVALID_ARG_VALUE,
                    f"argument {index} of {kernel.name!r} must be a Buffer",
                )
            if value.context is not kernel.context:
                raise CLError(ErrorCode.CL_INVALID_MEM_OBJECT, "buffer from another context")
            msg_kwargs = dict(kind="buffer", buffer_id=value.id)
        elif kind == "local":
            if not isinstance(value, LocalMemory):
                raise CLError(
                    ErrorCode.CL_INVALID_ARG_VALUE,
                    f"argument {index} of {kernel.name!r} is __local; pass LocalMemory(nbytes)",
                )
            msg_kwargs = dict(kind="local", local_nbytes=value.nbytes)
        else:
            if isinstance(value, (BufferStub, LocalMemory)):
                raise CLError(
                    ErrorCode.CL_INVALID_ARG_VALUE,
                    f"argument {index} of {kernel.name!r} is a scalar",
                )
            wire_value = value
            if isinstance(value, (np.integer, np.bool_)):
                wire_value = int(value)
            msg_kwargs = dict(kind="value", value=wire_value)
        kernel.args[index] = value
        kernel.args_set[index] = True
        update = P.SetKernelArgRequest(kernel_id=kernel.id, index=index, **msg_kwargs)
        kernel.set_wire(index, update.arg)
        self.driver.set_kernel_arg(kernel, update)

    def clRetainKernel(self, kernel: KernelStub) -> None:
        """Bump the kernel stub's reference count."""
        kernel.retain()

    def clReleaseKernel(self, kernel: KernelStub) -> None:
        """Drop a reference; the last one defers the remote releases to
        the kernel's holders, then drops the program reference the
        kernel held, if it did."""
        kernel.release()
        if kernel.refcount <= 0:
            self.driver.fanout_holders(kernel, lambda conn: P.ReleaseKernelRequest(kernel_id=kernel.id))
            if kernel.holds_program and kernel.refcount == 0:
                self.clReleaseProgram(kernel.program)

    def clEnqueueNDRangeKernel(
        self,
        queue: QueueStub,
        kernel: KernelStub,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
        global_offset: Optional[Sequence[int]] = None,
        wait_for: Optional[Sequence[EventStub]] = None,
    ) -> EventStub:
        """Run the coherence plans for the kernel's buffer arguments
        (uploads to the same daemon coalesce into one stream), then defer
        the launch into the queue server's send window."""
        t = self._tick()
        if kernel.context is not queue.context:
            raise CLError(ErrorCode.CL_INVALID_KERNEL, "kernel from another context")
        if not all(kernel.args_set):
            missing = kernel.args_set.index(False)
            raise CLError(
                ErrorCode.CL_INVALID_KERNEL_ARGS,
                f"argument {missing} of {kernel.name!r} is not set",
            )
        server = queue.server
        # A lost daemon fails the launch before any transfer toward it.
        self.driver.transport.check_usable(server)
        # Memory consistency (Section III-D): "When a server is about to
        # execute a command, it requires a valid copy of each memory object
        # *that will be read*" — the client runs the MSI plan per buffer
        # arg.  A still-pristine CL_MEM_WRITE_ONLY buffer skips the plan:
        # kernels never read it and every copy still holds the initial
        # zeros, so the upload would move no information.  Once anything
        # has written the buffer (host data, a transfer, a kernel) the
        # plan runs, preserving contents outside partial kernel writes.
        # All buffer args are planned together so uploads to the same
        # daemon coalesce into one bulk stream (run_transfer_plans).
        # WAR hazard: buffers this launch may write can carry pending
        # deferred reads that must observe the *pre-kernel* bytes (an
        # in-order queue completes the read before the launch) —
        # resolve them before the directory records the kernel write.
        war_buffers = [
            kernel.args[i]
            for i in kernel.writable_buffer_args
            if isinstance(kernel.args[i], BufferStub)
        ]
        self.driver.resolve_deferred_reads(
            [b.id for b in war_buffers] + [e.id for e in wait_for or ()]
        )
        plans = []
        for buffer in kernel.buffer_args():
            if buffer.flags & CL_MEM_WRITE_ONLY and buffer.pristine:
                continue
            plans.append((buffer, buffer.planner.acquire_read(server.name)))
        self.driver.run_transfer_plans(plans, queue)
        event = self.driver.new_event_stub(queue.context, server.name, CL_COMMAND_NDRANGE_KERNEL)
        # Recorded on the stubs (not just the windowed command) so the
        # dependency closure can still follow the chain — wait list plus
        # the in-order-queue predecessor — after the launch has been
        # dispatched but sits pending daemon-side.
        self._record_command_deps(queue, event, wait_for)
        # Asynchronous forwarding: the launch joins the send window and
        # rides the next CommandBatch; daemon-side launch errors surface
        # at the next synchronization point, and the event stub resolves
        # from the completion notification the flushed batch triggers.
        # The window-graph annotation is the full data/completion shape:
        # the launch reads its handles, wait events and buffer
        # arguments, and *writes* its event plus the buffers the kernel
        # may modify — which is how targeted sync points (event waits,
        # blocking reads of an output buffer) find this command.
        written_buffers = war_buffers
        # Push hints ride the launch (planned *before* the write below
        # bumps the epochs, labeled with the epoch the write creates):
        # buffers whose access history shows a stable producer->consumer
        # edge ask the daemon to stream the replica at completion.
        push_hints = self.driver.plan_push_hints(written_buffers, server.name)
        # The launch carries what its daemon lacks (the residency record,
        # :class:`~repro.core.client.stubs.Resident`): the kernel's
        # creation and the argument values not bound there yet; its
        # buffer arguments and the replicas of the events it waits on
        # are created there first, in the window ahead of it.
        create, entries = self.driver.launch_carries(kernel, server.name)
        self.driver.stats.kernels_created_on_launch += create
        self.driver.stats.folded_kernel_args += len(entries)
        wait_ids = self.driver.daemon_wait_ids(server, wait_for)
        self.driver.precede(server, kernel.buffer_args())
        # The kernel (may have) modified its writable buffer arguments:
        # that server's copies become Modified, everything else Invalid.
        # (Client-side directory state — updated eagerly, before the
        # launch joins the window: a defer that overflows the window
        # runs the kernel at once, and its push, staged meanwhile, must
        # find the epoch this write creates.  The data effect happens
        # when the window flushes, before anything re-reads it.)
        for value in written_buffers:
            self.driver.note_kernel_write(value, server.name)
            value.pristine = False
            value.last_write_event = event.id
        self.driver.defer(
            server,
            P.EnqueueKernelRequest(
                queue_id=queue.id,
                kernel_id=kernel.id,
                event_id=event.id,
                global_size=[int(g) for g in global_size],
                local_size=[int(v) for v in local_size] if local_size else None,
                global_offset=[int(v) for v in global_offset] if global_offset else None,
                wait_event_ids=wait_ids or None,
                replica_servers=self.driver.replica_broadcast_targets(event) or None,
                push_hints=push_hints,
                args=entries or None,
                program_id=kernel.program.id if create else None,
                name=kernel.name if create else None,
            ),
            reads=[queue.id, kernel.id] + [e.id for e in wait_for or ()] + [b.id for b in kernel.buffer_args()],
            writes=[event.id] + [b.id for b in written_buffers],
            weight=1 + create + len(entries),
        )
        return event

    # -- events -------------------------------------------------------------------------
    def clWaitForEvents(self, events: Sequence[EventStub]) -> None:
        """Synchronization point: each event's flush hook drains the send
        windows (including deferred completion relays) before resolving."""
        t = self._tick()
        if not events:
            raise CLError(ErrorCode.CL_INVALID_VALUE, "empty event list")
        for ev in events:
            # Sync point: each stub's flush hook drains the send windows
            # it depends on, then the wait resolves from the batch reply.
            self.clock.advance_to(ev.wait(self.clock.now))

    def clGetEventInfo(self, event: EventStub, key: str = "STATUS") -> object:
        """STATUS / COMMAND_TYPE from the event stub."""
        self._tick()
        if key == "STATUS":
            return event.status
        if key == "COMMAND_TYPE":
            return event.command_type
        raise CLError(ErrorCode.CL_INVALID_VALUE, f"unknown event info key {key!r}")

    def clSetEventCallback(self, event: EventStub, callback, status: int = CL_COMPLETE) -> None:
        """CL_COMPLETE callbacks on already-resolved events only."""
        self._tick()
        if status != CL_COMPLETE:
            raise CLError(ErrorCode.CL_INVALID_VALUE, "only CL_COMPLETE callbacks supported")
        if event.resolved:
            callback(event, CL_COMPLETE, event.completion_arrival)
        else:
            raise CLError(
                ErrorCode.CL_INVALID_OPERATION,
                "deferred client-side callbacks are not supported by this driver",
            )

    def clCreateUserEvent(self, context: ContextStub) -> UserEventStub:
        """User event with replicas where commands wait on it."""
        self._tick()
        return self.driver.new_user_event_stub(context)

    def clSetUserEventStatus(self, event: UserEventStub, status: int) -> None:
        """Complete a user event: the status goes to its replicas' holders
        through the send windows and the stub resolves immediately
        client-side."""
        t = self._tick()
        if not isinstance(event, UserEventStub):
            raise CLError(ErrorCode.CL_INVALID_EVENT, "not a user event")
        if event.resolved:
            raise CLError(ErrorCode.CL_INVALID_OPERATION, "user event status already set")
        self.driver.fanout_holders(
            event, lambda conn: P.SetUserEventStatusRequest(event_id=event.id, status=status)
        )
        event.mark_complete(t, self.clock.now)

    def clRetainEvent(self, event: EventStub) -> None:
        """Bump the event stub's reference count."""
        event.retain()

    def clReleaseEvent(self, event: EventStub) -> None:
        """Drop a reference to the event stub."""
        event.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DOpenCLAPI {self.driver!r}>"
