"""The reference path: the paper's synchronous forwarding (Section III-B).

Every intercepted call is a round trip; compound objects are created on
every server of their context at creation; program source and host
writes are bulk streams; each replica server hears of a completion
through a request of its own; each coherence transfer is one stream or
fetch.  :class:`ReferenceDriver` is the conformance ``sync`` oracle and
the figure benches' baseline; ``deploy_dopencl(batch_window=0)`` selects
it.  It overrides the operations of
:class:`~repro.core.client.driver.DOpenCLDriver` whose behaviour differs
by side; where only bookkeeping differs, the residency record carries it
(every context server holds each buffer, kernel and user event from its
creation).  Nothing is windowed here, so every inherited drain finds the
windows empty.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.client.driver import DOpenCLDriver
from repro.core.client.stubs import (
    BufferStub,
    EventStub,
    KernelStub,
    ProgramStub,
    QueueStub,
)
from repro.core.client.connection import ServerConnection
from repro.core.protocol import messages as P
from repro.ocl.constants import CL_COMPLETE, ErrorCode
from repro.ocl.errors import CLError


class ReferenceDriver(DOpenCLDriver):
    """Client driver forwarding every call synchronously."""

    def __init__(self, *args, retry_policy=None, **kwargs) -> None:
        if retry_policy is not None:
            raise ValueError(
                "batch_window=0 cannot run under a retry_policy: the reference "
                "path's single creation/enqueue requests carry no replay "
                "identity, so a retried one could execute twice"
            )
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    # forwarding: one round trip per call
    # ------------------------------------------------------------------
    def defer(self, conn: ServerConnection, msg: P.Request, raise_errors: bool = True, **_graph) -> None:
        """A round trip of its own, its error raised at once (stashed
        under ``raise_errors=False``); the window-graph annotations have
        nothing to annotate."""
        self.admit(conn, msg)
        outcome = self.transport.request([conn], lambda c: msg, check=raise_errors)
        self.transport.record_failures([msg], outcome[conn.name])

    def forward_creation(self, servers: Sequence[ServerConnection], make_msg) -> None:
        """The synchronous creation fan-out, its error raised at the call."""
        self.fanout(servers, make_msg)

    def finish(self, queue: QueueStub) -> None:
        """``clFinish``: settle pending reads, then a ``FinishRequest``
        round trip of its own."""
        self.flush_all()
        self.fanout([queue.server], lambda c: P.FinishRequest(queue_id=queue.id))

    def send_bulk(self, servers: Sequence[ServerConnection], make_init, payload, nbytes: int):
        """Stream ``payload`` to every server behind its ``make_init(conn)``
        exchange (:meth:`~repro.core.client.resilience.Transport.upload`),
        stashed failures raised first."""
        self.flush_connections(servers)
        return self.transport.upload(servers, make_init, payload, nbytes)

    def enqueue_write(self, queue, buffer, init, payload, blocking, wait_for) -> None:
        """A host write streams behind its own init exchange."""
        self.send_bulk([queue.server], lambda c: init, payload, init.nbytes)

    # ------------------------------------------------------------------
    # compound objects, created on every server of the context
    # ------------------------------------------------------------------
    def create_buffer(self, buffer: BufferStub) -> None:
        """One remote copy per server of the context."""
        buffer.holders = dict.fromkeys(buffer.context.server_names)
        self.fanout(buffer.context.unique_servers, lambda conn: self.buffer_creation(buffer))

    def create_program(self, program: ProgramStub) -> None:
        """The source as a bulk stream to every server ("the
        implementation of some OpenCL functions ... includes bulk data
        transfers", Section III-B)."""
        context = program.context
        payload = program.source.encode("utf-8")
        self.send_bulk(
            context.unique_servers,
            lambda conn: P.CreateProgramRequest(
                program_id=program.id, context_id=context.id, source_bytes=len(payload)
            ),
            payload,
            len(payload),
        )

    def build_program(self, program: ProgramStub, options: str) -> None:
        """One synchronous ``BuildProgramRequest`` per server, each a
        fresh compile that never touches a build cache; the replies
        carry the kernel argument metadata and the build logs."""
        outcomes = self.fanout(
            program.context.unique_servers,
            lambda conn: P.BuildProgramRequest(program_id=program.id, options=options),
            check=False,
        )
        failures = []
        for name, outcome in outcomes.items():
            resp = outcome.response
            program.build_logs[name] = resp.log
            if resp.error:
                failures.append((name, resp))
            elif resp.kernels:
                program.kernel_meta = dict(resp.kernels)
        if failures:
            program.build_status = "ERROR"
            raise CLError(
                ErrorCode.CL_BUILD_PROGRAM_FAILURE,
                "; ".join(f"[{name}] {resp.detail or resp.log}" for name, resp in failures),
            )
        program.build_status = "SUCCESS"

    def create_kernel(self, kernel: KernelStub) -> None:
        """The kernel on every server of the context."""
        kernel.holders = {name: {} for name in kernel.context.server_names}
        self.fanout(
            kernel.context.unique_servers,
            lambda conn: P.CreateKernelRequest(
                kernel_id=kernel.id, program_id=kernel.program.id, name=kernel.name
            ),
        )

    def set_kernel_arg(self, kernel: KernelStub, update: P.SetKernelArgRequest) -> None:
        """The update to every server, one round trip each."""
        self.fanout_deferred(kernel.context.unique_servers, lambda conn: update)

    def launch_carries(self, kernel: KernelStub, server: str) -> Tuple[bool, list]:
        """Nothing: every server created the kernel and bound each value."""
        return False, []

    # ------------------------------------------------------------------
    # events: replicas everywhere, synchronous relays
    # ------------------------------------------------------------------
    def _replicate(self, stub: EventStub, servers: Sequence[ServerConnection]) -> None:
        """A user-event replica of ``stub`` on every one of ``servers``."""
        for conn in servers:
            stub.place(conn.name)
        self.fanout_deferred(
            servers,
            lambda conn: P.CreateUserEventRequest(event_id=stub.id, context_id=stub.context.id),
        )

    def daemon_wait_ids(
        self, conn: ServerConnection, wait_for: Optional[Sequence[EventStub]]
    ) -> List[int]:
        """Every daemon-registered event of the list gates the command,
        whether or not its completion already reached the client."""
        ids: List[int] = []
        for ev in self.daemon_events(wait_for):
            self.hold_replica(conn, ev)
            ids.append(ev.id)
        return ids

    def relay_completion(self, stub: EventStub, arrival: float, direct: bool) -> None:
        """Unless the owner broadcast it, one synchronous request per
        other server of the context (each replica's creation already
        round-tripped)."""
        if direct:
            return
        for conn in stub.context.unique_servers:
            if conn.name != stub.owner_server and conn.connected:
                self.transport.post(
                    conn, P.SetUserEventStatusRequest(event_id=stub.id, status=CL_COMPLETE), arrival
                )

    # ------------------------------------------------------------------
    # coherence transfers and reads: one transfer at a time
    # ------------------------------------------------------------------
    def run_transfer_plans(self, items, preferred_queue: Optional[QueueStub] = None, **_fused) -> None:
        """Every transfer is its own one-section group, run in plan
        order: the same executors and messages as the pipeline, only
        the grouping differs.  Nothing rides a drain, and no read has a
        gang."""
        moved = set()
        try:
            for buffer, plan in items:
                for transfer in plan or ():
                    super().run_transfer_plans([(buffer, [transfer])], preferred_queue)
                    moved.add((buffer.id, transfer.dst))
        except CLError as exc:
            self._abort_unmoved(items, moved, exc)
            raise

    def upload_write(self, queue: QueueStub, buffer: BufferStub, init: P.BufferDataUpload) -> None:
        """A coherence upload streams behind its own init exchange, as a
        host write does."""
        self.enqueue_write(queue, buffer, init, buffer.array, True, None)

    def _download(self, buffers: Sequence[BufferStub], src_name: str, preferred, *_fused) -> None:
        """One buffer's download as a fetch of its own (``fetch_bulk``),
        unless a current-epoch push already staged its bytes."""
        (buffer,) = buffers
        conn = self.connection(src_name)
        queue = self._queue_on(buffer, src_name, preferred)
        if self.push_transfers and self._apply_staged_push(buffer):
            return
        stub = self._new_transfer_event(buffer.context, src_name)
        request = P.CoalescedBufferDownload(
            queue_id=queue.id,
            buffer_ids=[buffer.id],
            event_ids=[stub.id],
            nbytes_list=[buffer.size],
        )
        try:
            fetched = self.transport.fetch(conn, request)
        except CLError as exc:
            self._abort_downloads([buffer], src_name, exc)
        (data,) = fetched.payload  # the section's read-only view of the daemon's copy
        self._land(queue, [buffer], [stub], [(data, fetched.arrival)])

    def read_rides_drain(self, wait_for) -> bool:
        """Never: a read drains, then fetches."""
        return False

    def read_gang(self, buffer: BufferStub, handles, fold: bool) -> List[BufferStub]:
        """None: each read fetches its own buffer."""
        return []

    def resolve_deferred_reads(self, handles=None, settle: Optional[list] = None) -> None:
        """Pending reads resolve after a drain, never inside it."""
        if settle is None:
            super().resolve_deferred_reads(handles)
