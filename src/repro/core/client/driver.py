"""The dOpenCL client driver.

"The main task of the client driver is to intercept calls to OpenCL API
functions and redirect them to daemons that own the management objects
which the functions refer to" (Section III-B).

:class:`DOpenCLDriver` owns the connection set (config file,
``clConnectServerWWU``, device-manager assignment), the stub-ID
allocator, compound-stub call replication, coherence transfer plans and
the event-consistency protocol.  Talking to a daemon is delegated to
its :class:`~repro.core.client.resilience.Transport`; what stays here is
*ordering* — how much of a send window must precede an exchange.

It is the **asynchronous forwarding pipeline** (design reference:
``docs/architecture.md``): enqueue-class requests *and creations*
(handle promises: a stub's client-assigned ID is valid before anything
is sent) join a per-connection *send window*, coalesced into one
``CommandBatch`` per daemon; deferred errors surface as ``CLError`` at
a flush point.  Windows are dependency-tracked
(:mod:`repro.core.client.windows`): targeted sync points drain only the
relevant prefixes of the awaited handle's closure
(:meth:`DOpenCLDriver.flush_for_handles`), ``clFlush`` records a
submission barrier (:meth:`DOpenCLDriver.mark_flush_barrier`) and
``clFinish`` drains everything (:meth:`DOpenCLDriver.flush_all`).
Relays, coherence transfers (:meth:`DOpenCLDriver.run_transfer_plans`),
downloads (:meth:`DOpenCLDriver._download`) and read gangs
(:meth:`DOpenCLDriver.read_gang`) ride the same windows.

The paper's synchronous forwarding (Section III-B), the reference path,
is :class:`~repro.core.client.reference.ReferenceDriver`, which
overrides the operations whose behaviour differs; ``deploy_dopencl``
picks the class once, from ``batch_window == 0``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.clc.driver import front_end_outcome
from repro.core.client.connection import (
    DaemonDirectory,
    ServerConnection,
    address_host,
    parse_server_list,
)
from repro.core.client.platform import DOpenCLPlatform
from repro.core.client.windows import WindowCommand, closure
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
from repro.core.client.resilience import RetryPolicy, Transport
from repro.core.coherence.directory import CLIENT, Transfer
from repro.core.coherence.planner import split_transfer_plan
from repro.core.devmgr.config import parse_devmgr_config
from repro.core.protocol import messages as P
from repro.hw.node import Host
from repro.net.gcf import GCFProcess, RequestOutcome
from repro.net.link import ConnectionRefused
from repro.net.network import Network
from repro.net.streams import as_uint8_array
from repro.ocl.constants import (
    CL_COMMAND_READ_BUFFER,
    CL_COMPLETE,
    CL_DEVICE_TYPE_ALL,
    ErrorCode,
)
from repro.ocl.errors import CLError, require
from repro.ocl.memory import check_buffer_args
from repro.sim.clock import VirtualClock

#: Default send-window size: a window is force-flushed once it holds this
#: many deferred commands (sync points flush earlier).
DEFAULT_BATCH_WINDOW = 32

#: Safety bound on the :meth:`DOpenCLDriver.flush_all` drain loop: each
#: pass dispatches every non-empty window, and dispatching can defer new
#: commands (completion relays), so draining iterates until quiescent.
#: Legitimate relay chains are shorter than the command count; hitting
#: this bound means a feedback loop, which is always a bug.
MAX_DRAIN_PASSES = 128


@dataclass
class ProgramBuildRecord:
    """One client-stub build-cache entry: the locally-resolved outcome
    of building ``(source digest, options)``.

    ``kind == "success"`` carries the per-kernel argument metadata
    (:func:`repro.clc.driver.kernel_arg_metadata`); ``kind ==
    "failure"`` carries the deterministic compiler's diagnostics, so a
    replayed failure raises the identical ``CL_BUILD_PROGRAM_FAILURE``
    with the identical build log, without another front-end pass."""

    kind: str  # "success" | "failure"
    kernel_meta: Dict[str, Dict[str, object]] = field(default_factory=dict)
    log: str = ""
    detail: str = ""
    hits: int = 0


@dataclass
class _PendingRead:
    """One ``clEnqueueReadBuffer`` awaiting its bytes, recorded on the
    window graph by :meth:`DOpenCLDriver.record_read`.

    ``event`` is the stub handed back to the application (its
    ``depends_on`` carries ``wait_for`` plus the in-order queue
    predecessor); ``out`` is the caller-visible destination array a
    deferred read's bytes are written into when the fetch lands, or
    ``None`` for a read resolved at once (blocking, or any read under
    ``defer_reads=False``), whose caller copies the client copy itself."""

    buffer: BufferStub
    queue: QueueStub
    event: EventStub
    offset: int
    nbytes: int
    out: object  # np.ndarray, or None when resolved at once
    wait_for: Tuple[EventStub, ...]
    blocking: bool


class DOpenCLDriver:
    """Client driver instance for one application."""

    def __init__(
        self,
        host: Host,
        network: Network,
        directory: Optional[DaemonDirectory] = None,
        clock: Optional[VirtualClock] = None,
        config_text: Optional[str] = None,
        devmgr_config_text: Optional[str] = None,
        device_manager: Optional[object] = None,
        coherence_protocol: str = "msi",
        name: Optional[str] = None,
        batch_window: Optional[int] = None,
        push_transfers: bool = True,
        defer_reads: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        #: Send-window size in application calls (``None``: the default).
        self.window_size = DEFAULT_BATCH_WINDOW if batch_window is None else int(batch_window)
        if self.window_size < 1:
            raise ValueError(
                "a send window holds at least one call; the reference path "
                "(window 0) is ReferenceDriver"
            )
        self.host = host
        self.network = network
        self.directory = directory or DaemonDirectory()
        self.clock = clock if clock is not None else VirtualClock(name=f"{host.name}.app")
        self.gcf = GCFProcess(name or f"client@{host.name}", host, network)
        self.platform = DOpenCLPlatform(self)
        self.config_text = config_text
        self.devmgr_config_text = devmgr_config_text
        self.device_manager = device_manager
        self.coherence_protocol = coherence_protocol
        #: Daemon-initiated predictive replication: launches carry the
        #: planner's push hints and sync points consume staged pushes
        #: (False: pure demand-driven coherence; see ``deploy_dopencl``).
        self.push_transfers = bool(push_transfers)
        #: Non-blocking reads are deferred fetches riding the next
        #: relevant flush (False: resolved at enqueue like a blocking
        #: read, the streaming-bench ablation; see :meth:`record_read`).
        self.defer_reads = bool(defer_reads)
        #: Pending :class:`_PendingRead` records, in enqueue (program)
        #: order.  Drained by :meth:`resolve_deferred_reads`.
        self._deferred_reads: List["_PendingRead"] = []
        #: IDs of *client-local* events (deferred-read events): no daemon
        #: ever registered them, so daemon-bound wait lists must resolve
        #: and drop them (see :meth:`daemon_wait_ids`).
        self._local_event_ids: Set[int] = set()
        # Re-entrancy guard for resolve_deferred_reads: resolution runs
        # flushes and event waits whose hooks would otherwise recurse
        # back into resolution.
        self._resolving_reads = False
        #: ``buffer id -> (completed_at, arrival)``: the daemon-side
        #: completion timestamp and client-side data arrival of the
        #: client-bound download (or staged-push apply) of a buffer
        #: whose read group is resolving — the profiling truth its read
        #: events are resolved with.  :meth:`_resolve_deferred_group`
        #: opens the entry (``None``) and consumes it; a landing for
        #: any other buffer (a gang sibling, a launch's coherence leg)
        #: records nothing.
        self._fetch_completions: Dict[int, Optional[Tuple[float, float]]] = {}
        #: ``buffer id -> transfers`` of the same resolving reads that
        #: have landed on the client (``None``: a staged push landed the
        #: whole copy): a failed read rolls back every other section.
        self._landed: Dict[int, Set[Optional[Transfer]]] = {}
        #: ``buffer id -> (epoch, payload, arrival)``: client-destined
        #: replica bytes that arrived on a completion notification,
        #: awaiting an epoch-validated apply at a sync point.
        self._staged_pushes: Dict[int, Tuple[int, object, float]] = {}
        #: ``buffer id -> epoch`` of the last push hint:
        #: a read of that epoch waits for the push instead of folding
        #: its download into the producer's batch.
        self._client_push_epochs: Dict[int, int] = {}
        #: Every exchange with a daemon, the retry loop (``retry_policy``
        #: ``None``, the default, keeps each a single attempt — zero
        #: overhead, zero wire change) and the deferred-failure stash.
        self.transport = Transport(self.gcf, self.clock, retry_policy, self._on_daemon_lost)
        #: Client-stub build cache: ``(source digest, options) ->``
        #: :class:`ProgramBuildRecord` (the locally-resolved outcome).
        self._program_builds: Dict[Tuple[str, str], ProgramBuildRecord] = {}
        #: Every context created through this driver (registered by the
        #: API layer) — the walk list for replica eviction on daemon
        #: loss.
        self.contexts: List[ContextStub] = []
        self._connections: Dict[str, ServerConnection] = {}
        self._ids = count(1)
        self._events: Dict[int, EventStub] = {}
        self._auto_connected = False
        self.auth_id: Optional[str] = None
        self._install_notification_handlers()

    # ------------------------------------------------------------------
    # ids / bookkeeping
    # ------------------------------------------------------------------
    def new_id(self) -> int:
        """Allocate the next client-unique stub ID."""
        return next(self._ids)

    def register_event(self, stub: EventStub, flush_hook=None) -> EventStub:
        """Enter ``stub`` in the driver's event table — where completion
        notifications, the window graph's closure walk and daemon-loss
        poisoning find it — after attaching ``flush_hook``, the drain its
        ``wait()`` runs first (none for an event born complete)."""
        if flush_hook is not None:
            stub.attach_flush_hook(flush_hook)
        self._events[stub.id] = stub
        return stub

    # ------------------------------------------------------------------
    # client-stub program build cache
    # ------------------------------------------------------------------
    def build_record(self, digest: str, options: str) -> Optional[ProgramBuildRecord]:
        """The locally-cached build outcome for ``(digest, options)``,
        or ``None``."""
        return self._program_builds.get((digest, options))

    def remember_build(self, digest: str, options: str, record: ProgramBuildRecord) -> None:
        """Seed the client-stub cache with a locally-resolved outcome."""
        self._program_builds[(digest, options)] = record

    def connections(self) -> List[ServerConnection]:
        """Every live server connection."""
        return [c for c in self._connections.values() if c.connected]

    def connection(self, name: str) -> ServerConnection:
        """The live connection called ``name`` (CLError when absent)."""
        conn = self._connections.get(name)
        if conn is None:
            raise CLError(ErrorCode.CL_INVALID_SERVER_WWU, f"not connected to {name!r}")
        self.transport.check_usable(conn)
        return conn

    def register_context(self, context: ContextStub) -> None:
        """Record a context for the daemon-loss eviction walk (called by
        the API layer when ``clCreateContext`` succeeds)."""
        self.contexts.append(context)

    def _on_daemon_lost(self, conn: ServerConnection, code: int, reason: str) -> None:
        """The driver's half of a daemon-loss declaration (the transport
        marked the connection dead): poison every unresolved event homed
        on the daemon and evict its replicas from every coherence
        directory.  Never raises — it can run inside a notification
        handler's flush."""
        for stub in self._events.values():
            if stub.owner_server == conn.name and not stub.resolved:
                stub.poisoned = (code, reason)
        for context in self.contexts:
            for buffer in context.live_buffers:
                self.stats.evicted_replicas += buffer.planner.evict(conn.name, reason=reason)

    @property
    def stats(self):
        """The client process's round-trip / wire-byte counters."""
        return self.gcf.stats

    # ------------------------------------------------------------------
    # asynchronous command forwarding (send windows + lazy flush)
    # ------------------------------------------------------------------
    def defer(
        self,
        conn: ServerConnection,
        msg: P.Request,
        raise_errors: bool = True,
        reads: Optional[Iterable[int]] = None,
        writes: Optional[Iterable[int]] = None,
        weight: int = 1,
        payload=None,
    ) -> None:
        """Append a deferrable command to ``conn``'s send window.

        ``reads``/``writes`` annotate the command for the window graph
        (see :mod:`repro.core.client.windows`): the handles it consumes
        and the handles whose production — a completion, written buffer
        data — it is.  When omitted they default to the wire-level
        metadata (:func:`repro.core.protocol.messages.request_handles`),
        with a command's *creations* counting as writes; call sites with
        richer knowledge (kernel launches and their buffer arguments,
        replica bookkeeping that produces nothing) pass explicit sets.
        ``weight``: the application calls the command stands for
        (:class:`~repro.core.client.windows.WindowCommand`); ``payload``:
        the bytes a host write streams behind the batch carrying it.

        The window drains — and a deferred daemon-side failure surfaces
        as ``CLError`` — at the first flush point of the flush-rule
        table in ``docs/architecture.md``: ``clFinish`` (everything),
        a targeted sync point (:meth:`flush_for_handles`), a synchronous
        exchange with its daemon, or :attr:`window_size` application
        calls (:attr:`~repro.core.client.windows.SendWindow.calls`).

        ``raise_errors=False`` is for calls made from inside a
        daemon-to-client callback, where raising would unwind the wrong
        stack: failures are stashed and surface at the next
        client-initiated sync point instead."""
        self.admit(conn, msg)
        default_reads, creates = P.request_handles(msg)
        conn.window.append(
            WindowCommand(
                msg,
                default_reads if reads is None else reads,
                creates if writes is None else writes,
                weight,
                payload,
            )
        )
        if conn.window.calls >= self.window_size and self.transport.dispatch_depth == 0:
            # Overflow flush — suppressed while a dispatch loop is live
            # (see ``Transport.dispatch_depth``): commands deferred mid-dispatch
            # wait for the enclosing drain so they can never overtake a
            # swapped-out batch they causally depend on.
            self.flush_connection(conn, raise_errors=raise_errors)

    def admit(self, conn: ServerConnection, msg: P.Request) -> None:
        """Fail a command :meth:`defer` cannot forward: ``conn`` is lost,
        or ``msg`` is not a deferrable request."""
        self.transport.check_usable(conn)
        if type(msg) not in P.DEFERRABLE:
            raise CLError(
                ErrorCode.CL_INVALID_OPERATION,
                f"{type(msg).__name__} cannot be forwarded asynchronously",
            )

    def flush_connections(
        self, conns: Sequence[ServerConnection], raise_errors: bool = True, tail=None
    ) -> Optional[RequestOutcome]:
        """Dispatch the send windows of ``conns`` — one CommandBatch per
        daemon, all sent at the same client time — then settle every
        deferred command from the batched replies.

        The flush itself is *non-blocking* in virtual time ("the client
        never waits for a communication operation to complete before it
        proceeds", Section III-B): the daemon's CPU timeline serialises
        the batch before anything sent after it, and the synchronous call
        at the sync point is what blocks.  Deferred daemon-side errors
        are raised here when ``raise_errors`` (client-initiated sync
        points; a notification handler's flush leaves them stashed).
        ``tail``: see :meth:`~repro.core.client.resilience.Transport.dispatch_batches`."""
        # Swap every window out first: completion notifications fired
        # while a batch is dispatched may defer/flush more commands,
        # which must land in a fresh window.
        last = self.transport.dispatch_batches(
            [(conn, conn.window.swap_out()) for conn in conns if conn.window], tail
        )
        if raise_errors:
            self.transport.surface_deferred_failure()
        return last

    def flush_connection(self, conn: ServerConnection, raise_errors: bool = True) -> None:
        """Send ``conn``'s window as one CommandBatch and settle the
        deferred outcomes."""
        self.flush_connections([conn], raise_errors=raise_errors)

    def mark_flush_barrier(self, conn: ServerConnection) -> None:
        """Record a ``clFlush`` submission barrier on ``conn``'s send
        window (see :meth:`~repro.core.client.windows.SendWindow.
        mark_barrier`): everything queued for that daemon so far —
        commands of *any* queue, including the windowed FlushRequest
        itself — is ordered ahead of anything issued later, without
        dispatching anything now.  The barrier constrains prefix
        flushing (``SendWindow.barrier_floor``) so targeted sync
        points can never overtake flushed commands with synchronous
        traffic.  A no-op on an empty window."""
        if conn.window.mark_barrier():
            self.stats.flush_barriers += 1

    def flush_all(self, tail=None) -> Optional[RequestOutcome]:
        """Drain every connection's send window (full sync point —
        ``clFinish`` semantics).

        Dispatching a batch can *defer new commands*: a kernel completing
        mid-batch notifies the client, whose handler appends completion
        relays to other servers' (already swapped-out) windows.  A full
        sync point promises that everything forwarded so far — including
        such relays — has reached its daemon, so this loops until all
        windows are empty (bounded by :data:`MAX_DRAIN_PASSES`).  ``tail =
        (connection, request)``: the last batch answered on that
        connection is returned, ordered after everything the drain sent
        there, and ``request`` (unless ``None``) rides every pass's batch
        to it.

        Pending deferred reads whose dependencies the client already
        holds ride the drain: their downloads join the windows first,
        ahead of the ``tail``, and complete after it."""
        settle: list = []
        self.resolve_deferred_reads(settle=settle)
        last = None
        for _ in range(MAX_DRAIN_PASSES):
            targets = [c for c in self._connections.values() if c.connected]
            last = self.flush_connections(targets, raise_errors=False, tail=tail) or last
            if not any(c.window for c in targets):
                break
        else:
            raise CLError(
                ErrorCode.CL_INVALID_OPERATION,
                f"send windows failed to quiesce after {MAX_DRAIN_PASSES} "
                "flush passes (deferred-command feedback loop)",
            )
        # Full sync point: every pending deferred read resolves here —
        # ``clFinish`` promises all forwarded work (fetches included)
        # has completed.
        for complete in settle:
            complete()
        self.resolve_deferred_reads()
        self.transport.surface_deferred_failure()
        return last

    def finish(self, queue: QueueStub) -> None:
        """``clFinish``: drain every window, then learn the queue's
        completion.  An in-order queue still held by the application
        whose last command (``QueueStub.tail_event_id``, the driver's own
        transfers on it included) waits on no user event left unset
        learns it from the completion notification its daemon sends
        anyway: the drain carries no ``FinishRequest``, and once the tail
        resolved the client resumes at that completion's arrival, or at
        the reply to the drain's last batch to the daemon if later
        (``local_finishes``; a stashed failure still raises, a lost
        daemon still fails at ``check_usable``).  A tail the drain left
        unresolved — its notification was lost — sends the Finish alone
        (:meth:`fanout`).  Any other queue (out of order, nothing
        enqueued yet, released, or gated on an unset user event, whose
        Finish answers "deadlock") has its ``FinishRequest`` close every
        pass's batch to its daemon and blocks on the last one's reply
        (``folded_finishes``; earlier ones, which may report a deadlock a
        later relay resolved, are superseded), or sends it alone when
        the drain sent that daemon nothing."""
        conn = queue.server
        local = self._learns_completion(queue)
        finish = None if local else P.FinishRequest(queue_id=queue.id)
        last = self.flush_all((conn, finish))
        tail = self._events.get(queue.tail_event_id)
        if local and tail.resolved and not conn.window:
            self.transport.check_usable(conn)
            self.stats.local_finishes += 1
            self.clock.advance_to(tail.completion_arrival)
            if last is not None:
                self.clock.advance_to(last.reply_arrival)
            return
        if local or last is None or conn.window or not conn.connected:
            self.fanout([conn], lambda c: P.FinishRequest(queue_id=queue.id))
            return
        self.stats.folded_finishes += 1
        self.clock.advance_to(last.reply_arrival)
        if last.responses:  # else every command succeeded, the Finish too
            self.transport.check(last.responses[-1])

    def _learns_completion(self, queue: QueueStub) -> bool:
        """Whether a ``clFinish`` on ``queue`` can learn its completion
        from a notification: the queue is in order and not released, it
        has a tail, and no unresolved event that tail (or, behind a
        driver transfer, the queue's last command) transitively waits on
        is a user event — only the application can set one."""
        if queue.refcount <= 0 or not queue.in_order or queue.tail_event_id is None:
            return False
        stack = [queue.tail_event_id, queue.last_event_id]
        seen = set()
        while stack:
            ev = self._events.get(stack.pop())
            if ev is None or ev.resolved or ev.id in seen:
                continue
            if isinstance(ev, UserEventStub):
                return False
            seen.add(ev.id)
            stack.extend(ev.depends_on)
        return True

    def flush_for_handles(
        self, handles: Iterable[int], raise_errors: bool = True
    ) -> FrozenSet[int]:
        """Targeted sync point: drain only the *relevant prefixes* of
        the windows the given handles transitively depend on.  Returns
        the final pass's relevance set (every handle the closure walk
        visited), so follow-up work — resolving the deferred reads a
        read's drain reached — can reuse it instead of recomputing the
        closure.

        Per closure window, only the prefix up to the last command
        touching a closure handle is dispatched
        (:meth:`~repro.core.client.windows.SendWindow.split_prefix`);
        commands queued after the awaited handles' producers are
        causally unrelated and stay windowed (counted in
        ``NetStats.prefix_flushes`` when a suffix actually remains).

        Re-computes the closure each pass because draining can *extend*
        it — flushing the owner of a cross-server wait chain delivers a
        completion whose relay is deferred right back into a closure
        window.  Windows outside the closure (daemons the awaited
        handles do not depend on) are left untouched; that is the entire
        point of the window graph.  Bounded by
        :data:`MAX_DRAIN_PASSES`."""
        handles = list(handles)
        seen: FrozenSet[int] = frozenset()
        for _ in range(MAX_DRAIN_PASSES):
            windows = {c.name: c.window for c in self.connections()}
            servers, seen = closure(handles, windows, self._events.get)
            batches: List[Tuple[ServerConnection, List[WindowCommand]]] = []
            for name in sorted(servers):
                conn = self._connections.get(name)
                if conn is None or not conn.connected or not conn.window:
                    continue
                prefix = self._split_relevant_prefix(conn, seen)
                if prefix:
                    batches.append((conn, prefix))
            if not batches:
                break
            self.transport.dispatch_batches(batches)
        else:
            raise CLError(
                ErrorCode.CL_INVALID_OPERATION,
                f"dependency closure of {handles} failed to quiesce after "
                f"{MAX_DRAIN_PASSES} flush passes (deferred-command feedback loop)",
            )
        if raise_errors:
            # App-level targeted sync point: deferred reads whose event
            # or buffer the closure walk visited ride this flush (the
            # "next relevant flush" of the deferred-fetch contract).
            # Internal drains (raise_errors=False) stay resolution-free.
            self.resolve_deferred_reads(seen)
            self.transport.surface_deferred_failure()
        return seen

    def _split_relevant_prefix(
        self, conn: ServerConnection, seen
    ) -> List[WindowCommand]:
        """Split off ``conn``'s window prefix relevant to ``seen`` (see
        :meth:`~repro.core.client.windows.SendWindow.split_prefix`),
        counting a ``prefix_flush`` only when a suffix actually remains
        windowed — the single site encoding that accounting rule."""
        prefix = conn.window.split_prefix(seen)
        if prefix and conn.window:
            self.stats.prefix_flushes += 1
        return prefix

    def buffer_sync_handles(self, buffer: BufferStub) -> List[int]:
        """The closure seeds for a sync point targeting ``buffer``: its
        own handle (windowed writers) plus the event of its last
        windowed kernel write — the latter keeps the chain traceable
        when that launch has already been dispatched but still sits
        pending daemon-side on an unresolved cross-server dependency."""
        handles = [buffer.id]
        if buffer.last_write_event is not None:
            handles.append(buffer.last_write_event)
        return handles

    def queue_sync_handles(self, queue: QueueStub) -> List[int]:
        """The closure seeds for a transfer that *enqueues* on
        ``queue``: the queue's handle (its possibly windowed creation)
        plus — on an in-order queue — the event of its most recent
        command.  A transfer enqueued on an in-order queue sits behind
        every prior command of that queue, so the drain must cover the
        chain's unresolved gates (a windowed user-event status relay,
        say) or the transfer waits on a completion that never arrives."""
        handles = [queue.id]
        if queue.in_order and queue.last_event_id is not None:
            handles.append(queue.last_event_id)
        return handles

    def pending_commands(self, name: Optional[str] = None) -> int:
        """Deferred application calls currently windowed (for ``name``, or all)."""
        if name is not None:
            conn = self._connections.get(name)
            return conn.window.calls if conn is not None else 0
        return sum(c.window.calls for c in self._connections.values())

    def window_messages(self, name: str) -> List[P.Request]:
        """The requests currently windowed for connection ``name``, in
        program order (introspection for tests and debugging)."""
        conn = self._connections.get(name)
        return conn.window.messages() if conn is not None else []

    # ------------------------------------------------------------------
    # deferred (non-blocking) reads
    # ------------------------------------------------------------------
    def _record_fetch_completion(
        self, buffer: BufferStub, transfer: Transfer, stub: EventStub, arrival: float
    ) -> None:
        """Remember the profiling truth of a just-landed client-bound
        download of ``buffer``: the daemon-side completion timestamp of
        its registered transfer event (delivered synchronously on the
        completion notification that rode the fetch) and the client-side
        data arrival.  Read events are resolved with these instead of a
        fabricated ``clock.now`` pair; a read assembled from several
        downloads completes with the last of them.  The section is
        noted landed (:attr:`_landed`)."""
        if buffer.id in self._fetch_completions:
            self._landed[buffer.id].add(transfer)
            completed = stub.completed_at if stub.resolved else arrival
            landed = self._fetch_completions[buffer.id]
            self._fetch_completions[buffer.id] = max(landed, (completed, arrival)) if landed else (completed, arrival)

    def daemon_wait_ids(
        self, conn: ServerConnection, wait_for: Optional[Sequence[EventStub]]
    ) -> List[int]:
        """The wait-list ids a command bound for ``conn`` may gate on.  A
        pending deferred-read event in the list is client-local — no
        daemon registered it, so shipping its id would gate the command
        on an event that can never resolve daemon-side.  It is a true
        dependency (the command must run after the read completes), so
        the read resolves here and the id is dropped from the shipped
        list.

        The rest follows the residency rule: an event whose completion
        already reached the client clock gates nothing and is dropped,
        and the others get a replica on ``conn`` (:meth:`hold_replica`)."""
        ids: List[int] = []
        for ev in self.daemon_events(wait_for):
            if not self.arrived(ev):
                self.hold_replica(conn, ev)
                ids.append(ev.id)
        return ids

    def daemon_events(self, wait_for: Optional[Sequence[EventStub]]) -> Iterator[EventStub]:
        """The events of ``wait_for`` a daemon registered, in order; a
        client-local deferred-read event resolves instead (a no-op once
        resolved)."""
        for ev in wait_for or ():
            if ev.id in self._local_event_ids:
                self.resolve_deferred_reads([ev.id])
            else:
                yield ev

    def hold_replica(self, conn: ServerConnection, ev: EventStub) -> None:
        """Create ``ev``'s replica in ``conn``'s window ahead of the
        command about to wait on it there, unless ``conn`` owns or holds
        one.  A stub resolves in host order, so a resolved event may
        still complete later in virtual time: the replica's status relay
        is windowed right behind the creation, timed as the completion
        handler would have timed it."""
        if ev.owner_server == conn.name or conn.name in ev.holders:
            return
        ev.place(conn.name)
        # writes=(): a replica *receives* the completion (via relay)
        # rather than producing it, so it must not appear as the
        # event's producer in the window graph.
        self.defer(
            conn,
            P.CreateUserEventRequest(event_id=ev.id, context_id=ev.context.id),
            writes=(),
        )
        if ev.resolved:
            self.defer(
                conn,
                P.SetUserEventStatusRequest(
                    event_id=ev.id,
                    status=CL_COMPLETE,
                    min_time=ev.completion_arrival + self.network.one_way_latency(),
                ),
                writes=(),
            )
            self.stats.relays_deferred += 1

    def precede(self, conn: ServerConnection, buffers: Iterable[BufferStub]) -> None:
        """Window the creation of every buffer ``conn`` lacks ahead of the
        command about to join its window, or about to be sent after the
        window's flush (the residency rule for every command naming
        buffers)."""
        for buffer in buffers:
            if buffer.place(conn.name):
                self.defer(conn, self.buffer_creation(buffer))

    @staticmethod
    def buffer_creation(buffer: BufferStub) -> P.CreateBufferRequest:
        """The request creating ``buffer``'s copy on a server."""
        return P.CreateBufferRequest(
            buffer_id=buffer.id,
            context_id=buffer.context.id,
            flags=buffer.remote_flags,
            size=buffer.size,
        )

    def check_servers(self, servers: Iterable[ServerConnection]) -> None:
        """Fail on a lost server as a fan-out to ``servers`` would."""
        for conn in servers:
            self.transport.check_usable(conn)

    def fanout_holders(self, obj, make_msg) -> None:
        """Forward a deferrable command about ``obj`` to the servers
        holding it, failing on a lost context server as a fan-out to all
        of them would."""
        servers = obj.context.unique_servers
        self.check_servers(servers)
        self.fanout_deferred([c for c in servers if c.name in obj.holders], make_msg)

    def record_read(
        self,
        queue: QueueStub,
        buffer: BufferStub,
        offset: int,
        nbytes: int,
        wait_for: Optional[Sequence[EventStub]],
        out,
        blocking: bool,
    ) -> EventStub:
        """Record one pending read (the enqueue half of every
        ``clEnqueueReadBuffer``) and return its event.  A deferred read
        (``out`` is its destination) costs zero network traffic and zero
        virtual-time advance, is counted in ``NetStats.deferred_reads``,
        and its event is client-local — no daemon registers it, and
        ``wait()`` resolves the read.  A read resolved at once (``out``
        ``None``) gets a registered event, as any command's, which the
        caller resolves next (:meth:`resolve_deferred_reads`)."""
        stub = EventStub(queue.context, self.new_id(), queue.server.name, CL_COMMAND_READ_BUFFER)
        if out is None:
            self.register_event(stub)
        else:
            self.register_event(stub, lambda stub: self.resolve_deferred_reads([stub.id]))
            self._local_event_ids.add(stub.id)
            self.stats.deferred_reads += 1
        self._deferred_reads.append(
            _PendingRead(buffer, queue, stub, offset, nbytes, out, tuple(wait_for or ()), blocking)
        )
        return stub

    def resolve_deferred_reads(
        self, handles: Optional[Iterable[int]] = None, settle: Optional[list] = None
    ) -> None:
        """Resolve the pending reads whose event or buffer is among
        ``handles`` (stub IDs are client-unique across events and
        buffers, so one ID set names a read event, a wait-list event, a
        buffer about to be overwritten or released, or a flush's whole
        relevance set alike); ``None`` is the full sync point and selects
        every pending read.  A read resolved at once calls it right after
        :meth:`record_read`; a deferred one rides ``EventStub.wait``, a
        write-after-read sync point, a release or ``clFinish``.  The
        selection is closed transitively over event
        dependencies — a read whose ``wait_for`` or queue predecessor is
        another pending read pulls that one into the same group — and the
        whole group resolves in enqueue order, fusing its downloads per
        source daemon (:meth:`_resolve_deferred_group`).

        ``settle`` (a full drain about to run): a group that may ride a
        drain has its downloads windowed for that drain to carry and
        appends its completion here; any other group is left for the
        drain's end.

        Re-entrant calls (resolution drains windows and waits on events,
        whose hooks land back here) are no-ops."""
        if self._resolving_reads or not self._deferred_reads:
            return
        if handles is not None:
            handles = frozenset(handles)
        selected = [
            d
            for d in self._deferred_reads
            if handles is None or d.event.id in handles or d.buffer.id in handles
        ]
        if not selected:
            return
        # Transitive closure over event deps: if a selected read's
        # dependency chain reaches another pending read's event, that
        # read joins the group (waiting on it from inside the group
        # would deadlock against the re-entrancy guard).
        by_event = {d.event.id: d for d in self._deferred_reads}
        group = list(selected)
        member_ids = {d.event.id for d in group}
        frontier = list(group)
        while frontier:
            d = frontier.pop()
            for dep_id in self._dep_closure_ids(d.event):
                other = by_event.get(dep_id)
                if other is not None and other.event.id not in member_ids:
                    member_ids.add(other.event.id)
                    group.append(other)
                    frontier.append(other)
        group.sort(key=lambda d: self._deferred_reads.index(d))
        self._resolve_deferred_group(group, member_ids, settle)

    def _dep_closure_ids(self, stub: EventStub) -> Set[int]:
        """All event ids reachable through ``depends_on`` from ``stub``."""
        seen: Set[int] = set()
        frontier = list(stub.depends_on)
        while frontier:
            eid = frontier.pop()
            if eid in seen:
                continue
            seen.add(eid)
            dep = self._events.get(eid)
            if dep is not None:
                frontier.extend(dep.depends_on)
        return seen

    def _resolve_deferred_group(
        self, group: List[_PendingRead], member_ids: Set[int], settle: Optional[list] = None
    ) -> None:
        """Resolve one dependency-closed group of reads.  Its downloads
        ride the drain of its closure (the queue chains ride it too)
        when no failure is stashed and every event it must follow,
        outside the group, reached the client: the ``wait_for`` events,
        and a deferred read's in-order predecessor unless its download
        rides its own queue on the source daemon.  Otherwise it drains,
        waits those out, then downloads.  A read resolved at once raises
        a failure its drain surfaced before its bytes are credited; a
        blocking one gangs its source's stranded siblings
        (:meth:`read_gang`).  Each
        event completes with the real transfer timestamps; each deferred
        read's array fills.  With ``settle`` (see
        :meth:`resolve_deferred_reads`) the caller's drain does the
        draining and the completion is appended there."""
        # Daemon-loss poisoning: a read whose event was poisoned can
        # never be satisfied — drop it; its wait() raises the poison.
        live = [d for d in group if d.event.poisoned is None]
        for d in group:
            if d.event.poisoned is not None:
                self._deferred_reads.remove(d)
        if not live:
            return
        at_once = any(d.out is None for d in live)
        last = live[-1]
        # A deferred read joins its queue's chain: it completes after its
        # in-order predecessor.  While that has not reached the client,
        # the read downloads on its own queue (if nothing joined it
        # since), which orders the two on the source daemon; else on the
        # source's transfer queue, off the queue's later commands.
        ahead = [
            ev
            for ev in map(self._events.get, last.event.depends_on)
            if ev is not None and ev.id not in member_ids and ev not in last.wait_for and not self.arrived(ev)
        ]
        queue = last.queue if last.out is None or (ahead and last.queue.last_event_id == last.event.id) else None
        ordered = (
            queue is not None
            and queue.server.name in last.buffer.planner.client_download_sources()
            and not self._push_due(last.buffer)
        )
        # What the reads wait for: their wait lists, any predecessor that
        # failed (its wait raises the failure) and a deferred read's
        # predecessor the daemon does not order it behind.  Group members
        # are exempt: they complete together.
        waits = [
            ev
            for d in live
            for ev in map(self._events.get, d.event.depends_on)
            if ev is not None
            and ev.id not in member_ids
            and (ev in d.wait_for or ev.poisoned or (d.out is not None and not (d is last and ordered)))
        ]
        fold = not self.transport.failure_pending and all(map(self.arrived, waits))
        if settle is not None and not fold:
            return
        seeds: List[int] = []
        for d in live:
            seeds.extend(self.buffer_sync_handles(d.buffer))
            seeds.extend(self.queue_sync_handles(d.queue) if d.out is None else [d.event.id])
        unique: List[BufferStub] = list(dict.fromkeys(d.buffer for d in live))
        items: List[Tuple[BufferStub, Sequence[Transfer]]] = []
        self._resolving_reads = True
        try:
            downloads: Optional[list] = None if settle is None else []
            try:
                if not fold:
                    # The downloads must follow the wait lists: drain and
                    # wait them out first.
                    self.flush_for_handles(seeds, raise_errors=at_once)
                    for ev in waits:
                        self.clock.advance_to(ev.wait(self.clock.now))
                # Only the last read can be blocking: it closes its group.
                gang = self.read_gang(last.buffer, seeds, fold) if last.blocking else {}
                for buffer in unique:
                    self._fetch_completions[buffer.id] = None
                    self._landed[buffer.id] = set()
                    plan = buffer.planner.acquire_read("client")
                    if plan:
                        items.append((buffer, plan))
                if items:
                    self.download_reads(
                        items,
                        queue,
                        gang,
                        drain=seeds if fold and settle is None else None,
                        raising=fold and at_once,
                        settle=downloads,
                    )
                elif fold and settle is None:
                    self.flush_for_handles(seeds, raise_errors=at_once)
            except CLError as exc:
                # The group fails once: left pending, it would raise again
                # at every later sync point and fail reads resolved with it.
                self._poison_deferred_group(live, items, exc)
                raise

            def complete() -> None:
                try:
                    for download in downloads or ():
                        download()
                except CLError as exc:
                    self._poison_deferred_group(live, items, exc)
                    raise
                if any(d.out is not None for d in live):
                    self.stats.deferred_read_batches += 1
                now = (self.clock.now, self.clock.now)
                completions = {b.id: self._fetch_completions.pop(b.id, None) or now for b in unique}
                for b in unique:
                    self._landed.pop(b.id, None)
                for d in live:
                    if d.out is not None:
                        d.buffer.copy_out(d.out, d.offset)
                    d.event.mark_complete(*completions[d.buffer.id])
                    if d in self._deferred_reads:
                        self._deferred_reads.remove(d)

            if settle is None:
                complete()
            else:
                for d in live:
                    self._deferred_reads.remove(d)
                settle.append(complete)
        finally:
            self._resolving_reads = False

    def _poison_deferred_group(self, live: List[_PendingRead], items, exc: CLError) -> None:
        """A group resolution failed terminally: poison every member
        event (later waits re-raise deterministically) and drop the
        entries — the fetch cannot be replayed from here.  Each section
        of ``items`` whose own download never landed (the failure
        stopped the group before its daemon's turn; a read assembled
        from two daemons may have landed the other's) rolls back its
        optimistic client acquire, or a later read would take the stale
        client bytes for valid."""
        landed = {d.buffer.id: self._landed.pop(d.buffer.id, set()) for d in live}
        for d in live:
            self._fetch_completions.pop(d.buffer.id, None)
        for buffer, plan in items:
            if None not in landed[buffer.id]:
                for transfer in plan:
                    if transfer not in landed[buffer.id]:
                        buffer.planner.abort_fetch(CLIENT, f"read failed: {exc}", transfer.offset, transfer.nbytes)
        for d in live:
            if d.event.poisoned is None and not d.event.resolved:
                d.event.poisoned = (int(exc.code), str(exc))
            if d in self._deferred_reads:
                self._deferred_reads.remove(d)

    # ------------------------------------------------------------------
    # synchronous exchanges, ordered behind the whole send window
    # ------------------------------------------------------------------
    def fanout(
        self, servers: Sequence[ServerConnection], make_msg, check: bool = True
    ) -> Dict[str, RequestOutcome]:
        """Send ``make_msg(conn)`` to every server and wait for all the
        replies (:meth:`~repro.core.client.resilience.Transport.exchange`),
        each server's send window flushed first so its daemon observes
        every previously issued command before this one.  ``check=False``
        hands error replies back (the build fan-out collects every log)."""
        self.flush_connections(servers)
        return self.transport.request(servers, make_msg, check)

    def roundtrip(self, conn: ServerConnection, msg: P.Request) -> RequestOutcome:
        """:meth:`fanout` of one request to one server."""
        return self.fanout([conn], lambda c: msg)[conn.name]

    def enqueue_write(
        self,
        queue: QueueStub,
        buffer: BufferStub,
        init: P.BufferDataUpload,
        payload,
        blocking: bool,
        wait_for: Optional[Sequence[EventStub]],
    ) -> None:
        """Send a host write of ``payload`` into ``buffer``: ``init`` is
        windowed — after the buffer copy its daemon lacks — like a
        launch, annotated as reading the queue, the buffer and the wait
        list and writing its event and the buffer, and the payload
        streams as a section behind the batch that carries it.  A
        blocking write then drains its event's closure, so the
        application's array has left before the call returns; a
        non-blocking one takes its bytes now."""
        conn = queue.server
        self.precede(conn, [buffer])
        self.defer(
            conn,
            init,
            reads=[queue.id, buffer.id, *(e.id for e in wait_for or ())],
            writes=[init.event_id, buffer.id],
            payload=payload if blocking else payload.copy(),
        )
        if blocking:
            self.flush_for_handles([init.event_id])

    # ------------------------------------------------------------------
    # connection management (Section III-C + IV-B)
    #
    # Session management — handshake + device list, the device-manager
    # lease, teardown — talks to GCF directly: it runs before (or ends)
    # the ServerConnection the transport would flush, retry against and
    # declare dead, and the device manager is no daemon at all.
    # ------------------------------------------------------------------
    def ensure_connected(self) -> None:
        """Automatic connection on first device query (initialisation
        phase): config-file servers plus device-manager assignment."""
        if self._auto_connected:
            return
        self._auto_connected = True
        if self.devmgr_config_text is not None:
            self._request_assignment()
        if self.config_text is not None:
            for address in parse_server_list(self.config_text):
                self.connect_server(address)

    def connect_server(self, address: str, auth_id: Optional[str] = None) -> ServerHandle:
        """``clConnectServerWWU``: handshake + device list fetch."""
        daemon = self.directory.resolve(address)
        name = address_host(address)
        existing = self._connections.get(name)
        if existing is not None and existing.connected:
            return ServerHandle(existing)
        payload = {"auth_id": auth_id} if auth_id is not None else None
        try:
            t = self.gcf.connect(daemon.gcf, self.clock.now, payload=payload)
        except ConnectionRefused as exc:
            raise CLError(ErrorCode.CL_CONNECTION_ERROR_WWU, str(exc)) from exc
        self.clock.advance_to(t)
        outcome = self.gcf.request(
            daemon.gcf, P.ListDevicesRequest(device_type=CL_DEVICE_TYPE_ALL), self.clock.now
        )
        self.clock.advance_to(outcome.reply_arrival)
        resp = self.transport.check(outcome.response)
        conn = ServerConnection(name=name, daemon=daemon, connected_at=t)
        conn.devices = [
            RemoteDevice(self.platform, conn, device_id, info)
            for device_id, info in zip(resp.device_ids, resp.infos)
        ]
        # Wire server-to-server peer links (Section III-F).
        for other in self._connections.values():
            if other.connected and other.daemon is not daemon:
                daemon.peer_daemons[other.daemon.name] = other.daemon
                other.daemon.peer_daemons[daemon.name] = daemon
        self._connections[name] = conn
        return ServerHandle(conn)

    def disconnect_server(self, handle: ServerHandle) -> None:
        """``clDisconnectServerWWU``: devices become unavailable."""
        conn = handle.connection
        if not conn.connected:
            raise CLError(ErrorCode.CL_INVALID_SERVER_WWU, f"{conn.name!r} already disconnected")
        self.flush_connection(conn)  # drain the window before teardown
        t = self.gcf.disconnect(conn.daemon.gcf, self.clock.now)
        self.clock.advance_to(t)
        conn.connected = False
        conn.window.swap_out()  # anything left can never be delivered
        for dev in conn.devices:
            dev.available = False

    def server_info(self, handle: ServerHandle, key: str) -> object:
        """``clGetServerInfoWWU``."""
        outcome = self.roundtrip(handle.connection, P.ServerInfoRequest())
        info = outcome.response.info
        if key not in info:
            raise CLError(ErrorCode.CL_INVALID_VALUE, f"unknown server info key {key!r}")
        return info[key]

    def _request_assignment(self) -> None:
        """Section IV-B: send the XML config's assignment request to the
        device manager, then connect to the assigned servers with the
        lease's authentication ID."""
        devmgr_address, requirements = parse_devmgr_config(self.devmgr_config_text)
        manager = self.device_manager
        if manager is None:
            raise CLError(
                ErrorCode.CL_CONNECTION_ERROR_WWU,
                f"no device manager reachable at {devmgr_address!r}",
            )
        outcome = self.gcf.request(
            manager.gcf,
            P.AssignmentRequest(requirements=[r.to_wire() for r in requirements]),
            self.clock.now,
        )
        self.clock.advance_to(outcome.reply_arrival)
        resp = self.transport.check(outcome.response)
        self.auth_id = resp.auth_id
        for server_name in resp.server_names or []:
            self.connect_server(server_name, auth_id=self.auth_id)

    def release_lease(self) -> None:
        """Return the lease when the application finishes (Section IV-C)."""
        if self.auth_id is None or self.device_manager is None:
            return
        self.flush_all()
        outcome = self.gcf.request(
            self.device_manager.gcf, P.LeaseReleaseRequest(auth_id=self.auth_id), self.clock.now
        )
        self.clock.advance_to(outcome.reply_arrival)
        self.auth_id = None

    # ------------------------------------------------------------------
    # fan-out (compound stub call replication)
    # ------------------------------------------------------------------
    @staticmethod
    def _replicated(servers: Sequence[ServerConnection], make_msg) -> List[P.Request]:
        """Build ``make_msg(conn)`` per server, collapsing field-identical
        replications onto a single shared instance.

        Sharing one instance is what makes the encode cache effective:
        batch assembly (``Message.cached_wire``) encodes it once and
        every further send window hits the cache."""
        msgs = [make_msg(conn) for conn in servers]
        if len(msgs) > 1:
            first = msgs[0]
            try:
                if all(m == first for m in msgs[1:]):
                    return [first] * len(msgs)
            except Exception:  # array-valued fields: ambiguous equality
                pass
        return msgs

    def fanout_deferred(self, servers: Sequence[ServerConnection], make_msg) -> None:
        """Replicate a deferrable command by appending it to every
        target server's send window (no round trips here; outcomes settle
        at the next flush)."""
        if not servers:
            return
        for conn, msg in zip(servers, self._replicated(servers, make_msg)):
            self.defer(conn, msg)

    def forward_creation(self, servers: Sequence[ServerConnection], make_msg) -> None:
        """Forward a creation call as a *handle promise*: the stub's
        client-assigned ID is already valid, so the creation rides the
        send windows like any deferred command and a daemon-side failure
        poisons the provisional ID, surfacing as ``CLError`` at the next
        sync point touching that daemon.

        In the window graph the creation *writes* its provisional handle
        (the default annotation): a sync point seeded with that handle —
        a blocking read of a still-promised buffer — must drain the
        windows holding its creations, both to materialise the object
        and to surface an allocation failure at the point the data is
        consumed.  Event closures stay unaffected: the walk recurses
        only through event handles, and user-event *replica* creations
        (which register an event another server produces) are annotated
        separately as writing nothing."""
        self.fanout_deferred(servers, make_msg)

    # ------------------------------------------------------------------
    # buffers, programs and kernels
    # ------------------------------------------------------------------
    def create_buffer(self, buffer: BufferStub) -> None:
        """``clCreateBuffer`` sends nothing: a copy is created where a
        command first uses the buffer (:meth:`precede`).  The checks a
        daemon would make that need no device memory run here."""
        context = buffer.context
        require(context.refcount > 0, ErrorCode.CL_INVALID_CONTEXT, "context was released")
        check_buffer_args(
            buffer.flags,
            buffer.size,
            min(int(d.get_info("MAX_MEM_ALLOC_SIZE")) for d in context.devices),
        )
        self.check_servers(context.unique_servers)

    def create_program(self, program: ProgramStub) -> None:
        """``clCreateProgramWithSource``: the source rides the send
        windows inline, costing no round trip of its own — the bytes
        travel in the batch the next sync point (usually
        ``clBuildProgram``) sends anyway."""
        self.forward_creation(
            program.context.unique_servers,
            lambda conn: P.CreateProgramWithSourceRequest(
                program_id=program.id, context_id=program.context.id, source=program.source
            ),
        )

    def build_program(self, program: ProgramStub, options: str) -> None:
        """``clBuildProgram``: local metadata, deferred daemon builds.

        The compiler is deterministic, so the client can reproduce the
        daemon's build outcome — kernel metadata on success, the exact
        build log on failure — from one front-end run per ``(digest,
        options)`` pair (shared by every driver in the process, see
        :func:`repro.clc.driver.front_end_outcome`) and replay its own
        record afterwards, with the identical log and error.  The
        front-end pass is modeled as free client-side work; the real
        build cost lands on each daemon's timeline when its windowed
        ``BuildProgramCachedRequest`` dispatches, so the call itself
        costs zero round trips."""
        servers = program.context.unique_servers
        record = self.build_record(program.digest, options)
        if record is None:
            kernel_meta, log = front_end_outcome(program.source, options, program.digest)
            if kernel_meta is None:
                record = ProgramBuildRecord(kind="failure", log=log, detail=log)
            else:
                record = ProgramBuildRecord(kind="success", kernel_meta=kernel_meta)
            self.remember_build(program.digest, options, record)
        else:
            record.hits += 1
            if record.kind == "success":
                self.stats.build_cache_hits += 1
            else:
                self.stats.negative_build_hits += 1
        self.fanout_deferred(
            servers,
            lambda conn: P.BuildProgramCachedRequest(
                program_id=program.id, digest=program.digest, options=options
            ),
        )
        for conn in servers:
            program.build_logs[conn.name] = record.log
        if record.kind == "failure":
            program.build_status = "ERROR"
            raise CLError(
                ErrorCode.CL_BUILD_PROGRAM_FAILURE,
                "; ".join(f"[{conn.name}] {record.detail or record.log}" for conn in servers),
            )
        program.kernel_meta = copy.deepcopy(record.kernel_meta)  # the stub's own
        program.build_status = "SUCCESS"

    def create_kernel(self, kernel: KernelStub) -> None:
        """``clCreateKernel`` sends nothing: a launch carries the
        kernel's creation where it runs (:meth:`launch_carries`), so the
        stub holds its program until its last release."""
        self.check_servers(kernel.context.unique_servers)
        kernel.program.retain()
        kernel.holds_program = True

    def set_kernel_arg(self, kernel: KernelStub, update: P.SetKernelArgRequest) -> None:
        """``clSetKernelArg`` sends nothing: the value, recorded on the
        stub, rides the launches that need it."""
        self.check_servers(kernel.context.unique_servers)

    def launch_carries(self, kernel: KernelStub, server: str) -> Tuple[bool, list]:
        """What a launch of ``kernel`` on ``server`` carries: the
        kernel's creation if ``server`` lacks it, and the argument
        entries not bound there (:meth:`KernelStub.ship_to`)."""
        return kernel.ship_to(server)

    # ------------------------------------------------------------------
    # event consistency (Section III-D)
    # ------------------------------------------------------------------
    def _install_notification_handlers(self) -> None:
        @self.gcf.on_notification(P.EventCompleteNotification)
        def on_event_complete(msg: P.EventCompleteNotification, arrival: float, sender: GCFProcess):
            # Push piggybacks stage before anything else — even when the
            # event stub is already gone (an internal transfer event the
            # client stopped tracking still carries valid staged bytes).
            if msg.push_buffer_ids:
                self._record_pushes(msg, arrival)
            stub = self._events.get(msg.event_id)
            if stub is None:
                return
            stub.mark_complete(msg.completed_at, arrival)
            self.relay_completion(stub, arrival)

    def relay_completion(self, stub: EventStub, arrival: float) -> None:
        """Relay ``stub``'s completion, known at the client at
        ``arrival``, to every replica holder through its server's
        window: program order puts each relay behind its replica's
        creation, failures stash (this runs in a notification handler),
        ``min_time`` keeps the replica from resolving before the word
        could have reached it, and ``writes=()``: the stub is resolved,
        so the window graph never needs to chase the relay."""
        if not stub.holders:
            # No server holds a replica (no command waited cross-server;
            # transfer/read events are client-local).
            self.stats.relays_suppressed += 1
        for name in stub.holders:
            conn = self._connections[name]
            if conn.connected:
                self.defer(
                    conn,
                    P.SetUserEventStatusRequest(
                        event_id=stub.id,
                        status=CL_COMPLETE,
                        min_time=arrival + self.network.one_way_latency(),
                    ),
                    raise_errors=False,
                    writes=(),
                )
                self.stats.relays_deferred += 1

    def flush_for_event(self, stub: EventStub) -> None:
        """An event stub's flush hook: drain exactly the windows its
        resolution depends on, its transitive closure
        (:meth:`flush_for_handles`)."""
        if stub.resolved:
            return
        self.flush_for_handles([stub.id])

    def new_event_stub(self, context: ContextStub, owner_server: Optional[str], command_type: int) -> EventStub:
        """Create an event stub for a command on ``owner_server``; its
        replicas are created where commands wait on it
        (:meth:`daemon_wait_ids`), the other context servers checked as
        a fan-out to them would (:meth:`_replicate`)."""
        stub = self.register_event(
            EventStub(context, self.new_id(), owner_server, command_type), self.flush_for_event
        )
        owner = self._connections.get(owner_server)
        if owner is not None and owner.dead:
            # Born poisoned: _on_daemon_lost swept the events that
            # existed then, and this command's send is about to fail —
            # yet the stub still becomes its in-order queue's last
            # event, so a later waiter must see the loss, not a
            # never-resolving dependency.
            stub.poisoned = (
                int(ErrorCode.CL_DEVICE_NOT_AVAILABLE),
                f"daemon {owner.name!r} died: {owner.dead_reason}",
            )
        replicas = [c for c in context.unique_servers if c.name != owner_server and c.connected]
        self._replicate(stub, replicas)
        return stub

    def _replicate(self, stub: EventStub, servers: Sequence[ServerConnection]) -> None:
        """A new event's replicas on ``servers``: none until a command
        waits there, so only the check that each is usable."""
        self.check_servers(servers)

    def new_user_event_stub(self, context: ContextStub) -> UserEventStub:
        """``clCreateUserEvent``: a user-event stub, with replicas where
        commands wait on it (:meth:`daemon_wait_ids`)."""
        stub = self.register_event(UserEventStub(context, self.new_id()), self.flush_for_event)
        self._replicate(stub, context.unique_servers)
        return stub

    # ------------------------------------------------------------------
    # daemon-initiated pushes (PR 9)
    # ------------------------------------------------------------------
    def note_kernel_write(self, buffer: BufferStub, party: str, offset: int = 0, nbytes: Optional[int] = None) -> None:
        """Record a kernel's write of ``buffer``'s section on ``party``
        with the buffer's planner (directory ``mark_modified`` plus
        epoch/history bookkeeping) and eagerly discard any staged push
        the new epoch just invalidated."""
        buffer.planner.note_kernel_write(party, offset, nbytes)
        self._discard_stale_pushes(buffer)

    def note_host_write(self, buffer: BufferStub, party: str) -> None:
        """Like :meth:`note_kernel_write` for host-supplied writes
        (``clEnqueueWriteBuffer`` / copy destinations): bumps the epoch
        without entering the prediction history."""
        buffer.planner.note_host_write(party)
        self._discard_stale_pushes(buffer)

    def _discard_stale_pushes(self, buffer: BufferStub) -> None:
        """A new write epoch makes any staged push for ``buffer``
        unconsumable (its epoch can never match again): drop it now and
        count the speculation as wasted."""
        if self._staged_pushes.pop(buffer.id, None) is not None:
            self.stats.wasted_pushes += 1

    def plan_push_hints(
        self, buffers: Sequence[BufferStub], server_name: str, written: Dict[int, Tuple[int, int]]
    ) -> Optional[List[Dict[str, object]]]:
        """The push hints riding a kernel launch on ``server_name``
        whose writable arguments are ``buffers``, each writing the
        ``(offset, nbytes)`` section ``written`` names: one hint per
        buffer whose stable producer->consumer edge predicts a push to
        the client (:meth:`~repro.core.coherence.planner.TransferPlanner.
        predict_push_target`) and that the producer will hold valid
        *whole* after the write — the daemon pushes its whole copy, so a
        stale byte outside the section would reach the client.  Each is
        labeled with the epoch the kernel's write is about to create; a
        buffer the launch writes no byte of creates none and gets no
        hint (a later writer's epoch would match its push).
        ``None`` (field omitted from the wire) when pushes are off or
        nothing predicts — the launch encoding is then byte-identical to
        the pre-push format."""
        if not self.push_transfers:
            return None
        hints: List[Dict[str, object]] = []
        seen: Set[int] = set()
        for buffer in buffers:
            if buffer.id in seen or buffer.size <= 0:
                continue
            seen.add(buffer.id)
            if buffer.planner.predict_push_target(server_name) is None:
                continue
            offset, nbytes = written[buffer.id]
            valid = buffer.planner.is_valid
            if not nbytes or not (valid(server_name, 0, offset) and valid(server_name, offset + nbytes, buffer.size - offset - nbytes)):
                continue
            hints.append({"buffer_id": buffer.id, "epoch": buffer.planner.epoch + 1})
            self._client_push_epochs[buffer.id] = buffer.planner.epoch + 1
            self.stats.speculative_pushes += 1
        return hints or None

    def _record_pushes(self, msg: P.EventCompleteNotification, arrival: float) -> None:
        """Stage the push piggyback of a completion notification: the
        payloads park in :attr:`_staged_pushes`.  Nothing is applied
        here — a notification handler must not touch buffer
        bytes or directory state; sync points consume the staging under
        the epoch check.  Overwriting an unconsumed entry counts it
        wasted (a newer push exists only because a newer epoch does,
        so the old entry could never have been applied)."""
        if not self.push_transfers:
            return
        for buffer_id, epoch, payload in zip(msg.push_buffer_ids, msg.push_epochs, msg.push_payloads):
            if self._staged_pushes.pop(buffer_id, None) is not None:
                self.stats.wasted_pushes += 1
            self._staged_pushes[buffer_id] = (epoch, payload, arrival)

    def _apply_staged_push(self, buffer: BufferStub) -> bool:
        """Consume a staged push for ``buffer``: apply
        the bytes and return True iff the staged epoch matches the
        buffer's *current* epoch (no write was enqueued since the push
        was hinted — the bytes are provably the current version).  A
        stale entry is dropped and counted wasted.  Pure check-and-
        apply: never flushes, so the caller's (single) flush is the
        same one the demand path performs."""
        staged = self._staged_pushes.pop(buffer.id, None)
        if staged is None:
            return False
        epoch, payload, arrival = staged
        if epoch != buffer.planner.epoch:
            self.stats.wasted_pushes += 1
            return False
        buffer.adopt(as_uint8_array(payload))
        self.clock.advance_to(arrival)
        # The push's arrival is the transfer-completion truth for the
        # read group this apply satisfies, if one is resolving.
        if buffer.id in self._fetch_completions:
            self._fetch_completions[buffer.id] = (arrival, arrival)
            self._landed[buffer.id].add(None)
        self.stats.push_commits += 1
        return True

    # ------------------------------------------------------------------
    # coherence transfer execution (Section III-D / III-F)
    # ------------------------------------------------------------------
    def internal_queue(self, context: ContextStub, server_name: str) -> QueueStub:
        """Hidden per-(context, server) queue used for protocol transfers
        when the application has no queue on the owning server.  The
        creation is a handle promise like any other: it joins the
        window ahead of the transfer that names the queue, so the
        daemon registers the queue first."""
        queue = context._internal_queues.get(server_name)
        if queue is not None:
            return queue
        devices = context.server_devices[server_name]
        conn = self.connection(server_name)
        stub_id = self.new_id()
        self.forward_creation(
            [conn],
            lambda c: P.CreateQueueRequest(
                queue_id=stub_id,
                context_id=context.id,
                device_id=devices[0].remote_id,
                properties=0,
            ),
        )
        queue = QueueStub(context, stub_id, devices[0], 0)
        context._internal_queues[server_name] = queue
        return queue

    def arrived(self, event: EventStub) -> bool:
        """Whether ``event``'s completion reached the client clock (a stub
        resolves in host order, possibly ahead of its arrival)."""
        return event.resolved and event.completion_arrival <= self.clock.now

    def read_gang(
        self, buffer: BufferStub, handles: Sequence[int], fold: bool
    ) -> Dict[str, List[Tuple[BufferStub, Transfer]]]:
        """The gang a blocking read of ``buffer`` downloads with its own
        bytes, keyed by their download source: the sections the client
        lacks of each sibling of :meth:`read_gang_candidates`, all owned
        by that daemon, with their writers drained unless the read's
        drain carries the download (``fold``, see
        :meth:`_resolve_deferred_group`).  A read a current push serves
        (:meth:`_push_due`) downloads nothing of its own and gangs
        nothing.  Picked before any directory mutates (``client_misses``
        is pure); each section is acquired only if it comes back."""
        source = buffer.planner.client_download_source()
        if source is None or self._push_due(buffer):
            return {}
        siblings = self.read_gang_candidates(buffer, source, handles if fold else None)
        if siblings and not fold:
            self.flush_for_handles([h for s in siblings for h in self.buffer_sync_handles(s)])
        return {source: [(s, t) for s in siblings for t in s.coherence.client_misses()]}

    def read_gang_candidates(
        self, buffer: BufferStub, source: str, handles: Optional[Sequence[int]] = None
    ) -> List[BufferStub]:
        """Sibling buffers a blocking read of ``buffer`` can
        gang-revalidate in the same download: live buffers of the same
        context whose client copy would be downloaded from the same
        ``source`` daemon and whose last windowed writer has already
        *resolved* (an unresolved one may be gated on a pending user
        event).  With ``handles`` — the read's closure seeds, when its
        drain carries the download — a producer windowed in the
        source's relevant prefix counts as resolved: it runs ahead of
        the download, whose section comes back only if it completed."""
        ahead: Set[int] = set()
        conn = self._connections.get(source)
        if handles is not None and conn is not None:
            windows = {c.name: c.window for c in self.connections()}
            relevant = closure(handles, windows, self._events.get)[1]
            for cmd in conn.window.relevant_prefix(relevant):
                ahead.update(cmd.writes)
        candidates: List[BufferStub] = []
        for sibling in buffer.context.live_buffers:
            if sibling is buffer or sibling.size <= 0:
                continue
            if sibling.planner.client_download_source() != source:
                continue
            if sibling.last_write_event is not None:
                stub = self._events.get(sibling.last_write_event)
                if stub is None or not (stub.resolved or stub.id in ahead):
                    continue
            candidates.append(sibling)
        return candidates

    def run_transfer_plans(
        self,
        items: Sequence[Tuple[BufferStub, Sequence[Transfer]]],
        preferred_queue: Optional[QueueStub] = None,
    ) -> None:
        """Execute several buffers' coherence plans (section copies
        between client and servers under MSI, directly between servers
        under MOSI).

        A transfer is always a *section table*: the plans are
        partitioned by :func:`split_transfer_plan` (see there for why
        the regrouping preserves every data dependency) and each route
        group runs through one of three executors — downloads first
        (:meth:`_download`, one download per source daemon), then
        server-to-server hops (:meth:`_peer_transfer`, one round trip
        per (src, dst) pair), then uploads (:meth:`_upload`, windowed
        host writes to each destination daemon) — whatever the group's
        size.  A failed transfer rolls back every server copy the plans
        had not moved yet (:meth:`_abort_unmoved`)."""
        downloads, peers, uploads = split_transfer_plan([(b, plan) for b, plan in items if plan])
        moved: Set[Tuple[int, Transfer]] = set()
        try:
            for src_name, sections in downloads.items():
                self._download(sections, src_name, preferred_queue)
            for (src_name, dst_name), sections in peers.items():
                self._peer_transfer(sections, src_name, dst_name)
                moved.update((b.id, t) for b, t in sections)
            for dst_name, sections in uploads.items():
                self._upload(sections, dst_name, preferred_queue)
                moved.update((b.id, t) for b, t in sections)
        except CLError as exc:
            self._abort_unmoved(items, moved, exc)
            raise

    def download_reads(
        self,
        items: Sequence[Tuple[BufferStub, Sequence[Transfer]]],
        queue: Optional[QueueStub],
        gang: Dict[str, List[Tuple[BufferStub, Transfer]]],
        drain: Optional[Sequence[int]] = None,
        raising: bool = False,
        settle: Optional[list] = None,
    ) -> None:
        """Run a read group's download plans (:meth:`_resolve_deferred_group`):
        one download per source daemon, fused with that daemon's
        ``gang`` (a blocking read's :meth:`read_gang`), so a read whose
        sections are valid on two daemons downloads from each of them,
        riding each one's drain.  A download carrying more than one
        section counts as a ``coalesced_reads``.  ``drain``, ``raising``
        and ``settle`` go to :meth:`_download`."""
        for src_name, sections in split_transfer_plan(items)[0].items():
            named = {b for b, _ in sections}
            group = [*sections, *((b, t) for b, t in gang.get(src_name, ()) if b not in named)]
            if len(group) > 1:
                self.stats.coalesced_reads += 1
                self.stats.coalesced_read_sections += len(group)
            self._download(group, src_name, queue, len(sections), drain, raising, settle)

    @staticmethod
    def _abort_unmoved(items, moved: Set[Tuple[int, Transfer]], exc: CLError) -> None:
        """Roll back the optimistic acquire of every server section a
        plan of ``items`` was to copy and that ``moved`` (``(buffer id,
        transfer)`` pairs) does not name: a failed transfer stopped the
        run before its copy moved, so the directory must not credit it
        (a failed download rolls the client back itself)."""
        for buffer, plan in items:
            for transfer in plan or ():
                if transfer.dst != CLIENT and (buffer.id, transfer) not in moved:
                    buffer.planner.abort_fetch(
                        transfer.dst, f"copy to {transfer.dst!r} failed: {exc}", transfer.offset, transfer.nbytes
                    )

    def _queue_on(self, buffer: BufferStub, server_name: str, preferred: Optional[QueueStub]) -> QueueStub:
        if preferred is not None and preferred.server.name == server_name:
            return preferred
        return self.internal_queue(buffer.context, server_name)

    def _new_transfer_event(self, context: ContextStub, server_name: str) -> EventStub:
        """A replica-less event stub tracking one internal protocol
        transfer (upload/download) on ``server_name``."""
        return self.register_event(
            EventStub(context, self.new_id(), server_name, 0), self.flush_for_event
        )

    def _upload(
        self,
        sections: Sequence[Tuple[BufferStub, Transfer]],
        dst_name: str,
        preferred: Optional[QueueStub],
    ) -> None:
        """Client->server route: each section is a host write
        (:meth:`upload_write`) on the transfer queue, under an internal
        event."""
        queue = self._queue_on(sections[0][0], dst_name, preferred)
        for buffer, transfer in sections:
            init = P.BufferDataUpload(
                buffer_id=buffer.id,
                queue_id=queue.id,
                event_id=self._new_transfer_event(buffer.context, dst_name).id,
                offset=transfer.offset,
                nbytes=transfer.nbytes,
                wait_event_ids=[],
            )
            self.upload_write(queue, buffer, init)
            queue.tail_event_id = init.event_id

    def upload_write(self, queue: QueueStub, buffer: BufferStub, init: P.BufferDataUpload) -> None:
        """Window a coherence upload as :meth:`enqueue_write` windows a
        host write, behind the copy's creation.  Its payload is the
        client copy's lent storage (the section ``init`` names of it; a
        copy held in pieces is merged first): it streams as a section
        behind the batch that carries it, and a later ``write_host``
        copies on write instead of changing the bytes before the flush."""
        self.precede(queue.server, [buffer])
        self.defer(
            queue.server,
            init,
            reads=[queue.id, buffer.id],
            writes=[init.event_id, buffer.id],
            payload=buffer.lend()[init.offset : init.offset + init.nbytes],
        )

    def _push_due(self, buffer: BufferStub) -> bool:
        """Whether a push may carry ``buffer``'s current bytes to the
        client: one is staged, or its producing launch hinted one."""
        return (
            buffer.id in self._staged_pushes
            or self._client_push_epochs.get(buffer.id) == buffer.planner.epoch
        )

    def _download(
        self,
        sections: Sequence[Tuple[BufferStub, Transfer]],
        src_name: str,
        preferred: Optional[QueueStub],
        required: Optional[int] = None,
        drain: Optional[Sequence[int]] = None,
        raising: bool = False,
        settle: Optional[list] = None,
    ) -> None:
        """Server->client route: the group's ``(buffer, transfer)``
        sections ride one ``CoalescedBufferDownload``, one registered
        event per section; sections past the first ``required``
        (default: none) are a read's gang, acquired only if they come
        back.

        The download is gated daemon-side on each buffer's producing
        command, so it drains with the dependency closures of the
        transfer queue (its creation and in-order chain), of each
        buffer and of ``drain`` (raising the drain's failures when
        ``raising``).  It is a window command at the end of the source's
        relevant prefix: the producers' batch and the download are one
        round trip, and each section streams back from its read's
        completion.  ``settle`` leaves the drain to the caller
        (``clFinish``), which runs the appended completion after it."""
        required = len(sections) if required is None else required
        conn = self.connection(src_name)
        queue = self._queue_on(sections[0][0], src_name, preferred)
        handles: List[int] = [*(drain or ()), *self.queue_sync_handles(queue)]
        for buffer, _ in sections:
            handles.extend(self.buffer_sync_handles(buffer))
        remaining, gang = list(sections[:required]), list(sections[required:])
        if any(self._push_due(b) for b, _ in sections):
            # A staged push with the current epoch already carries
            # exactly the bytes its section would download: drain (the
            # push rides the producer's completion), consume it and drop
            # the section; with every section staged the download
            # vanishes.
            self.flush_for_handles(handles, raise_errors=False)
            remaining = [(b, t) for b, t in remaining if not self._apply_staged_push(b)]
            pushed = [b for b in dict.fromkeys(b for b, _ in gang) if self._apply_staged_push(b)]
            for buffer in pushed:
                buffer.planner.acquire_read("client")
            gang = [(b, t) for b, t in gang if b not in pushed]
            if not remaining and not gang:
                return
        group = remaining + gang
        if len(sections) > 1:
            self.stats.coalesced_downloads += 1
            self.stats.coalesced_download_sections += len(group)
        stubs = [self._new_transfer_event(b.context, src_name) for b, _ in group]
        request = P.CoalescedBufferDownload(
            queue_id=queue.id,
            buffer_ids=[b.id for b, _ in group],
            event_ids=[stub.id for stub in stubs],
            nbytes_list=[t.nbytes for _, t in group],
            offsets=[t.offset for _, t in group] if any(t.offset for _, t in group) else None,
        )
        answers: list = []
        command = WindowCommand(
            request,
            handles,
            request.event_ids,
            sink=lambda outcome, index: answers.append((outcome, index, self.stats.batches)),
        )

        def complete() -> None:
            self._settle_download(conn, queue, remaining, gang, stubs, answers, preferred, raising)

        if settle is not None:
            conn.window.append(command)  # the caller drains every window
            settle.append(complete)
            return
        windows = {c.name: c.window for c in self.connections()}
        conn.window.insert(command, closure(handles, windows, self._events.get)[1])
        self.flush_for_handles([*handles, *request.event_ids], raise_errors=False)
        complete()
        if raising:
            try:
                # The read's own sync point: a failure of its drain
                # surfaces here.
                self.transport.surface_deferred_failure()
            except CLError as exc:
                self._abort_downloads(remaining, src_name, exc)

    @staticmethod
    def _abort_downloads(sections: Sequence[Tuple[BufferStub, Transfer]], src_name: str, exc: CLError) -> None:
        """Fail a download from ``src_name``: the directories already
        marked the client's sections valid (``acquire_read`` is
        optimistic) and the bytes never arrived.  A push staged
        meanwhile stays parked: only a *planned* retry read may consume
        it."""
        for buffer, transfer in sections:
            buffer.planner.abort_fetch(
                CLIENT, f"download from {src_name!r} failed: {exc}", transfer.offset, transfer.nbytes
            )
        raise exc

    def _land(self, queue, sections, stubs, answers, gang=()) -> None:
        """Land each returned ``(data, arrival)`` answer, the daemon's
        lent bytes, in its buffer's client copy (a gang section is
        acquired first): a whole section is adopted as the copy's
        storage, a partial one kept as a piece of it (no copy either
        way).  Each transfer event gets its profiling truth; the clock
        moves to the last arrival."""
        for (buffer, transfer), stub, answer in zip(sections, stubs, answers):
            if answer is not None:
                if (buffer, transfer) in gang:
                    buffer.planner.acquire_read("client", transfer.offset, transfer.nbytes)
                if transfer.nbytes == buffer.size:
                    buffer.adopt(answer[0])
                else:
                    buffer.keep_section(transfer.offset, answer[0])
                self._record_fetch_completion(buffer, transfer, stub, answer[1])
                queue.tail_event_id = stub.id
                self.clock.advance_to(answer[1])

    def _settle_download(
        self, conn, queue, remaining, gang, stubs, answers, preferred, raising
    ) -> None:
        """Apply a windowed download's answer (:meth:`_land`).  A section
        the daemon could not read yet (its queue waits on an event) is
        downloaded again when the drain sent further batches after it —
        the wait may have cleared — and otherwise fails the download as
        gated; an unread gang section is simply not revalidated.  A lost
        daemon or an error reply fails it whole, behind the drain's own
        failure when it is ``raising``."""
        try:
            if not answers or answers[0][0] is None:
                self.transport.surface_deferred_failure()
                self.transport.check_usable(conn)
                raise CLError(ErrorCode.CL_DEVICE_NOT_AVAILABLE, f"{conn.name!r} lost a download")
            outcome, index, batches = answers[0]
            response = outcome.responses[index] if outcome.responses else None
            if response is not None and response.error:
                if raising:
                    self.transport.surface_deferred_failure()
                raise CLError(ErrorCode(response.error), response.detail)
            sections = outcome.sections[index]
            unread = [s for s, answer in zip(remaining, sections) if answer is None]
            if unread and self.stats.batches == batches:
                raise CLError(
                    ErrorCode.CL_INVALID_OPERATION, "download gated on an incomplete user event"
                )
        except CLError as exc:
            self._abort_downloads(remaining, conn.name, exc)
        self._land(queue, [*remaining, *gang], stubs, sections, gang)
        if unread:
            try:
                self._download(unread, conn.name, preferred)
            except CLError as exc:
                self._abort_downloads([s for s in remaining if s not in unread], conn.name, exc)

    def _peer_transfer(
        self, sections: Sequence[Tuple[BufferStub, Transfer]], src_name: str, dst_name: str
    ) -> None:
        """Section III-F server-to-server route: the source daemon ships
        the group's sections to the peer in one direct exchange.  The
        hop closes the source's batch (``closes_batch``): when the
        source's window holds commands, they and the hop are one round
        trip; otherwise the hop goes alone."""
        buffers = list(dict.fromkeys(b for b, _ in sections))
        # Like the download path: a source copy may still be owed a
        # write by a dispatched-but-pending command (gated on an event
        # produced elsewhere) — drain the dependency closures so the
        # peer copies ship the completed state.  A closure confined to
        # the source's own window drains in the hop's batch.
        handles: List[int] = []
        for buffer in buffers:
            handles.extend(self.buffer_sync_handles(buffer))
        windows = {c.name: c.window for c in self.connections()}
        if not closure(handles, windows, self._events.get)[0] <= {src_name}:
            self.flush_for_handles(handles, raise_errors=False)
        src = self.connection(src_name)
        # The destination copies are created in its window (a lost source
        # raised above, before any was), and the window may hold commands
        # that must precede the incoming copies (buffer-state order is
        # per-daemon): flush it.
        dst = self._connections.get(dst_name)
        if dst is not None and dst.connected:
            if not dst.dead:
                self.precede(dst, buffers)
            self.flush_connection(dst)
        if len(sections) > 1:
            self.stats.coalesced_peer_transfers += 1
            self.stats.coalesced_peer_transfer_sections += len(sections)
        hop = P.BufferPeerTransferBatch(
            peer_name=dst_name,
            buffer_ids=[b.id for b, _ in sections],
            nbytes_list=[t.nbytes for _, t in sections],
            offsets=[t.offset for _, t in sections] if any(t.offset for _, t in sections) else None,
        )
        last = self.flush_connections([src], raise_errors=False, tail=(src, hop)) if src.window else None
        if last is None:
            self.roundtrip(src, hop)
            return
        self.clock.advance_to(last.reply_arrival)
        self.transport.surface_deferred_failure()
        if last.responses:  # else every command succeeded, the hop too
            self.transport.check(last.responses[-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DOpenCLDriver host={self.host.name!r} "
            f"servers={[c.name for c in self.connections()]} t={self.clock.now:.6f}>"
        )
