"""The dOpenCL client driver.

"The main task of the client driver is to intercept calls to OpenCL API
functions and redirect them to daemons that own the management objects
which the functions refer to" (Section III-B).

This class owns: the connection set (config file, ``clConnectServerWWU``,
device-manager assignment), the unique-ID allocator for stubs, the
fan-out machinery for compound-stub call replication, the execution of
coherence-protocol transfer plans, and the event-consistency protocol
(original event + user-event replicas + completion notifications).
Talking to a daemon is delegated to the driver's :class:`~repro.core.
client.resilience.Transport`; what stays here is *ordering* — how much of
a send window must precede an exchange (all, the relevant prefix, none).

It also owns the **asynchronous command-forwarding pipeline**: enqueue-
class requests (kernel launches, kernel-arg updates, releases, event
status traffic) *and creation calls* (contexts, queues, buffers,
programs, kernels — *handle promises*: the stub's client-assigned ID is
valid before anything is sent) are not round-tripped one by one but
appended to a per-connection *send window* and coalesced into a single
``CommandBatch`` per daemon.  Errors reported by deferred commands
surface as ``CLError`` at a flush point, mirroring how real OpenCL
surfaces asynchronous failures at synchronization.

Windows are **dependency-tracked** (see
:mod:`repro.core.client.windows`): each deferred command records the
handles it reads and writes, so targeted sync points —
``clWaitForEvents`` / ``EventStub.wait`` and blocking transfers — drain
only the relevant *prefixes* (``SendWindow.split_prefix``) of the
windows in the transitive dependency closure of the awaited handle
(:meth:`DOpenCLDriver.flush_for_handles`), ``clFlush`` records a
zero-round-trip **submission barrier** prefix flushing never reorders
across (:meth:`DOpenCLDriver.mark_flush_barrier`), and ``clFinish``
drains everything (:meth:`DOpenCLDriver.flush_all`).  Windows also
flush before any synchronous request or bulk stream to the same daemon
(which preserves per-daemon program order) and when they reach
``batch_window`` commands.

The rest of the pipeline rides the same windows (design reference:
``docs/architecture.md``): event-completion relays join the replica
servers' windows instead of round-tripping; coherence transfers
coalesce per route in every direction
(:meth:`DOpenCLDriver.run_transfer_plans`); and a blocking read that
must download gang-revalidates the sibling dirty buffers stranded on
the same daemon (:meth:`DOpenCLDriver.read_gang_candidates`).

One switch selects all of it: ``batch_window == 0`` is the paper's
synchronous **reference path** as a whole (Section III-B — synchronous
creation fan-outs and bulk-stream program source, one synchronous relay
per replica server, one stream per transfer, one fetch per blocking
read); any positive window runs the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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
from repro.net.streams import as_uint8_array, split_sections
from repro.ocl.constants import (
    CL_COMMAND_READ_BUFFER,
    CL_COMPLETE,
    CL_DEVICE_TYPE_ALL,
    ErrorCode,
)
from repro.ocl.errors import CLError
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
class _DeferredRead:
    """One pending non-blocking read: a deferred-fetch command recorded
    on the window graph by ``clEnqueueReadBuffer(blocking=False)``.

    ``event`` is the stub handed back to the application (its
    ``depends_on`` carries the ``wait_for`` list plus the in-order queue
    predecessor); ``out`` is the caller-visible destination array the
    resolved bytes are written into when the fetch lands."""

    buffer: BufferStub
    queue: QueueStub
    event: EventStub
    offset: int
    nbytes: int
    out: object  # np.ndarray handed back to the caller at enqueue


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
        batch_window: Optional[int] = DEFAULT_BATCH_WINDOW,
        push_transfers: bool = True,
        defer_reads: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        program_cache: bool = True,
    ) -> None:
        if retry_policy is not None and not batch_window:
            raise ValueError(
                "batch_window=0 cannot run under a retry_policy: the reference "
                "path's single creation/enqueue requests carry no replay "
                "identity, so a retried one could execute twice"
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
        #: Send-window size; 0/None selects the synchronous reference
        #: path as a whole (see the module docstring).
        self.batch_window = int(batch_window or 0)
        #: When True (default) the coherence layer is *push-capable*
        #: (PR 9): kernel launches carry the
        #: :class:`~repro.core.coherence.planner.TransferPlanner`'s push
        #: hints, the owning daemon streams predicted replicas at kernel
        #: completion (client-destined copies ride the completion
        #: notification, peer-destined ones the s2s mesh), and the sync
        #: points here *consume* staged pushes — validating the epoch —
        #: instead of orchestrating demand transfers.  False restores
        #: pure demand-driven coherence: no hints, no staging, byte- and
        #: plan-identical to the pre-push directory.
        self.push_transfers = bool(push_transfers)
        #: When True (default) non-blocking ``clEnqueueReadBuffer``
        #: calls are *deferred fetches*: the enqueue records a read-dep
        #: on the buffer's writers (plus any ``wait_for`` events) on the
        #: window graph and returns immediately — zero network traffic,
        #: zero virtual-time advance — and the bytes ride the next
        #: relevant flush as/alongside a ``CoalescedBufferDownload``,
        #: resolving the returned event with the fetch's real
        #: transfer-completion timestamps.  False restores the eager
        #: fetch-at-enqueue behaviour (the streaming-bench ablation,
        #: which serialises compute and readback).
        self.defer_reads = bool(defer_reads)
        #: Pending :class:`_DeferredRead` records, in enqueue (program)
        #: order.  Drained by :meth:`resolve_deferred_reads`.
        self._deferred_reads: List["_DeferredRead"] = []
        #: IDs of *client-local* events (deferred-read events): no daemon
        #: ever registered them, so daemon-bound wait lists must resolve
        #: and drop them (see :meth:`daemon_wait_ids`).
        self._local_event_ids: Set[int] = set()
        # Re-entrancy guard for resolve_deferred_reads: resolution runs
        # flushes and event waits whose hooks would otherwise recurse
        # back into resolution.
        self._resolving_reads = False
        #: ``buffer id -> (completed_at, arrival)``: the daemon-side
        #: completion timestamp and client-side data arrival of the most
        #: recent client-bound download (or staged-push apply) of that
        #: buffer — the profiling truth deferred/blocking read events
        #: are resolved with (see :meth:`pop_fetch_completion`).
        self._fetch_completions: Dict[int, Tuple[float, float]] = {}
        #: ``buffer id -> (epoch, payload, arrival)``: client-destined
        #: replica bytes that arrived on a completion notification,
        #: awaiting an epoch-validated apply at a sync point.
        self._staged_pushes: Dict[int, Tuple[int, object, float]] = {}
        #: ``buffer id -> (epoch, daemon name)``: commit records for
        #: replicas staged *at a peer daemon*, awaiting the deferred
        #: :class:`~repro.core.protocol.messages.PushCommit` a planned
        #: server-to-server leg converts them into.
        self._peer_commits: Dict[int, Tuple[int, str]] = {}
        #: Every exchange with a daemon, the retry loop (``retry_policy``
        #: ``None``, the default, keeps each a single attempt — zero
        #: overhead, zero wire change) and the deferred-failure stash.
        self.transport = Transport(self.gcf, self.clock, retry_policy, self._on_daemon_lost)
        #: When True (default) the client participates in the
        #: content-addressed program build cache: ``clBuildProgram``
        #: resolves kernel-arg metadata locally (a stub-cache hit costs
        #: nothing; a miss runs one local front-end pass) and rides the
        #: send windows as a digest-keyed
        #: ``BuildProgramCachedRequest`` instead of a synchronous
        #: per-server round trip, and a re-created already-built source
        #: rides as a ``CreateProgramCachedRequest`` digest reference
        #: instead of re-shipping inline source.  False restores the
        #: synchronous build fan-out — the ``program_cache`` ablation
        #: flag (deployment-wide: ``deploy_dopencl`` threads the same
        #: value to every daemon).
        self.program_cache = bool(program_cache)
        #: Client-stub build cache: ``(source digest, options) ->``
        #: :class:`ProgramBuildRecord` (the locally-resolved outcome).
        self._program_builds: Dict[Tuple[str, str], ProgramBuildRecord] = {}
        #: digest -> {(server name, connection epoch)} known to hold the
        #: source in their daemon build cache — the safety record behind
        #: digest-reference creations (an epoch bump on reconnect
        #: invalidates the record, because a crashed daemon's cache died
        #: with its process).
        self._digest_servers: Dict[str, Set[Tuple[str, int]]] = {}
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
        or ``None`` (including when the cache flag is off)."""
        if not self.program_cache:
            return None
        return self._program_builds.get((digest, options))

    def remember_build(self, digest: str, options: str, record: ProgramBuildRecord) -> None:
        """Seed the client-stub cache with a locally-resolved outcome."""
        self._program_builds[(digest, options)] = record

    def server_has_digest(self, conn: ServerConnection, digest: str) -> bool:
        """Whether ``conn``'s daemon is known (this connection epoch) to
        retain ``digest``'s source in its build cache — the guard for
        digest-reference creations.  An epoch bump on reconnect
        invalidates the record (the old process's cache is gone)."""
        return (conn.name, conn.epoch) in self._digest_servers.get(digest, ())

    def remember_server_digest(self, conn: ServerConnection, digest: str) -> None:
        """Record that ``conn``'s daemon holds ``digest`` (after a
        build or binary install was windowed to it: per-daemon program
        order guarantees the entry exists before any later
        digest-reference creation replays)."""
        self._digest_servers.setdefault(digest, set()).add((conn.name, conn.epoch))

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
        on the daemon, evict its replicas from every coherence directory
        and drop the commit records it can no longer apply.  Never
        raises — it can run inside a notification handler's flush."""
        for stub in self._events.values():
            if stub.owner_server == conn.name and not stub.resolved:
                stub.poisoned = (code, reason)
        for context in self.contexts:
            for buffer in context.live_buffers:
                if not buffer.released:
                    self.stats.evicted_replicas += buffer.planner.evict(
                        conn.name, reason=reason
                    )
        # Commit records destined for the dead daemon can never be
        # applied (the staged bytes died with its process).
        for buffer_id, (_epoch, target) in list(self._peer_commits.items()):
            if target == conn.name:
                del self._peer_commits[buffer_id]
                self.stats.wasted_pushes += 1

    @property
    def batching_enabled(self) -> bool:
        """The one pipeline switch: True (window size > 0) runs the
        whole forwarding pipeline, False the paper's synchronous
        reference path as a whole (see the module docstring)."""
        return self.batch_window > 0

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

        **Flush-point semantics** — the window the command joins drains
        (and any deferred daemon-side failure surfaces as ``CLError``) at
        the earliest of:

        * ``clFinish`` — a full drain: it loops until *every* window is
          empty, so relays deferred mid-flush also go out;
        * ``clWaitForEvents`` / ``EventStub.wait`` / blocking transfers
          — targeted drains: only the windows in the awaited handle's
          transitive dependency closure flush
          (:meth:`flush_for_handles`); causally unrelated windows stay
          queued;
        * any synchronous request or bulk stream to the same daemon
          (``roundtrip`` / ``fanout`` / ``send_bulk`` flush first,
          preserving per-daemon program order);
        * the window reaching ``batch_window`` commands.

        ``raise_errors=False`` is for calls made from inside a
        daemon-to-client callback, where raising would unwind the wrong
        stack: failures are stashed and surface at the next
        client-initiated sync point instead.

        With batching disabled this degenerates to an immediate
        synchronous round trip (identical outcome, eager error check)."""
        self.transport.check_usable(conn)
        if type(msg) not in P.DEFERRABLE:
            raise CLError(
                ErrorCode.CL_INVALID_OPERATION,
                f"{type(msg).__name__} cannot be forwarded asynchronously",
            )
        if not self.batching_enabled:
            outcome = self.transport.request([conn], lambda c: msg, check=raise_errors)
            self.transport.record_failures([msg], outcome[conn.name])
            return
        default_reads, creates = P.request_handles(msg)
        conn.window.append(
            WindowCommand(
                msg,
                default_reads if reads is None else reads,
                creates if writes is None else writes,
            )
        )
        if len(conn.window) >= self.batch_window and self.transport.dispatch_depth == 0:
            # Overflow flush — suppressed while a dispatch loop is live
            # (see ``Transport.dispatch_depth``): commands deferred mid-dispatch
            # wait for the enclosing drain so they can never overtake a
            # swapped-out batch they causally depend on.
            self.flush_connection(conn, raise_errors=raise_errors)

    def flush_connections(
        self, conns: Sequence[ServerConnection], raise_errors: bool = True
    ) -> None:
        """Dispatch the send windows of ``conns`` — one CommandBatch per
        daemon, all sent at the same client time — then settle every
        deferred command from the batched replies.

        The flush itself is *non-blocking* in virtual time ("the client
        never waits for a communication operation to complete before it
        proceeds", Section III-B): the client clock advances past the
        hand-off to the NIC only.  Ordering with respect to subsequent
        synchronous calls is still guaranteed — the daemon's CPU timeline
        serialises the batch before anything sent after it — and the
        synchronous call at the sync point (finish, wait, blocking
        transfer) is what blocks.  Deferred daemon-side errors are raised
        here when ``raise_errors`` (the client-initiated sync points);
        flushes triggered from notification handlers pass ``False`` and
        the failure surfaces at the next sync point instead."""
        # Swap every window out first: completion notifications fired
        # while a batch is dispatched may defer/flush more commands,
        # which must land in a fresh window.
        self.transport.dispatch_batches(
            [(conn, conn.window.swap_out()) for conn in conns if conn.window]
        )
        if raise_errors:
            self.transport.surface_deferred_failure()

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
        traffic.  A no-op with batching disabled (every command
        already round-tripped) or on an empty window."""
        if self.batching_enabled and conn.window.mark_barrier():
            self.stats.flush_barriers += 1

    def flush_all(self) -> None:
        """Drain every connection's send window (full sync point —
        ``clFinish`` semantics).

        Dispatching a batch can *defer new commands*: a kernel completing
        mid-batch notifies the client, whose handler appends completion
        relays to other servers' (already swapped-out) windows.  A full
        sync point promises that everything forwarded so far — including
        such relays — has reached its daemon, so this loops until all
        windows are empty (bounded by :data:`MAX_DRAIN_PASSES`)."""
        for _ in range(MAX_DRAIN_PASSES):
            targets = [c for c in self._connections.values() if c.connected]
            self.flush_connections(targets, raise_errors=False)
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
        self.resolve_deferred_reads()
        self.transport.surface_deferred_failure()

    def flush_for_handles(
        self, handles: Iterable[int], raise_errors: bool = True
    ) -> FrozenSet[int]:
        """Targeted sync point: drain only the *relevant prefixes* of
        the windows the given handles transitively depend on.  Returns
        the final pass's relevance set (every handle the closure walk
        visited), so follow-up prefix work — a coherence fetch right
        after the drain — can reuse it instead of recomputing the
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
        command.  A daemon-side read/write enqueued on an in-order
        queue sits behind every prior command of that queue, so the
        drain must cover the chain's unresolved gates (e.g. a deferred
        user-event status relay still windowed) or the transfer is
        gated on a completion that can never arrive.  Found by the
        randomized conformance harness: a dispatched-but-pending gated
        kernel on the transfer queue deadlocked every coherence
        download that seeded only the buffer's own handles."""
        handles = [queue.id]
        if queue.in_order and queue.last_event_id is not None:
            handles.append(queue.last_event_id)
        return handles

    def pending_commands(self, name: Optional[str] = None) -> int:
        """Deferred commands currently windowed (for ``name``, or all)."""
        if name is not None:
            conn = self._connections.get(name)
            return len(conn.window) if conn is not None else 0
        return sum(len(c.window) for c in self._connections.values())

    def window_messages(self, name: str) -> List[P.Request]:
        """The requests currently windowed for connection ``name``, in
        program order (introspection for tests and debugging)."""
        conn = self._connections.get(name)
        return conn.window.messages() if conn is not None else []

    # ------------------------------------------------------------------
    # deferred (non-blocking) reads
    # ------------------------------------------------------------------
    def _record_fetch_completion(
        self, buffer: BufferStub, stub: EventStub, arrival: float
    ) -> None:
        """Remember the profiling truth of a just-landed client-bound
        download of ``buffer``: the daemon-side completion timestamp of
        its registered transfer event (delivered synchronously on the
        completion notification that rode the fetch) and the client-side
        data arrival.  Deferred/blocking read events are resolved with
        these instead of a fabricated ``clock.now`` pair."""
        completed = stub.completed_at if stub.resolved else arrival
        self._fetch_completions[buffer.id] = (completed, arrival)

    def pop_fetch_completion(self, buffer_id: int) -> Optional[Tuple[float, float]]:
        """Consume the recorded ``(completed_at, arrival)`` of the most
        recent download of ``buffer_id``, if any (see
        :meth:`_record_fetch_completion`)."""
        return self._fetch_completions.pop(buffer_id, None)

    def new_deferred_read_event(
        self, context: ContextStub, owner_server: str
    ) -> EventStub:
        """The event stub handed back by a deferred non-blocking read.
        Client-local (no replica fan-out — daemons never gate on it) and
        wired so that ``wait()`` resolves the pending fetch instead of
        merely draining windows."""
        stub = self.register_event(
            EventStub(context, self.new_id(), owner_server, CL_COMMAND_READ_BUFFER),
            lambda stub: self.resolve_deferred_reads([stub.id]),
        )
        self._local_event_ids.add(stub.id)
        return stub

    def daemon_wait_ids(
        self, wait_for: Optional[Sequence[EventStub]]
    ) -> List[int]:
        """The wait-list ids a daemon-bound command may gate on.  A
        pending deferred-read event in the list is client-local — no
        daemon registered it, so shipping its id would gate the command
        on an event that can never resolve daemon-side.  It is a true
        dependency (the command must run after the read completes), so
        the read resolves here and the id is dropped from the shipped
        list."""
        ids: List[int] = []
        for ev in wait_for or ():
            if ev.id in self._local_event_ids:
                self.resolve_deferred_reads([ev.id])  # no-op once resolved
            else:
                ids.append(ev.id)
        return ids

    def record_deferred_read(
        self,
        buffer: BufferStub,
        queue: QueueStub,
        event: EventStub,
        offset: int,
        nbytes: int,
        out,
    ) -> None:
        """Record one pending non-blocking read (the enqueue half of the
        deferred-fetch command).  Costs zero network traffic and zero
        virtual-time advance; counted in ``NetStats.deferred_reads``."""
        self._deferred_reads.append(
            _DeferredRead(buffer, queue, event, offset, nbytes, out)
        )
        self.stats.deferred_reads += 1

    def resolve_deferred_reads(self, handles: Optional[Iterable[int]] = None) -> None:
        """Resolve the pending deferred reads whose event or buffer is
        among ``handles`` (stub IDs are client-unique across events and
        buffers, so one ID set names a read event, a wait-list event, a
        buffer about to be overwritten or released, or a flush's whole
        relevance set alike); ``None`` is the full sync point and selects
        every pending read.  The selection is closed transitively over
        event dependencies — a read whose ``wait_for`` names another
        pending read pulls that one into the same group — and the whole
        group resolves in enqueue order, fusing its downloads per source
        daemon exactly like a blocking read's gang.

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
        self._resolve_deferred_group(group, member_ids)

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
        self, group: List[_DeferredRead], member_ids: Set[int]
    ) -> None:
        """Resolve one dependency-closed group of deferred reads: drain
        the reads' window closures, wait out their non-member event
        deps, run the fused coherence fetch, then complete each event
        with the real transfer timestamps and fill the caller-visible
        arrays."""
        # Daemon-loss poisoning: a read whose event was poisoned can
        # never be satisfied — drop it; its wait() raises the poison.
        live = [d for d in group if d.event.poisoned is None]
        for d in group:
            if d.event.poisoned is not None:
                self._deferred_reads.remove(d)
        if not live:
            return
        self._resolving_reads = True
        try:
            seeds: List[int] = []
            for d in live:
                seeds.append(d.event.id)
                seeds.extend(self.buffer_sync_handles(d.buffer))
            self.flush_for_handles(seeds, raise_errors=False)
            # Event deps (wait_for list + in-order queue predecessor):
            # group members are exempt — they complete together below.
            try:
                for d in live:
                    for dep_id in d.event.depends_on:
                        if dep_id in member_ids:
                            continue
                        dep = self._events.get(dep_id)
                        if dep is not None:
                            self.clock.advance_to(dep.wait(self.clock.now))
            except CLError as exc:
                self._poison_deferred_group(live, exc)
                raise
            unique: List[BufferStub] = []
            for d in live:
                if all(b is not d.buffer for b in unique):
                    unique.append(d.buffer)
            for buffer in unique:
                self._fetch_completions.pop(buffer.id, None)
                buffer.planner.note_client_demand()
            items = []
            for buffer in unique:
                plan = buffer.planner.acquire_read("client")
                if plan:
                    items.append((buffer, plan))
            try:
                if items:
                    self.run_transfer_plans(
                        items, preferred_queue=None, read_group=len(items) > 1
                    )
            except CLError as exc:
                self._poison_deferred_group(live, exc)
                raise
            self.stats.deferred_read_batches += 1
            for d in live:
                d.out[:] = d.buffer.data[d.offset : d.offset + d.nbytes]
                completed, arrival = self._fetch_completions.get(
                    d.buffer.id, (self.clock.now, self.clock.now)
                )
                d.event.mark_complete(completed, arrival)
                self._deferred_reads.remove(d)
        finally:
            self._resolving_reads = False

    def _poison_deferred_group(
        self, live: List[_DeferredRead], exc: CLError
    ) -> None:
        """A group resolution failed terminally: poison every member
        event (later waits re-raise deterministically) and drop the
        entries — the fetch cannot be replayed from here."""
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

    def send_bulk(
        self, servers: Sequence[ServerConnection], make_init, payload, nbytes: int
    ) -> Dict[str, RequestOutcome]:
        """Ordered stream-based upload of ``payload`` to every server
        behind its ``make_init(conn)`` exchange (each window is flushed
        first)."""
        self.flush_connections(servers)
        return self.transport.upload(servers, make_init, payload, nbytes)

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

    def fanout_deferred(
        self,
        servers: Sequence[ServerConnection],
        make_msg,
        reads: Optional[Iterable[int]] = None,
        writes: Optional[Iterable[int]] = None,
    ) -> None:
        """Replicate a deferrable command by appending it to every
        target server's send window (no round trips here; outcomes settle
        at the next flush).  ``reads``/``writes`` override the window
        graph annotation of every replica (see :meth:`defer`)."""
        if not servers:
            return
        for conn, msg in zip(servers, self._replicated(servers, make_msg)):
            self.defer(conn, msg, reads=reads, writes=writes)

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
        separately as writing nothing.

        On the reference path (``batch_window == 0``) this is the
        synchronous fan-out, with the error checked eagerly at the call
        site."""
        if self.batching_enabled:
            self.fanout_deferred(servers, make_msg)
        else:
            self.fanout(servers, make_msg)

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
            # With the Section III-F extension the owning daemon already
            # broadcast the status to its peers — skip the client relay.
            owner = self._connections.get(stub.owner_server) if stub.owner_server else None
            if owner is not None and getattr(owner.daemon, "direct_event_broadcast", False):
                return
            if self.batching_enabled and not stub.has_replicas:
                # No server holds a user-event replica of this event
                # (transfer/read events are client-local): a relay would
                # only earn an error Ack from every daemon.  Skip it.
                self.stats.relays_suppressed += 1
                return
            # Replicate the status to the user-event replicas on all other
            # servers of the context.
            for conn in stub.context.unique_servers:
                if conn.name == stub.owner_server or not conn.connected:
                    continue
                if self.batching_enabled:
                    # The relay joins the replica server's send window:
                    # no round trip now, and program order puts it after
                    # the replica's (possibly still windowed)
                    # CreateUserEventRequest.  The window drains at the
                    # next flush point; no raising from inside a
                    # daemon->client callback, so failures stash.
                    # min_time keeps virtual-time causality: the batch
                    # carrying the relay may be modeled as dispatched
                    # before this notification arrived, but the replica
                    # must not resolve before the client learned of the
                    # completion and one hop carried the word onward.
                    # writes=(): the relay reports a completion that
                    # already happened; the stub is resolved, so the
                    # window graph never needs to chase it.
                    self.defer(
                        conn,
                        P.SetUserEventStatusRequest(
                            event_id=msg.event_id,
                            status=CL_COMPLETE,
                            min_time=arrival + self.network.one_way_latency(),
                        ),
                        raise_errors=False,
                        writes=(),
                    )
                    self.stats.relays_deferred += 1
                    continue
                # Reference path: one synchronous request per replica
                # server (its replica's creation already round-tripped).
                self.transport.post(
                    conn,
                    P.SetUserEventStatusRequest(event_id=msg.event_id, status=CL_COMPLETE),
                    arrival,
                )

    def flush_for_event(self, stub: EventStub) -> None:
        """Push out exactly the forwarding the event's resolution depends
        on (the wait-side half of 'event stubs resolve from batch
        replies').

        Dependency-tracked: only the windows in the event's transitive
        closure drain — its owner server, the windowed producers of
        anything its producer waits on (cross-server chains), and the
        relays those flushes defer back into closure windows.  Windows
        of causally unrelated daemons stay queued; relays to replica
        servers outside the closure ride those servers' next flush,
        where per-daemon program order still puts them behind the
        replica's creation."""
        if stub.resolved:
            return
        self.flush_for_handles([stub.id])

    def new_event_stub(self, context: ContextStub, owner_server: Optional[str], command_type: int) -> EventStub:
        """Create an event stub and its user-event replicas on every
        non-owning server of the context.  Replica creation is deferred
        into the send windows (it is enqueue-class traffic)."""
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
        if replicas:
            stub.has_replicas = True
            stub.replica_servers = tuple(c.name for c in replicas)
            # writes=(): a replica *receives* the completion (via relay)
            # rather than producing it, so it must not appear as the
            # event's producer in the window graph.
            self.fanout_deferred(
                replicas,
                lambda conn: P.CreateUserEventRequest(event_id=stub.id, context_id=context.id),
                writes=(),
            )
        return stub

    def replica_broadcast_targets(self, stub: EventStub) -> List[str]:
        """The peer-daemon names a direct-broadcasting owner should push
        ``stub``'s completion to — exactly the servers holding its
        user-event replicas (recorded on the stub when the replicas were
        created), or empty when the owner does not broadcast (Section
        III-F) or the event has no replicas.  Carried on the
        launch/upload message so the daemon never blankets peers outside
        the event's context (which would waste s2s transfers and clog
        the status-before-create buffers with entries no replica will
        ever consume)."""
        if stub.owner_server is None or not stub.has_replicas:
            return []
        conn = self._connections.get(stub.owner_server)
        if conn is None or not getattr(conn.daemon, "direct_event_broadcast", False):
            return []
        return [
            name
            for name in stub.replica_servers
            if name in self._connections and self._connections[name].connected
        ]

    def new_user_event_stub(self, context: ContextStub) -> UserEventStub:
        """``clCreateUserEvent``: a user-event stub with replicas on every
        server of the context (deferred, enqueue-class traffic)."""
        stub = self.register_event(UserEventStub(context, self.new_id()), self.flush_for_event)
        if context.unique_servers:
            stub.has_replicas = True
            stub.replica_servers = tuple(c.name for c in context.unique_servers)
            self.fanout_deferred(
                context.unique_servers,
                lambda conn: P.CreateUserEventRequest(event_id=stub.id, context_id=context.id),
                writes=(),
            )
        return stub

    # ------------------------------------------------------------------
    # daemon-initiated pushes (PR 9)
    # ------------------------------------------------------------------
    def note_kernel_write(self, buffer: BufferStub, party: str) -> None:
        """Record a kernel's whole-object write of ``buffer`` on
        ``party`` with the buffer's planner (directory ``mark_modified``
        plus epoch/history bookkeeping) and eagerly discard any staged
        push the new epoch just invalidated."""
        buffer.planner.note_kernel_write(party)
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
        if self._peer_commits.pop(buffer.id, None) is not None:
            self.stats.wasted_pushes += 1

    def plan_push_hints(
        self, buffers: Sequence[BufferStub], server_name: str
    ) -> Optional[List[Dict[str, object]]]:
        """The push hints riding a kernel launch on ``server_name``
        whose writable arguments are ``buffers``: one hint per buffer
        with a stable producer->consumer edge
        (:meth:`~repro.core.coherence.planner.TransferPlanner.
        predict_push_target`), labeled with the epoch the kernel's
        write is about to create.  ``None`` (field omitted from the
        wire) when pushes are off or nothing predicts — the launch
        encoding is then byte-identical to the pre-push format."""
        if not self.push_transfers:
            return None
        hints: List[Dict[str, object]] = []
        seen: Set[int] = set()
        for buffer in buffers:
            if buffer.id in seen or buffer.size <= 0:
                continue
            seen.add(buffer.id)
            target = buffer.planner.predict_push_target(server_name)
            if target is None:
                continue
            if target != CLIENT:
                dst = self._connections.get(target)
                if dst is None or not dst.connected or dst.dead:
                    continue
            hints.append(
                {
                    "buffer_id": buffer.id,
                    "epoch": buffer.planner.epoch + 1,
                    "target": target,
                }
            )
            self.stats.speculative_pushes += 1
        return hints or None

    def _record_pushes(self, msg: P.EventCompleteNotification, arrival: float) -> None:
        """Stage the push piggyback of a completion notification.

        Client-destined payloads park in :attr:`_staged_pushes`;
        peer-destined commit records in :attr:`_peer_commits`.  Nothing
        is applied here — a notification handler must not touch buffer
        bytes or directory state; sync points consume the staging under
        the epoch check.  Overwriting an unconsumed entry counts it
        wasted (a newer push exists only because a newer epoch does,
        so the old entry could never have been applied)."""
        if not self.push_transfers:
            return
        for buffer_id, epoch, target, payload in zip(
            msg.push_buffer_ids, msg.push_epochs, msg.push_targets, msg.push_payloads
        ):
            if target == CLIENT:
                if self._staged_pushes.pop(buffer_id, None) is not None:
                    self.stats.wasted_pushes += 1
                self._staged_pushes[buffer_id] = (epoch, payload, arrival)
            else:
                dst = self._connections.get(target)
                if dst is None or not dst.connected or dst.dead:
                    # Staged at a daemon this client can no longer
                    # commit to: the speculation is lost.
                    self.stats.wasted_pushes += 1
                    continue
                if self._peer_commits.pop(buffer_id, None) is not None:
                    self.stats.wasted_pushes += 1
                self._peer_commits[buffer_id] = (epoch, target)

    def _apply_staged_push(self, buffer: BufferStub) -> bool:
        """Consume a staged client-destined push for ``buffer``: apply
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
        buffer.data[:] = as_uint8_array(payload)
        self.clock.advance_to(arrival)
        # The push's arrival is the transfer-completion truth for any
        # deferred-read event this apply satisfies.
        self._fetch_completions[buffer.id] = (arrival, arrival)
        self.stats.push_commits += 1
        return True

    def _apply_peer_push(self, buffer: BufferStub, dst_name: str) -> bool:
        """Convert a staged peer push into its deferred
        :class:`~repro.core.protocol.messages.PushCommit`, replacing a
        planned ``src -> dst_name`` demand hop.  The commit joins
        ``dst``'s send window (zero round trips now) annotated as
        writing the buffer handle: per-daemon program order lands the
        apply before any deferred command that reads the replica, so —
        unlike the demand path — no destination flush is needed.
        Returns True iff the epoch check passed and the commit was
        deferred; a stale or undeliverable record is dropped and
        counted wasted."""
        record = self._peer_commits.get(buffer.id)
        if record is None or record[1] != dst_name:
            return False
        del self._peer_commits[buffer.id]
        epoch, _target = record
        if epoch != buffer.planner.epoch:
            self.stats.wasted_pushes += 1
            return False
        dst = self._connections.get(dst_name)
        if dst is None or not dst.connected or dst.dead:
            self.stats.wasted_pushes += 1
            return False
        self.defer(
            dst,
            P.PushCommit(buffer_id=buffer.id, epoch=epoch),
            writes=[buffer.id],
        )
        self.stats.push_commits += 1
        return True

    # ------------------------------------------------------------------
    # coherence transfer execution (Section III-D / III-F)
    # ------------------------------------------------------------------
    def internal_queue(self, context: ContextStub, server_name: str) -> QueueStub:
        """Hidden per-(context, server) queue used for protocol transfers
        when the application has no queue on the owning server.  The
        creation is a handle promise like any other: the bulk stream
        that needs the queue flushes the window first, so the daemon
        registers the queue before the stream init references it."""
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

    def read_gang_candidates(
        self, buffer: BufferStub, source: str
    ) -> List[BufferStub]:
        """Sibling buffers a blocking read of ``buffer`` can
        gang-revalidate in the same fetch: live buffers of the same
        context whose client copy would be downloaded from the same
        ``source`` daemon (:meth:`~repro.core.coherence.directory.
        MSIDirectory.client_download_source`) and whose last windowed
        writer has already *resolved* — an unresolved producer may be
        gated on an event the application controls (a pending user
        event), and fusing it would fail the whole fetch for data the
        caller never asked about.  When ``push_transfers`` is on,
        candidacy is also access-pattern gated
        (:meth:`~repro.core.coherence.planner.TransferPlanner.
        gang_candidate`): a sibling with write history the client never
        demand-reads is server-side working state, not a pending result
        — revalidating it buys nothing.  The gate rides
        ``push_transfers`` because it is the access-pattern half of the
        PR-9 replication schedule: with pushes off the gang is computed
        exactly as before the refactor (the planner-equivalence
        property).  Released buffers are pruned from the context's
        registry on the way through."""
        context = buffer.context
        context.live_buffers = [b for b in context.live_buffers if not b.released]
        candidates: List[BufferStub] = []
        for sibling in context.live_buffers:
            if sibling is buffer or sibling.size <= 0:
                continue
            if sibling.planner.client_download_source() != source:
                continue
            if self.push_transfers and not sibling.planner.gang_candidate():
                continue
            if sibling.last_write_event is not None:
                stub = self._events.get(sibling.last_write_event)
                if stub is None or not stub.resolved:
                    continue
            candidates.append(sibling)
        return candidates

    def run_transfer_plans(
        self,
        items: Sequence[Tuple[BufferStub, Sequence[Transfer]]],
        preferred_queue: Optional[QueueStub] = None,
        read_group: bool = False,
    ) -> None:
        """Execute several buffers' coherence plans (whole-object copies
        between client and servers under MSI, directly between servers
        under MOSI).

        A transfer is always a *section table*: the plans are
        partitioned by :func:`split_transfer_plan` (see there for why
        the regrouping preserves every data dependency) and each route
        group runs through one of three executors — downloads first
        (:meth:`_download`, one fetch per source daemon), then
        server-to-server hops (:meth:`_peer_transfer`, one round trip
        per (src, dst) pair), then uploads (:meth:`_upload`, one stream
        per destination daemon) — whatever the group's size.  What the
        reference path (``batch_window == 0``) changes is the
        *grouping*, not the messages: every transfer is its own
        one-section group, run in plan order.

        ``read_group=True`` marks the items as a read's gang (a
        blocking read's own plan plus its :meth:`read_gang_candidates`,
        or a group of deferred reads): fused download groups are then
        counted in ``NetStats.coalesced_reads`` /
        ``coalesced_read_sections`` on top of the ordinary download
        counters."""
        items = [(buffer, plan) for buffer, plan in items if plan]
        if self.batching_enabled:
            batches = [items]
        else:
            batches = [[(buffer, [t])] for buffer, plan in items for t in plan]
        for batch in batches:
            downloads, peers, uploads = split_transfer_plan(batch)
            for src_name, buffers in downloads.items():
                if read_group and len(buffers) > 1:
                    self.stats.coalesced_reads += 1
                    self.stats.coalesced_read_sections += len(buffers)
                self._download(buffers, src_name, preferred_queue)
            for (src_name, dst_name), buffers in peers.items():
                self._peer_transfer(buffers, src_name, dst_name)
            for dst_name, buffers in uploads.items():
                self._upload(buffers, dst_name, preferred_queue)

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
        buffers: Sequence[BufferStub],
        dst_name: str,
        preferred: Optional[QueueStub],
    ) -> None:
        """Client->server route: the group's whole-object uploads ride
        one bulk stream (one init header, one raw stream, zero-copy: the
        payload is the list of client-side ndarrays, never
        concatenated)."""
        conn = self.connection(dst_name)
        queue = self._queue_on(buffers[0], dst_name, preferred)
        event_ids = [
            self._new_transfer_event(buffer.context, dst_name).id for buffer in buffers
        ]
        sizes = [b.size for b in buffers]
        init = P.CoalescedBufferUpload(
            queue_id=queue.id,
            buffer_ids=[b.id for b in buffers],
            event_ids=event_ids,
            nbytes_list=sizes,
        )
        if len(buffers) > 1:
            self.stats.coalesced_uploads += 1
            self.stats.coalesced_upload_sections += len(buffers)
        self.send_bulk([conn], lambda c: init, [b.data for b in buffers], sum(sizes))

    def _fetch_bulk_prefixed(self, conn: ServerConnection, make_request, seen):
        """Stream-based download that flushes only ``conn``'s window
        prefix relevant to ``seen`` (a relevance set from
        :meth:`flush_for_handles`) instead of the whole window —
        commands queued after the downloaded data's producers stay
        windowed.  ``make_request`` builds the fetch request (and
        registers its transfer-event stubs) once *per attempt*
        (:meth:`~repro.core.client.resilience.Transport.fetch`)."""
        if conn.window:
            prefix = self._split_relevant_prefix(conn, seen)
            if prefix:
                self.transport.dispatch_batches([(conn, prefix)])
        return self.transport.fetch(conn, make_request)

    def _download(
        self,
        buffers: Sequence[BufferStub],
        src_name: str,
        preferred: Optional[QueueStub],
    ) -> None:
        """Server->client route: the group's whole-object downloads ride
        one fetch — one request round trip, one stream back (the payload
        is the daemon's list of per-section arrays, zero-copy, never
        concatenated), one registered event per section."""
        # The download is gated daemon-side on each buffer's producing
        # command: drain the dependency closures first so a
        # dispatched-but-pending writer (waiting on an event produced on
        # another daemon) can complete.  The transfer queue's handles
        # join the seeds so the drain covers its (possibly windowed)
        # creation *and* its in-order command chain — the daemon-side
        # reads enqueue behind every prior command of that queue — and
        # the fetch then pushes out only whatever relevant prefix
        # remains; later, unrelated commands stay windowed.
        conn = self.connection(src_name)
        queue = self._queue_on(buffers[0], src_name, preferred)
        handles: List[int] = self.queue_sync_handles(queue)
        for buffer in buffers:
            handles.extend(self.buffer_sync_handles(buffer))
        seen = self.flush_for_handles(handles, raise_errors=False)
        # A staged push with the current epoch already carries exactly
        # the bytes its section would download: consume it and drop the
        # section; with every section staged the round trip vanishes
        # (the flush above is the same one the demand path performs, so
        # push-off behaviour is untouched).
        remaining = list(buffers)
        if self.push_transfers:
            remaining = [b for b in buffers if not self._apply_staged_push(b)]
            if not remaining:
                return
        sizes = [b.size for b in remaining]
        attempt_stubs: List[EventStub] = []

        def make_request():
            # Fresh transfer events per attempt: the daemon registers
            # the event IDs before streaming data back, so a retried
            # fetch must not replay already-registered IDs.
            attempt_stubs[:] = [
                self._new_transfer_event(buffer.context, src_name)
                for buffer in remaining
            ]
            return P.CoalescedBufferDownload(
                queue_id=queue.id,
                buffer_ids=[b.id for b in remaining],
                event_ids=[stub.id for stub in attempt_stubs],
                nbytes_list=sizes,
            )

        if len(buffers) > 1:
            self.stats.coalesced_downloads += 1
            self.stats.coalesced_download_sections += len(remaining)
        try:
            fetched = self._fetch_bulk_prefixed(conn, make_request, seen)
        except CLError as exc:
            # The directories already marked the client copies valid
            # (acquire_read is optimistic); the bytes never arrived.
            # A push staged meanwhile stays parked: the rollback must
            # not resurrect the optimistic acquire — only a *planned*
            # retry read may consume it.
            for buffer in remaining:
                buffer.planner.abort_client_fetch(
                    f"download from {src_name!r} failed: {exc}"
                )
            raise
        sections = split_sections(fetched.payload, sizes)
        for buffer, data, stub in zip(remaining, sections, attempt_stubs):
            buffer.data[:] = data
            self._record_fetch_completion(buffer, stub, fetched.arrival)

    def _peer_transfer(
        self, buffers: Sequence[BufferStub], src_name: str, dst_name: str
    ) -> None:
        """Section III-F server-to-server route: one round trip makes
        the source daemon ship the group's sections to the peer in one
        direct exchange."""
        # Like the download path: a source copy may still be owed a
        # write by a dispatched-but-pending command (gated on an event
        # produced elsewhere) — drain the dependency closures so the
        # peer copies ship the completed state.
        handles: List[int] = []
        for buffer in buffers:
            handles.extend(self.buffer_sync_handles(buffer))
        self.flush_for_handles(handles, raise_errors=False)
        # Sections already staged at the destination by a current-epoch
        # push commit via their deferred PushCommit and drop out (see
        # :meth:`_apply_peer_push`); push-off leaves the group whole.
        remaining = list(buffers)
        if self.push_transfers:
            remaining = [b for b in buffers if not self._apply_peer_push(b, dst_name)]
            if not remaining:
                return
        src = self.connection(src_name)
        # The destination's window may hold commands that must precede
        # the incoming copies (buffer-state order is per-daemon).
        dst = self._connections.get(dst_name)
        if dst is not None and dst.connected:
            self.flush_connection(dst)
        if len(buffers) > 1:
            self.stats.coalesced_peer_transfers += 1
            self.stats.coalesced_peer_transfer_sections += len(remaining)
        self.roundtrip(
            src,
            P.BufferPeerTransferBatch(
                peer_name=dst_name,
                buffer_ids=[b.id for b in remaining],
                nbytes_list=[b.size for b in remaining],
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DOpenCLDriver host={self.host.name!r} "
            f"servers={[c.name for c in self.connections()]} t={self.clock.now:.6f}>"
        )
