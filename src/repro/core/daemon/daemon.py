"""The dOpenCL daemon.

"The daemons continuously accept incoming function calls from the client
driver and forward them to their server's OpenCL implementation"
(Section III-B).  Every handler looks up client-assigned IDs in the
registry, replays the call against the native runtime (:mod:`repro.ocl`),
and answers with a response message; command events get a completion
callback that sends an :class:`EventCompleteNotification` back to the
client (the event-consistency protocol of Section III-D).

Enqueue-class traffic additionally arrives coalesced: the client driver's
send window lands here as one ``CommandBatch`` whose envelope is decoded
once, after which each sub-command is charged only the (cheaper)
per-command dispatch cost and replayed through its normal handler in
client program order.  Program-order replay is also the daemon's half of
the ``clFlush`` contract: a windowed ``FlushRequest`` arrives *behind*
every command the flush promised to submit (the client's send window
never reorders across its submission barriers, even when prefix
flushing dispatches a window partially), so by the time the flush
handler runs, its guarantee has already been discharged.  Creation calls arrive the same way (*handle
promises*): program order guarantees a creation replays before anything
that uses its provisional ID, and a failed creation **poisons** that ID
in the registry — later sub-commands depending on it are answered
positionally with the original error, without executing (the
``guard``/``observe`` hooks of ``install_batch_dispatch``).

Event statuses tolerate wire-level reordering: a
``SetUserEventStatusRequest`` (or Section III-F direct broadcast)
arriving before the replica's creation replays is buffered and applied
the moment the replica registers — the daemon-side half of what lets
replica bookkeeping stay in program order instead of being hoisted ahead
of every flush.

In *managed mode* (Section IV-A) the daemon registers its devices with the
central device manager, accepts connections only with a valid
authentication ID, and filters the device list to the devices assigned to
that client's lease.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.core.protocol import messages as P
from repro.hw.node import Host
from repro.net.gcf import GCFProcess
from repro.net.link import ConnectionRefused
from repro.net.network import Network
from repro.net.streams import as_uint8_array, split_sections
from repro.ocl.constants import CL_DEVICE_TYPE_ALL, ErrorCode
from repro.ocl.context import Context
from repro.ocl.errors import CLError
from repro.ocl.event import Event, UserEvent
from repro.ocl.kernel import Kernel
from repro.ocl.memory import Buffer
from repro.ocl.platform import Platform
from repro.ocl.program import Program, build_duration
from repro.ocl.queue import CommandQueue
from repro.clc import LocalMemory
from repro.clc.driver import deserialize_program, kernel_arg_metadata, serialize_program
from repro.clc.errors import CLCompileError
from repro.core.daemon.admission import AdmissionControl, AdmissionPolicy
from repro.core.daemon.buildcache import ProgramBuildCache
from repro.core.daemon.registry import Registry
from repro.sim.errors import CommunicationError


#: Bound on the buffered status-before-create entries **per client**.
#: Every buffered status has a guaranteed consumer — relays land behind
#: the replica's creation in the same window, and direct broadcasts
#: target exactly the replica holders (``replica_servers``) — so the
#: buffer only holds statuses whose creations are in flight and drains
#: at the next batch replay.  Hitting the bound therefore means
#: statuses are outrunning replica creations without bound (a feedback
#: bug, cf. ``MAX_DRAIN_PASSES``), never backpressure.  The overflow
#: policy must stay non-raising all the same: ``deliver_event_status``
#: is also invoked from daemon-side event callbacks (the Section III-F
#: direct broadcast), where an exception would unwind the owning
#: daemon's completion machinery instead of reaching any client — so an
#: overflowing status is *dropped and counted*
#: (``NetStats.dropped_event_statuses``), and the request path turns
#: the drop into an error reply the client can surface.  Bounding per
#: client keeps one runaway client from consuming another client's
#: budget.
PENDING_EVENT_STATUS_LIMIT = 4096

#: Immediate re-send budget for event-completion notifications.  A
#: notification is fired from inside an OpenCL event callback, where an
#: exception would unwind the daemon's completion machinery instead of
#: reaching any client — so a failed send is retried a few times and
#: then *dropped and counted* (``NetStats.lost_notifications``).  A
#: notification lost for good leaves the client-side event stub
#: unresolved, which a later ``wait`` surfaces as the deterministic
#: unresolvable-event error — degraded, never silent corruption.
NOTIFY_RETRY_LIMIT = 3


class Daemon:
    """One dOpenCL daemon on one server host."""

    def __init__(
        self,
        host: Host,
        network: Network,
        name: Optional[str] = None,
        device_manager: Optional[object] = None,
        admission: Optional[AdmissionPolicy] = None,
        program_cache: bool = True,
    ) -> None:
        self.host = host
        self.network = network
        self.gcf = GCFProcess(name or host.name, host, network)
        #: Multi-tenant resource bounds (session cap, per-client registry
        #: quota, status-buffer bound); the default policy is fully
        #: permissive.  See :mod:`repro.core.daemon.admission`.
        self.admission = AdmissionControl(admission)
        # Accepting a client costs real session setup on the server (GCF
        # process objects, per-client state) — part of the init overhead
        # the paper attributes to message-based communication (Fig. 4).
        self.gcf.connect_setup_duration = 2e-3
        self.platform = Platform(host)
        self.registry = Registry()
        self.device_manager = device_manager
        self.managed = device_manager is not None
        #: auth id -> device indexes assigned by the device manager.
        self.auth_devices: Dict[str, Set[int]] = {}
        #: connected client process name -> auth id (managed mode).
        self.client_auth: Dict[str, str] = {}
        #: Benchmark rescaling knob, applied to queues created here.
        self.workload_scale = 1.0
        #: Peer daemons by name, for server-to-server transfers
        #: (Section III-F).  Wired by the client driver on connect.
        self.peer_daemons: Dict[str, "Daemon"] = {}
        #: ``(client name, buffer id) -> (epoch, bytes, available_at)``:
        #: replica bytes pushed here speculatively by the owning daemon
        #: (:class:`~repro.core.protocol.messages.PeerPushRequest`),
        #: parked until the client's deferred
        #: :class:`~repro.core.protocol.messages.PushCommit` validates
        #: the epoch and applies them.  A newer push for the same key
        #: overwrites (the commit for the older one would fail its epoch
        #: check anyway); volatile — dies with :meth:`crash`.
        self._push_staging: Dict[Tuple[str, int], Tuple[int, bytes, float]] = {}
        #: Section III-F extension: when True, this daemon broadcasts event
        #: completions directly to the peer daemons holding the user-event
        #: replicas ("event status can be broadcasted directly by the
        #: server that owns the original event") instead of relying on the
        #: client to relay them.
        self.direct_event_broadcast = False
        #: client -> {event_id: (status, time)}: statuses that arrived
        #: before the replica's deferred creation replayed (relay or
        #: broadcast overtaking a still-windowed CreateUserEventRequest);
        #: applied — with the buffered time as causality floor — the
        #: moment the replica registers.  Bounded per client (see
        #: :data:`PENDING_EVENT_STATUS_LIMIT`); a second status for the
        #: same replica keeps the *later* causality floor.
        self._pending_event_status: Dict[str, "OrderedDict[int, Tuple[int, float]]"] = {}
        #: Content-addressed program build cache (``None`` when the
        #: deployment-wide ``program_cache`` ablation flag is off): one
        #: compile per unique ``(source digest, options)`` per daemon,
        #: with binaries shipped to :attr:`peer_daemons` so steady-state
        #: builds drop to one per *cluster*.  See
        #: :mod:`repro.core.daemon.buildcache`.
        self.program_cache = bool(program_cache)
        self.buildcache: Optional[ProgramBuildCache] = (
            ProgramBuildCache() if program_cache else None
        )
        #: Bumped by :meth:`crash`: which "life" of the process this is.
        self.incarnation = 0
        self._install_handlers()

    # ------------------------------------------------------------------
    def deliver_event_status(self, client: str, event_id: int, status: int, t: float) -> bool:
        """Apply a user-event status now, or buffer it until the
        replica's in-flight creation registers (see class docstring).

        Returns ``False`` when the status had to be *dropped* because
        ``client``'s status-before-create buffer is full
        (:data:`PENDING_EVENT_STATUS_LIMIT`); the drop is counted in
        ``NetStats.dropped_event_statuses``.  Callers on the request
        path turn that into an error reply; the broadcast-callback path
        must never raise from inside a daemon's event callback, so
        there the counted drop is the whole policy.

        Two statuses can legitimately arrive for the same replica before
        its creation replays — a deferred relay racing a Section III-F
        direct broadcast — and each carries its own causality floor; the
        buffered entry keeps the *first* status value (the applied-path
        rule: a resolved replica ignores later updates) with the
        **maximum** of the two times, so the replica can never resolve
        earlier than the latest constraint either source established.

        Residual limitation: a status arriving for an id that was
        registered and then *released* cannot be told apart from a
        not-yet-created one and lingers until disconnect — unreachable
        through the current API (event releases are client-local),
        bounded by the per-client limit."""
        obj = self.registry.peek(client, event_id)
        if isinstance(obj, UserEvent):
            if not obj.resolved:
                obj.set_status(status, t)
            return True
        if obj is not None:
            return True  # registered, but not a replica: nothing to update
        if self.registry.poison_info(client, (event_id,)) is not None:
            return True  # the replica's creation failed: no consumer, ever
        if client not in self.gcf.peers:
            # The client disconnected (its namespace here is gone, and
            # IDs are never reused): no creation can ever consume the
            # status — dropping it mirrors the disconnect cleanup.
            return True
        pending = self._pending_event_status.setdefault(client, OrderedDict())
        buffered = pending.get(event_id)
        if buffered is not None:
            # Second status for the same in-flight replica: the *first*
            # status value wins — exactly as on the applied path, where
            # a resolved replica ignores later updates — but the entry
            # keeps the later causality floor (discarding it would let
            # the replica resolve before the slower of the two sources
            # allows).
            status_buffered, t_buffered = buffered
            pending[event_id] = (status_buffered, max(t_buffered, t))
            return True
        if len(pending) >= self.admission.status_limit(PENDING_EVENT_STATUS_LIMIT):
            self.gcf.stats.dropped_event_statuses += 1
            return False
        pending[event_id] = (status, t)
        return True

    def _pop_pending_status(self, client: str, event_id: int) -> Optional[Tuple[int, float]]:
        """Remove and return ``client``'s buffered status for
        ``event_id`` (``None`` when nothing is buffered); empty
        per-client tables are discarded."""
        pending = self._pending_event_status.get(client)
        if pending is None:
            return None
        entry = pending.pop(event_id, None)
        if not pending:
            del self._pending_event_status[client]
        return entry

    def pending_event_statuses(self, client: str) -> int:
        """How many statuses are buffered ahead of their replica
        creations for ``client`` (introspection for tests/debugging)."""
        return len(self._pending_event_status.get(client, ()))

    def _admit_object(self, client: str) -> None:
        """Admission gate for every explicit creation handler: raises
        ``CL_OUT_OF_RESOURCES`` (counted in
        ``NetStats.quota_rejections``) when ``client`` is at its
        registry quota.  Raising inside the handler's ``try`` turns the
        rejection into an ordinary error reply, which the deferred-
        creation machinery poisons like any other failed creation."""
        try:
            self.admission.check_create(client, self.registry.count(client))
        except CLError:
            self.gcf.stats.quota_rejections += 1
            raise

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The daemon's GCF process name."""
        return self.gcf.name

    def crash(self) -> None:
        """Simulate a hard daemon failure (process killed, host still up).

        All volatile state dies with the process: the object registry
        (every buffer, program, kernel, queue, event — and their data),
        the status-before-create buffers, the client sessions and their
        auth mappings, and the GCF peer table.  Clearing ``gcf.peers``
        is what the client driver's liveness probe observes
        (``Transport.attempt``), so a crash is detected as an
        immediate connection reset rather than a timeout.  The
        incarnation counter lets tests distinguish pre- and post-crash
        state after a :meth:`restart`."""
        self.registry = Registry()
        self._pending_event_status.clear()
        self._push_staging.clear()
        self.client_auth.clear()
        self.auth_devices.clear()
        self.gcf.peers.clear()
        if self.program_cache:
            # The build cache dies with the process (it is in-memory
            # state); reconnecting clients re-ship inline source because
            # their per-(server, epoch) stub records no longer match.
            self.buildcache = ProgramBuildCache()
        self.incarnation += 1

    def restart(self, t: float = 0.0) -> float:
        """Bring a crashed daemon back up with empty state.

        The registry and sessions were already wiped by :meth:`crash`;
        a restart re-runs managed-mode registration (a fresh process
        re-announcing its devices) and then **rehydrates the program
        build cache** from one sibling daemon over the s2s mesh
        (:meth:`_rehydrate_build_cache`) — the cluster binary registry
        outlives any single daemon, so reconnecting clients hit warm
        builds instead of recompiling.  Clients must still reconnect —
        their old sessions died with the process, and a reconnecting
        driver bumps its connection ``epoch`` so replayed batches from
        the previous life can never dedupe against the new one."""
        t = self.start(t)
        return self._rehydrate_build_cache(t)

    def start(self, t: float = 0.0) -> float:
        """Register with the device manager when in managed mode; returns
        the time startup completes."""
        if not self.managed:
            return t
        ids = list(range(len(self.platform.devices)))
        infos = [self._encode_info(d.info()) for d in self.platform.devices]
        outcome = self.gcf.request(
            self.device_manager.gcf, P.RegisterDaemonRequest(device_ids=ids, infos=infos), t
        )
        return outcome.reply_arrival

    @staticmethod
    def _encode_info(info: Dict[str, object]) -> Dict[str, object]:
        return {k: (bool(v) if isinstance(v, bool) else v) for k, v in info.items()}

    @staticmethod
    def _kernel_metadata(program: Program) -> Dict[str, Dict[str, object]]:
        """Argument metadata for every kernel of a built program — the
        payload of ``BuildProgramResponse.kernels`` (see
        :func:`repro.clc.driver.kernel_arg_metadata`, shared with the
        client's local cache-hit resolution so the two can never
        drift)."""
        return kernel_arg_metadata(program.require_built())

    # ------------------------------------------------------------------
    # program build cache (see repro.core.daemon.buildcache)
    # ------------------------------------------------------------------
    def _ship_build_entry(self, entry, t: float) -> None:
        """Push a freshly-resolved build outcome into every sibling
        daemon's build cache (the cluster binary registry): one
        ``s2s-binary`` transfer per peer that lacks the key, counted in
        ``binaries_shipped``.  Negative entries ship too, so a failing
        source is also compiled once per cluster.  Best-effort — a
        partitioned peer simply compiles for itself later."""
        for peer in self.peer_daemons.values():
            if peer is self or peer.buildcache is None:
                continue
            try:
                self.network.transfer(self.host, peer.host, t, entry.nbytes, tag="s2s-binary")
            except CommunicationError:
                continue
            if peer.buildcache.install_entry(entry):
                self.gcf.stats.binaries_shipped += 1

    def _rehydrate_build_cache(self, t: float) -> float:
        """Repopulate an empty (post-:meth:`crash`) build cache from the
        first reachable sibling daemon that has entries: one
        ``s2s-binary`` transfer per adopted entry, counted in
        ``NetStats.cache_entries_rehydrated``.  Siblings are tried in
        name order for determinism; a partitioned sibling is skipped
        (best-effort, like :meth:`_ship_build_entry`).  Returns the time
        the rehydration traffic lands."""
        if self.buildcache is None:
            return t
        for peer in sorted(self.peer_daemons.values(), key=lambda d: d.name):
            if peer is self or peer.buildcache is None:
                continue
            entries = peer.buildcache.entries()
            if not entries:
                continue
            adopted = 0
            try:
                for entry in entries:
                    t = self.network.transfer(
                        peer.host, self.host, t, entry.nbytes, tag="s2s-binary"
                    )
                    if self.buildcache.install_entry(entry):
                        self.gcf.stats.cache_entries_rehydrated += 1
                        adopted += 1
            except CommunicationError:
                continue  # partitioned mid-pull: try the next sibling
            if adopted:
                return t
        return t

    def _resolve_build(
        self, program: Program, options: str, t: float
    ) -> Tuple[P.BuildProgramResponse, float]:
        """Build ``program`` through the content-addressed cache.

        Cache hit (binary or shipped): adopt the compiled program, zero
        compile time.  Negative hit: replay the identical failure, zero
        compile time.  Miss (or cache disabled): invoke the compiler,
        charge ``build_duration`` on this daemon's timeline, and — when
        caching — store the outcome and ship it to the sibling daemons.
        Every path answers a complete :class:`BuildProgramResponse`;
        the cached-build handler collapses it to an Ack."""
        stats = self.gcf.stats
        cache = self.buildcache
        if cache is not None:
            entry = cache.lookup(program.digest, options)
            if entry is not None:
                stats.build_seconds_saved += build_duration(program.source)
                if entry.kind == "binary":
                    stats.build_cache_hits += 1
                    program.adopt(entry.compiled, options)
                    return (
                        P.BuildProgramResponse(
                            status="SUCCESS", log="", kernels=self._kernel_metadata(program)
                        ),
                        t,
                    )
                stats.negative_build_hits += 1
                program.adopt_failure(entry.log, options)
                return (
                    P.BuildProgramResponse(
                        status="ERROR",
                        log=entry.log,
                        error=entry.error,
                        detail=entry.detail,
                    ),
                    t,
                )
            stats.programs_built += 1
        # Reserve the compile on the daemon CPU timeline (first-fit
        # allocation would otherwise let later batches slide into the
        # gap and run dependent commands before the build completes —
        # the legacy path never hit this because the client blocked on
        # the build reply).
        duration = build_duration(program.source)
        iv = self.gcf.cpu.allocate(t, duration, "ProgramBuild")
        done = iv.end
        try:
            program.build(options, t)
        except CLError as exc:
            if cache is not None:
                failure = cache.store_failure(
                    program.source, options, program.build_log, exc.code.value, exc.message
                )
                self._ship_build_entry(failure, done)
            return (
                P.BuildProgramResponse(
                    status="ERROR",
                    log=program.build_log,
                    error=exc.code.value,
                    detail=exc.message,
                ),
                done,
            )
        if cache is not None:
            self._ship_build_entry(cache.store_success(program.compiled), done)
        return (
            P.BuildProgramResponse(
                status="SUCCESS", log="", kernels=self._kernel_metadata(program)
            ),
            done,
        )

    # ------------------------------------------------------------------
    # registry helpers
    # ------------------------------------------------------------------
    def _ctx(self, client: str, obj_id: int) -> Context:
        return self.registry.get(client, obj_id, Context)

    def _queue(self, client: str, obj_id: int) -> CommandQueue:
        return self.registry.get(client, obj_id, CommandQueue)

    def _events(self, client: str, ids: Optional[List[int]]) -> List[Event]:
        return [self.registry.get(client, i, Event) for i in (ids or [])]

    def _visible_device_ids(self, client: str) -> List[int]:
        if not self.managed:
            return list(range(len(self.platform.devices)))
        auth = self.client_auth.get(client)
        return sorted(self.auth_devices.get(auth, set()))

    # ------------------------------------------------------------------
    # handler installation
    # ------------------------------------------------------------------
    def _install_handlers(self) -> None:
        gcf = self.gcf

        # -- batched call forwarding --------------------------------------
        # The envelope is decoded once (the enclosing request's
        # ``request_overhead``); every sub-command then pays only the
        # smaller per-command dispatch slice before being replayed
        # through its registered handler, in client program order.
        # Undispatchable sub-commands answer with a CL error Ack so the
        # client surfaces a faithful CLError at its sync point.
        #
        # guard/observe implement provisional-ID poisoning for deferred
        # creations: a failed creation poisons the IDs it was promising
        # (observe), and any later sub-command reading or extending a
        # poisoned ID is answered with the original error positionally,
        # without executing its handler (guard).  The guard also holds
        # the sender to the registry it shares: only deferrable types
        # (Ack-class replies, roles declared) may ride a batch.
        def reject(detail):
            return P.Ack(error=ErrorCode.CL_INVALID_OPERATION.value, detail=detail)

        def batch_guard(sub, sender):
            if type(sub) not in P.DEFERRABLE:
                return reject(f"{type(sub).__name__} cannot be batch-forwarded")
            released = P.released_handle(sub)
            if released is not None and self.registry.unpoison(sender.name, released):
                # Disposing of a poisoned handle retires the poison
                # entry — re-raising the (already surfaced) failure at
                # every later sync point would make cleanup impossible.
                # Creation-poisoned handles never materialised: the
                # release succeeds as a no-op.  Mutation-poisoned
                # handles (a kernel whose arg update was skipped) DO
                # exist, so fall through and run the real release
                # handler — skipping it would leak the object.
                if self.registry.peek(sender.name, released) is None:
                    return P.Ack()
                return None
            reads, creates = P.request_handles(sub)
            if not reads and not creates:
                return None
            hit = self.registry.poison_info(sender.name, [*reads, *creates])
            if hit is None:
                return None
            poisoned_id, code, poison_detail = hit
            return P.Ack(
                error=code,
                detail=(
                    f"{type(sub).__name__} skipped: depends on ID {poisoned_id}, "
                    f"poisoned by a failed creation ({poison_detail})"
                ),
            )

        def batch_observe(sub, response, sender):
            error = getattr(response, "error", 0)
            if not error:
                return
            if isinstance(sub, P.CreateUserEventRequest):
                # The replica will never register (creation failed or was
                # poison-skipped): discard any status buffered for it, or
                # the entry would sit in the pending table forever.
                self._pop_pending_status(sender.name, sub.event_id)
            _reads, creates = P.request_handles(sub)
            # A failed (or skipped) command poisons what it promised to
            # create AND what it mutates in place: for the latter the
            # daemon-side state no longer matches what the client
            # believes (a skipped SetKernelArg leaves the kernel's
            # previous binding), so nothing may execute against it.
            tainted = creates | P.request_mutations(sub)
            if tainted:
                self.registry.poison(
                    sender.name, tainted, error, getattr(response, "detail", "")
                )

        gcf.install_batch_dispatch(
            on_error=reject,
            guard=batch_guard,
            observe=batch_observe,
        )

        @gcf.on_connect
        def on_connect(client_name: str, payload, t: float) -> None:
            # Admission control runs first: the session cap protects the
            # daemon regardless of auth mode, and refusing at the
            # handshake means no per-client state was allocated yet.
            try:
                self.admission.check_connect(len(self.gcf.peers))
            except CLError as exc:
                self.gcf.stats.refused_connections += 1
                raise ConnectionRefused(exc.message) from exc
            if self.managed:
                auth = (payload or {}).get("auth_id") if isinstance(payload, dict) else None
                if auth is None or auth not in self.auth_devices:
                    raise ConnectionRefused(
                        f"daemon {self.name!r} is in managed mode; "
                        f"connection requires a valid authentication ID"
                    )
                self.client_auth[client_name] = auth

        @gcf.on_disconnect
        def on_disconnect(client_name: str, t: float) -> None:
            # Abnormal-termination reclamation (Section IV-C): report the
            # invalidated auth ID so the device manager frees the devices.
            auth = self.client_auth.pop(client_name, None)
            self._pending_event_status.pop(client_name, None)
            for _obj_id, obj in self.registry.drop_client(client_name):
                if isinstance(obj, Buffer):
                    obj.release()
            if auth is not None and self.device_manager is not None:
                self.auth_devices.pop(auth, None)
                self.gcf.notify(
                    self.device_manager.gcf, P.ClientLostNotification(auth_id=auth), t
                )

        def ack_handler(msg_cls):
            """Register a handler that replies a plain :class:`Ack`: it
            returns the time the command completes (``None``: at once,
            at ``t``) and reports failure by raising ``CLError``, which
            becomes the error ``Ack`` at ``t`` here."""

            def register(fn):
                @gcf.on_request(msg_cls)
                @functools.wraps(fn)
                def handler(msg, t, sender):
                    try:
                        done = fn(msg, t, sender)
                    except CLError as exc:
                        return P.Ack(error=exc.code.value, detail=exc.message), t
                    return P.Ack(), t if done is None else done

                return fn

            return register

        # -- discovery ---------------------------------------------------
        @gcf.on_request(P.ListDevicesRequest)
        def list_devices(msg: P.ListDevicesRequest, t: float, sender: GCFProcess):
            visible = self._visible_device_ids(sender.name)
            ids, infos = [], []
            for i in visible:
                device = self.platform.devices[i]
                if msg.device_type != CL_DEVICE_TYPE_ALL and not (
                    device.type_bits & msg.device_type
                ):
                    continue
                ids.append(i)
                infos.append(self._encode_info(device.info()))
            return P.ListDevicesResponse(device_ids=ids, infos=infos), t

        @gcf.on_request(P.ServerInfoRequest)
        def server_info(msg: P.ServerInfoRequest, t: float, sender: GCFProcess):
            return (
                P.ServerInfoResponse(
                    info={
                        "NAME": self.name,
                        "HOST": self.host.name,
                        "NUM_DEVICES": len(self.platform.devices),
                        "MANAGED": self.managed,
                        "PLATFORM": self.platform.name,
                    }
                ),
                t,
            )

        # -- contexts / queues ---------------------------------------------
        @ack_handler(P.CreateContextRequest)
        def create_context(msg: P.CreateContextRequest, t: float, sender: GCFProcess):
            visible = set(self._visible_device_ids(sender.name))
            for i in msg.device_ids:
                if i not in visible:
                    raise CLError(
                        ErrorCode.CL_DEVICE_NOT_ASSIGNED_WWU,
                        f"device {i} is not assigned to this client",
                    )
            self._admit_object(sender.name)
            devices = [self.platform.devices[i] for i in msg.device_ids]
            self.registry.put(sender.name, msg.context_id, Context(devices))

        @ack_handler(P.ReleaseContextRequest)
        def release_context(msg, t, sender):
            self.registry.pop(sender.name, msg.context_id)

        @ack_handler(P.CreateQueueRequest)
        def create_queue(msg: P.CreateQueueRequest, t: float, sender: GCFProcess):
            self._admit_object(sender.name)
            ctx = self._ctx(sender.name, msg.context_id)
            device = self.platform.devices[msg.device_id]
            queue = CommandQueue(ctx, device, msg.properties)
            queue.workload_scale = self.workload_scale
            self.registry.put(sender.name, msg.queue_id, queue)

        @ack_handler(P.ReleaseQueueRequest)
        def release_queue(msg, t, sender):
            self.registry.pop(sender.name, msg.queue_id)

        @ack_handler(P.FinishRequest)
        def finish(msg: P.FinishRequest, t: float, sender: GCFProcess):
            queue = self._queue(sender.name, msg.queue_id)
            return queue.finish(t)

        @ack_handler(P.FlushRequest)
        def flush(msg: P.FlushRequest, t: float, sender: GCFProcess):
            # The submission guarantee itself is discharged by batch
            # replay order: the client's window put every pre-flush
            # command (of any queue of this daemon) ahead of the
            # FlushRequest, and sub-commands replay in program order —
            # so by the time this runs, everything the flush promised
            # has been submitted.  All that is left is validating the
            # queue handle (a flush on a never-created or
            # poison-skipped queue is a client error, not a silent
            # no-op).
            self._queue(sender.name, msg.queue_id)

        # -- buffers --------------------------------------------------------
        @ack_handler(P.CreateBufferRequest)
        def create_buffer(msg: P.CreateBufferRequest, t: float, sender: GCFProcess):
            self._admit_object(sender.name)
            ctx = self._ctx(sender.name, msg.context_id)
            self.registry.put(sender.name, msg.buffer_id, Buffer(ctx, msg.flags, msg.size))

        @ack_handler(P.ReleaseBufferRequest)
        def release_buffer(msg, t, sender):
            obj = self.registry.pop(sender.name, msg.buffer_id)
            if isinstance(obj, Buffer):
                obj.release()

        @gcf.on_request(P.BufferDataUpload)
        def upload_init(msg: P.BufferDataUpload, t: float, sender: GCFProcess):
            try:
                self.registry.get(sender.name, msg.buffer_id, Buffer)
                self._queue(sender.name, msg.queue_id)
                return P.BufferDataResponse(nbytes=msg.nbytes), t
            except CLError as exc:
                return P.BufferDataResponse(error=exc.code.value, detail=exc.message), t

        @gcf.on_bulk_sink(P.BufferDataUpload)
        def upload_sink(msg: P.BufferDataUpload, payload, arrival: float, sender: GCFProcess):
            buffer = self.registry.get(sender.name, msg.buffer_id, Buffer)
            queue = self._queue(sender.name, msg.queue_id)
            wait = self._events(sender.name, msg.wait_event_ids)
            event = queue.enqueue_write_buffer(
                buffer, as_uint8_array(payload), arrival, msg.offset, wait
            )
            self.registry.put(sender.name, msg.event_id, event)
            self._arm_completion_callback(
                event, msg.event_id, sender, replica_servers=msg.replica_servers
            )

        @gcf.on_request(P.CoalescedBufferUpload)
        def coalesced_upload_init(msg: P.CoalescedBufferUpload, t: float, sender: GCFProcess):
            # Validate the whole section table up front so the client's
            # single init round trip reports any stale ID before the
            # merged payload streams.
            try:
                if not (
                    len(msg.buffer_ids) == len(msg.event_ids) == len(msg.nbytes_list)
                    and msg.buffer_ids
                ):
                    raise CLError(
                        ErrorCode.CL_INVALID_VALUE,
                        "coalesced upload needs aligned, non-empty section lists",
                    )
                self._queue(sender.name, msg.queue_id)
                for buffer_id in msg.buffer_ids:
                    self.registry.get(sender.name, buffer_id, Buffer)
                return P.BufferDataResponse(nbytes=sum(msg.nbytes_list)), t
            except CLError as exc:
                return P.BufferDataResponse(error=exc.code.value, detail=exc.message), t

        @gcf.on_bulk_sink(P.CoalescedBufferUpload)
        def coalesced_upload_sink(msg: P.CoalescedBufferUpload, payload, arrival: float, sender: GCFProcess):
            # One raw stream carrying the section table's whole-object
            # uploads: each section becomes an ordinary enqueued write
            # on the same queue, in section order, with its own
            # registered event.  The payload arrives either as the
            # client's list of per-section arrays (zero-copy) or as one
            # flat concatenation (decoded stream).
            queue = self._queue(sender.name, msg.queue_id)
            sections = split_sections(payload, msg.nbytes_list)
            for buffer_id, event_id, data in zip(msg.buffer_ids, msg.event_ids, sections):
                buffer = self.registry.get(sender.name, buffer_id, Buffer)
                event = queue.enqueue_write_buffer(buffer, data, arrival, 0, [])
                self.registry.put(sender.name, event_id, event)
                self._arm_completion_callback(event, event_id, sender)

        @gcf.on_bulk_source(P.CoalescedBufferDownload)
        def coalesced_download_source(msg: P.CoalescedBufferDownload, t: float, sender: GCFProcess):
            # One fetch round trip streaming the section table's
            # whole-object reads back: each section becomes an ordinary
            # enqueued read on the same queue, in section order, with
            # its own registered event.  The section *table* is
            # validated before anything enqueues, so a stale ID rejects
            # the fetch before any section applies.  A mid-loop gating
            # failure (a read behind an unresolved user event) fails the
            # whole fetch; earlier sections' reads stay enqueued, and
            # the client applies no bytes because the error raises out
            # of the blocking call.
            try:
                if not (
                    len(msg.buffer_ids) == len(msg.event_ids) == len(msg.nbytes_list)
                    and msg.buffer_ids
                ):
                    raise CLError(
                        ErrorCode.CL_INVALID_VALUE,
                        "coalesced download needs aligned, non-empty section lists",
                    )
                queue = self._queue(sender.name, msg.queue_id)
                buffers = [
                    self.registry.get(sender.name, buffer_id, Buffer)
                    for buffer_id in msg.buffer_ids
                ]
                sections, total, tcur = [], 0, t
                for buffer, event_id, nbytes in zip(buffers, msg.event_ids, msg.nbytes_list):
                    nbytes = nbytes if nbytes > 0 else buffer.size
                    data, event = queue.enqueue_read_buffer(buffer, tcur, 0, nbytes, [])
                    self.registry.put(sender.name, event_id, event)
                    self._arm_completion_callback(event, event_id, sender)
                    if not event.resolved:
                        raise CLError(
                            ErrorCode.CL_INVALID_OPERATION,
                            "download gated on an incomplete user event",
                        )
                    tcur = max(tcur, event.end)
                    total += nbytes
                    # Zero-copy: the per-section arrays stream back as a
                    # list, never concatenated.
                    sections.append(data)
                return P.BufferDataResponse(nbytes=total), tcur, sections, total
            except CLError as exc:
                return (
                    P.BufferDataResponse(error=exc.code.value, detail=exc.message),
                    t,
                    b"",
                    0,
                )

        @ack_handler(P.BufferPeerTransferBatch)
        def peer_transfer_batch(msg: P.BufferPeerTransferBatch, t: float, sender: GCFProcess):
            # Section III-F server-to-server synchronisation (MOSI): the
            # section table's buffer copies move straight to the peer
            # daemon in one direct stream, bypassing the client, and are
            # answered by a single Ack.  The whole table (source and
            # destination copies) is validated before any bytes move, so
            # a stale ID rejects the batch whole.
            if not (len(msg.buffer_ids) == len(msg.nbytes_list) and msg.buffer_ids):
                raise CLError(
                    ErrorCode.CL_INVALID_VALUE,
                    "batched peer transfer needs aligned, non-empty section lists",
                )
            peer = self.peer_daemons.get(msg.peer_name)
            if peer is None:
                raise CLError(
                    ErrorCode.CL_INVALID_SERVER_WWU,
                    f"daemon {self.name!r} has no peer {msg.peer_name!r}",
                )
            buffers = [
                self.registry.get(sender.name, buffer_id, Buffer)
                for buffer_id in msg.buffer_ids
            ]
            peer_buffers = [
                peer.registry.get(sender.name, buffer_id, Buffer)
                for buffer_id in msg.buffer_ids
            ]
            arrival = self.network.transfer(
                self.host, peer.host, t, sum(msg.nbytes_list), tag="s2s-buffer"
            )
            for src_buffer, dst_buffer in zip(buffers, peer_buffers):
                dst_buffer.write(0, src_buffer.array)
            return arrival

        @ack_handler(P.PushCommit)
        def push_commit(msg: P.PushCommit, t: float, sender: GCFProcess):
            # The client-authorised apply of a speculative peer push
            # (PR 9): pop the staged bytes this daemon parked in
            # ``receive_peer_push`` and, if their epoch matches the one
            # the client's sync point validated, write them into the
            # replica.  Riding the destination's send window in program
            # order guarantees the apply lands before any deferred
            # command that reads the replica.  Missing or stale staging
            # (only reachable after a crash wiped the staging table, or
            # a replayed commit) answers a deterministic error; the
            # commit's mutation extractor then poisons the buffer, so
            # the stale replica can never be silently read.
            buffer = self.registry.get(sender.name, msg.buffer_id, Buffer)
            staged = self._push_staging.pop((sender.name, msg.buffer_id), None)
            if staged is None or staged[0] != msg.epoch:
                raise CLError(
                    ErrorCode.CL_INVALID_OPERATION,
                    f"daemon {self.name!r}: no staged push for buffer "
                    f"{msg.buffer_id} at epoch {msg.epoch}",
                )
            _epoch, data, available_at = staged
            buffer.write(0, as_uint8_array(data))
            return max(t, available_at)

        # -- programs / kernels ----------------------------------------------
        @ack_handler(P.CreateProgramRequest)
        def create_program_init(msg: P.CreateProgramRequest, t: float, sender: GCFProcess):
            self._admit_object(sender.name)
            self._ctx(sender.name, msg.context_id)

        @gcf.on_bulk_sink(P.CreateProgramRequest)
        def create_program_sink(msg: P.CreateProgramRequest, payload, arrival: float, sender: GCFProcess):
            ctx = self._ctx(sender.name, msg.context_id)
            if isinstance(payload, (bytes, bytearray, memoryview)):
                source = bytes(payload).decode("utf-8")
            else:
                source = str(payload)
            self.registry.put(sender.name, msg.program_id, Program(ctx, source))

        @ack_handler(P.CreateProgramWithSourceRequest)
        def create_program_deferred(
            msg: P.CreateProgramWithSourceRequest, t: float, sender: GCFProcess
        ):
            # The deferred-creation path: the source arrived inline with
            # the batch, so program registration is an ordinary replayed
            # sub-command (no stream, no round trip of its own).
            self._admit_object(sender.name)
            ctx = self._ctx(sender.name, msg.context_id)
            self.registry.put(sender.name, msg.program_id, Program(ctx, msg.source))

        @ack_handler(P.CreateProgramCachedRequest)
        def create_program_cached(
            msg: P.CreateProgramCachedRequest, t: float, sender: GCFProcess
        ):
            # The content-addressed creation path: the client's stub
            # cache saw this source build on this daemon (same epoch),
            # so only the digest rides the window and the source is
            # re-materialised from the build cache.  A miss is only
            # possible after eviction; it poisons the provisional ID
            # like any failed creation.
            self._admit_object(sender.name)
            ctx = self._ctx(sender.name, msg.context_id)
            source = (
                self.buildcache.source_for(msg.digest)
                if self.buildcache is not None
                else None
            )
            if source is None:
                raise CLError(
                    ErrorCode.CL_INVALID_PROGRAM,
                    f"no cached source for digest {msg.digest[:12]}…",
                )
            self.registry.put(sender.name, msg.program_id, Program(ctx, source))

        @ack_handler(P.CreateProgramWithBinaryRequest)
        def create_program_with_binary(
            msg: P.CreateProgramWithBinaryRequest, t: float, sender: GCFProcess
        ):
            # clCreateProgramWithBinary: install the serialized program
            # into the build cache (when enabled) and register the
            # handle.  The program still requires clBuildProgram before
            # kernel creation (OpenCL semantics); that build resolves as
            # a cache hit against the entry installed here.
            self._admit_object(sender.name)
            ctx = self._ctx(sender.name, msg.context_id)
            try:
                if self.buildcache is not None:
                    entry, _ = self.buildcache.install_binary(msg.binary)
                    compiled = entry.compiled
                else:
                    compiled = deserialize_program(msg.binary)
            except CLCompileError as exc:
                raise CLError(ErrorCode.CL_INVALID_BINARY, str(exc)) from exc
            self.registry.put(
                sender.name, msg.program_id, Program(ctx, compiled.source)
            )

        @gcf.on_request(P.BuildProgramRequest)
        def build_program(msg: P.BuildProgramRequest, t: float, sender: GCFProcess):
            try:
                program = self.registry.get(sender.name, msg.program_id, Program)
            except CLError as exc:
                return P.BuildProgramResponse(error=exc.code.value, detail=exc.message), t
            # Ship every kernel's argument metadata with the build
            # status: this is what lets clCreateKernel defer (the
            # client fills kernel stubs from the cached table).
            return self._resolve_build(program, msg.options, t)

        @ack_handler(P.BuildProgramCachedRequest)
        def build_program_cached(
            msg: P.BuildProgramCachedRequest, t: float, sender: GCFProcess
        ):
            # The deferred build of cache-enabled clients: the client
            # already resolved the outcome locally, so no reply data is
            # needed and a *negatively-cached* failure answers a success
            # Ack — the error surfaced at the clBuildProgram call site
            # and the daemon program enters the identical ERROR state
            # here (nothing is left to report, and a batch poison would
            # re-raise an already-surfaced failure).
            program = self.registry.get(sender.name, msg.program_id, Program)
            if program.digest != msg.digest:
                raise CLError(
                    ErrorCode.CL_INVALID_PROGRAM,
                    "cached build digest does not match program source",
                )
            _, done = self._resolve_build(program, msg.options, t)
            return done

        @gcf.on_request(P.GetProgramBinaryRequest)
        def get_program_binary(msg: P.GetProgramBinaryRequest, t: float, sender: GCFProcess):
            try:
                program = self.registry.get(sender.name, msg.program_id, Program)
                compiled = program.require_built()
                if self.buildcache is not None:
                    entry = self.buildcache.lookup(program.digest, program.options)
                    if entry is not None and entry.kind == "binary":
                        return P.GetProgramBinaryResponse(binary=entry.blob), t
                return P.GetProgramBinaryResponse(binary=serialize_program(compiled)), t
            except CLError as exc:
                return P.GetProgramBinaryResponse(error=exc.code.value, detail=exc.message), t

        @ack_handler(P.ReleaseProgramRequest)
        def release_program(msg, t, sender):
            self.registry.pop(sender.name, msg.program_id)

        @ack_handler(P.CreateKernelRequest)
        def create_kernel(msg: P.CreateKernelRequest, t: float, sender: GCFProcess):
            # Fire-and-forget: the metadata already travelled with the
            # build reply, so creation answers a plain Ack.
            self._admit_object(sender.name)
            program = self.registry.get(sender.name, msg.program_id, Program)
            self.registry.put(sender.name, msg.kernel_id, Kernel(program, msg.name))

        @ack_handler(P.SetKernelArgRequest)
        def set_kernel_arg(msg: P.SetKernelArgRequest, t: float, sender: GCFProcess):
            kernel = self.registry.get(sender.name, msg.kernel_id, Kernel)
            if msg.kind == "buffer":
                value = self.registry.get(sender.name, msg.buffer_id, Buffer)
            elif msg.kind == "local":
                value = LocalMemory(msg.local_nbytes)
            else:
                value = msg.value
            kernel.set_arg(msg.index, value)

        @ack_handler(P.ReleaseKernelRequest)
        def release_kernel(msg, t, sender):
            self.registry.pop(sender.name, msg.kernel_id)

        @gcf.on_request(P.EnqueueKernelRequest)
        def enqueue_kernel(msg: P.EnqueueKernelRequest, t: float, sender: GCFProcess):
            try:
                queue = self._queue(sender.name, msg.queue_id)
                kernel = self.registry.get(sender.name, msg.kernel_id, Kernel)
                wait = self._events(sender.name, msg.wait_event_ids)
                event = queue.enqueue_nd_range_kernel(
                    kernel,
                    msg.global_size,
                    t,
                    local_size=msg.local_size or None,
                    global_offset=msg.global_offset or None,
                    wait_for=wait,
                )
                self.registry.put(sender.name, msg.event_id, event)
                self._arm_completion_callback(
                    event,
                    msg.event_id,
                    sender,
                    replica_servers=msg.replica_servers,
                    push_hints=msg.push_hints,
                )
                return P.EnqueueKernelResponse(), t
            except CLError as exc:
                return P.EnqueueKernelResponse(error=exc.code.value, detail=exc.message), t

        # -- events ------------------------------------------------------------
        @ack_handler(P.CreateUserEventRequest)
        def create_user_event(msg: P.CreateUserEventRequest, t: float, sender: GCFProcess):
            self._admit_object(sender.name)
            ctx = self._ctx(sender.name, msg.context_id)
            event = UserEvent(ctx, t)
            self.registry.put(sender.name, msg.event_id, event)
            # A relay or direct broadcast may have overtaken this
            # (deferred) creation on the wire; apply the buffered
            # status now, with the buffered time as causality floor.
            pending = self._pop_pending_status(sender.name, msg.event_id)
            if pending is not None:
                status, t_status = pending
                event.set_status(status, max(t, t_status))

        @ack_handler(P.SetUserEventStatusRequest)
        def set_user_event_status(msg: P.SetUserEventStatusRequest, t: float, sender: GCFProcess):
            # One delivery policy for every status source (app
            # fan-out, relay, broadcast): apply to the replica,
            # ignore duplicates for already-resolved ones, buffer
            # statuses whose replica creation has not replayed yet.
            # msg.min_time is the relay's causality floor: a status
            # riding an early-dispatched batch still takes effect no
            # sooner than the completion it reports became knowable
            # here (see SetUserEventStatusRequest).
            delivered = self.deliver_event_status(
                sender.name, msg.event_id, msg.status, max(t, msg.min_time)
            )
            if not delivered:
                # The request path's half of the overflow policy:
                # the status was dropped (buffer full), so the
                # client gets a faithful error reply instead of a
                # silently lost completion.
                raise CLError(
                    ErrorCode.CL_OUT_OF_RESOURCES,
                    f"daemon {self.name!r}: event-status buffer "
                    f"full ({PENDING_EVENT_STATUS_LIMIT} statuses "
                    "buffered ahead of their replica creations "
                    "for this client)",
                )

        @ack_handler(P.ReleaseEventRequest)
        def release_event(msg, t, sender):
            self.registry.pop(sender.name, msg.event_id)
            # A status buffered for the now-released replica has no
            # consumer any more (client IDs are never reused).
            self._pop_pending_status(sender.name, msg.event_id)

        # -- device manager ------------------------------------------------------
        @gcf.on_notification(P.LeaseAssignNotification)
        def lease_assign(msg: P.LeaseAssignNotification, t: float, sender: GCFProcess):
            self.auth_devices[msg.auth_id] = set(msg.device_ids)

        @gcf.on_notification(P.LeaseRevokeNotification)
        def lease_revoke(msg: P.LeaseRevokeNotification, t: float, sender: GCFProcess):
            self.auth_devices.pop(msg.auth_id, None)
            stale = [c for c, a in self.client_auth.items() if a == msg.auth_id]
            for client in stale:
                del self.client_auth[client]

    # ------------------------------------------------------------------
    # daemon-initiated pushes (PR 9)
    # ------------------------------------------------------------------
    def receive_peer_push(
        self, client_name: str, buffer_id: int, epoch: int, data: bytes, available_at: float
    ) -> None:
        """Park replica bytes pushed here by the owning daemon until the
        client's deferred :class:`~repro.core.protocol.messages.
        PushCommit` validates the epoch and applies them.  Never touches
        the registry buffer — deferred commands already in this daemon's
        window may legitimately read the pre-push version."""
        self._push_staging[(client_name, buffer_id)] = (epoch, data, available_at)

    def staged_pushes(self, client_name: str) -> int:
        """How many pushed replicas are staged for ``client_name``
        awaiting their commit (introspection for tests/``cachestat``)."""
        return sum(1 for key in self._push_staging if key[0] == client_name)

    def _execute_pushes(
        self, push_hints: List[Dict[str, object]], client: GCFProcess, t_complete: float
    ) -> Dict[str, list]:
        """Execute the client's push hints at kernel completion: snapshot
        each hinted buffer's post-kernel bytes and stream them toward the
        predicted consumer, off the client's critical path.

        A client-destined replica rides the completion notification
        itself (``push_payloads``); a peer-destined one moves over the
        s2s mesh as a :class:`~repro.core.protocol.messages.
        PeerPushRequest` charged at ``s2s-push``, with only the commit
        record (empty payload) riding the notification.  Either way the
        notification's hint piggyback tells the client what was staged,
        at which epoch — consumption and the epoch race are resolved
        entirely client-side.  A severed push link or a missing replica
        skips the hint (no counters, no commit record): the consumer
        simply demand-fetches, bit-identically.  Returns the
        ``EventCompleteNotification`` push fields (empty when nothing
        executed)."""
        ids: List[int] = []
        epochs: List[int] = []
        targets: List[str] = []
        payloads: List[bytes] = []
        for hint in push_hints:
            buffer_id = int(hint["buffer_id"])
            buffer = self.registry.peek(client.name, buffer_id)
            if not isinstance(buffer, Buffer):
                continue
            target = str(hint["target"])
            epoch = int(hint["epoch"])
            data = bytes(buffer.array)
            if target == "client":
                payload = data
            else:
                peer = self.peer_daemons.get(target)
                if peer is None or peer is self:
                    continue
                request = P.PeerPushRequest(
                    buffer_id=buffer_id,
                    client_name=client.name,
                    epoch=epoch,
                    nbytes=len(data),
                )
                try:
                    arrival = self.network.transfer(
                        self.host,
                        peer.host,
                        t_complete,
                        request.wire_size + len(data),
                        tag="s2s-push",
                    )
                except CommunicationError:
                    continue  # degraded to demand fetch, never half-pushed
                peer.receive_peer_push(client.name, buffer_id, epoch, data, arrival)
                payload = b""
            self.gcf.stats.daemon_pushes += 1
            self.gcf.stats.push_bytes += len(data)
            ids.append(buffer_id)
            epochs.append(epoch)
            targets.append(target)
            payloads.append(payload)
        if not ids:
            return {}
        return {
            "push_buffer_ids": ids,
            "push_epochs": epochs,
            "push_targets": targets,
            "push_payloads": payloads,
        }

    # ------------------------------------------------------------------
    def _arm_completion_callback(
        self,
        event: Event,
        event_id: int,
        client: GCFProcess,
        replica_servers: Optional[List[str]] = None,
        push_hints: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        """clSetEventCallback on the original event: notify the client on
        completion so it can replicate the status to user-event replicas
        on other servers (Section III-D).

        With :attr:`direct_event_broadcast`, ``replica_servers`` (set by
        the client on the launch/upload message — exactly the peers
        holding user-event replicas of this event) receive the status
        straight from this daemon (Section III-F).  Each target applies
        it immediately or, if the replica's deferred creation has not
        replayed yet, buffers it (:meth:`deliver_event_status`) — the
        broadcast can therefore never race a windowed creation, and it
        never touches daemons outside the event's replica set (whose
        buffers no create would ever drain).  Internal transfer events
        have no replicas and pass nothing."""

        def on_complete(_event, status, t_complete):
            # Speculative pushes run first, at the kernel's completion
            # time: the staged transfer overlaps the next iteration's
            # compute instead of gating a later sync point.  A failed
            # kernel pushes nothing — there are no post-kernel bytes to
            # speculate on.
            push_fields: Dict[str, list] = {}
            if push_hints and status == 0:
                push_fields = self._execute_pushes(push_hints, client, t_complete)
            self._send_from_callback(
                lambda: self.gcf.notify(
                    client,
                    P.EventCompleteNotification(
                        event_id=event_id,
                        status=status,
                        completed_at=t_complete,
                        **push_fields,
                    ),
                    t_complete,
                )
            )
            if self.direct_event_broadcast and replica_servers:
                for name in replica_servers:
                    peer = self.peer_daemons.get(name)
                    if peer is None:
                        continue

                    def broadcast(peer=peer):
                        arrival = self.network.transfer(
                            self.host, peer.host, t_complete, 96, tag="s2s-event"
                        )
                        peer.deliver_event_status(client.name, event_id, 0, arrival)

                    self._send_from_callback(broadcast)

        event.set_callback(on_complete)

    def _send_from_callback(self, send) -> bool:
        """Run one notification ``send`` with the bounded retry policy of
        :data:`NOTIFY_RETRY_LIMIT`.  Event callbacks must never raise
        (see there), so a send still failing after the budget is dropped
        and counted in ``NetStats.lost_notifications``; returns whether
        the send eventually went through."""
        for _ in range(NOTIFY_RETRY_LIMIT):
            try:
                send()
                return True
            except CommunicationError:
                continue
        self.gcf.stats.lost_notifications += 1
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "managed" if self.managed else "open"
        return f"<Daemon {self.name!r} ({mode}) devices={len(self.platform.devices)}>"
