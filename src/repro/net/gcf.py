"""A Generic Communication Framework (GCF) look-alike.

The paper implements dOpenCL's communication on GCF, a part of the
Real-Time Framework [15], [16]: *"client and servers are represented by
process objects; processes exchange messages ... Additionally, we
implemented bidirectional data streams ... to exchange large quantities of
binary data"*.

:class:`GCFProcess` is such a process object.  It lives on a
:class:`~repro.hw.node.Host`, owns a CPU timeline for request decoding and
dispatch, and supports the paper's two communication patterns:

* **message-based** — :meth:`GCFProcess.request` (synchronous
  request/response round trip), :meth:`GCFProcess.request_batch` (one
  round trip carrying a whole send window of commands) and
  :meth:`GCFProcess.notify` (asynchronous one-way notification);
* **stream-based** — :meth:`GCFProcess.send_bulk` (an initialising
  request/response exchange followed by the raw bulk payload, exactly the
  sequence described in Section III-B) and :meth:`GCFProcess.fetch_bulk`
  (a request whose reply is followed by the payload).

Messages cross by reference: the receiver gets the sender's object, and
the network cost model charges its ``wire_size`` — the exact length of
its encoding plus the protocol header.  Only a batch's commands are
encoded and decoded (:meth:`GCFProcess.install_batch_dispatch`).  Every
process keeps a :class:`NetStats` tally of the round trips and wire bytes
it initiated — the counters behind the batching benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.hw.node import Host
from repro.net.codec import CodecError
from repro.net.link import ConnectionRefused, NetworkError
from repro.net.messages import (
    CommandBatch,
    CommandBatchResponse,
    Message,
    Notification,
    Request,
    Response,
    WireDecodeCache,
)
from repro.net.network import Network
from repro.sim.timeline import Timeline

#: A request handler receives ``(message, t_start, sender)`` and returns
#: ``(response_message, t_done)``.
RequestHandler = Callable[[Message, float, "GCFProcess"], Tuple[Response, float]]
#: A notification handler receives ``(message, arrival_time, sender)``.
NotificationHandler = Callable[[Message, float, "GCFProcess"], None]

#: Batch replies a receiver keeps for replay dedupe (see
#: :meth:`GCFProcess.install_batch_dispatch`), least recently used out.
REPLAY_CACHE_SIZE = 512


class NetStats:
    """Per-process tally of initiated communication.

    Counter meanings (each is a monotonically increasing int):

    ``requests``
        Synchronous single-message request/response exchanges this
        process initiated (``GCFProcess.request``).  One request = one
        network round trip.
    ``batches``
        :class:`CommandBatch` envelopes this process dispatched
        (``GCFProcess.request_batch``).  A batch of N commands is *one*
        round trip — the quantity the forwarding pipeline minimises.
    ``batched_commands``
        Total sub-commands carried inside those batches; the coalescing
        ratio is ``batched_commands / batches``.
    ``batched_commands_received``
        Sub-commands this process *dispatched* as a batch receiver
        (``install_batch_dispatch``); every received sub-command is
        counted exactly once — decoded, served from the decode cache,
        poisoned or undispatchable alike — so ``decode_cache_hits`` can
        be audited against it (see ``tests/net/test_wire_caches.py``).
    ``poisoned_commands``
        Batched sub-commands short-circuited by the dispatch guard
        (e.g. a command depending on a failed creation's provisional
        ID): counted in ``batched_commands_received`` but never run.
    ``notifications``
        One-way asynchronous messages sent (``GCFProcess.notify``); they
        cost bytes but no round trip.
    ``bulk_sends`` / ``bulk_fetches``
        Stream-based bulk transfers: uploads (init request + pushed
        payload, or a section streamed behind a batch) and the reference
        path's downloads (request + pulled payload).  A bulk *fetch*
        blocks on the reply, so it counts as a round trip; a bulk
        *send*'s init request is already counted in ``requests``, a
        section's batch in ``batches``.  A download section a batch
        streams back is neither: it is not a round trip, and its bytes
        count in ``bytes_received``.
    ``bytes_sent`` / ``bytes_received``
        Wire bytes (message encodings incl. protocol headers, plus raw
        bulk payloads and sections) this process put on / took off the
        network.
    ``encode_cache_hits``
        Command encodings reused from :meth:`Message.cached_wire` when
        assembling batches — a command replicated to N daemons is
        encoded once and hits this counter N-1 times.
    ``decode_cache_hits``
        Daemon-side: batched sub-commands answered from the batch
        receiver's :class:`~repro.net.messages.WireDecodeCache` —
        byte-identical commands decoded once.  Replies cross as objects,
        so a client never decodes and keeps this at 0.
    ``relays_deferred`` / ``relays_suppressed``
        Client-side event-consistency traffic accounting: completion
        relays that joined a send window instead of round-tripping, and
        relays skipped entirely because the event has no user-event
        replicas anywhere.
    ``coalesced_downloads`` / ``coalesced_download_sections``
        Coherence download gangs (one ``CoalescedBufferDownload``
        streaming several buffers back from one daemon), and the
        per-buffer sections those downloads carried.  These (and the
        peer-transfer pair below) count only groups that entered with
        two or more members — once, with the sections actually shipped
        (staged pushes may consume the rest) — so they stay 0 on the
        reference path, whose groups are all singletons.  A coherence
        upload is a host write per buffer, so it has no gang to count.
    ``coalesced_reads`` / ``coalesced_read_sections``
        Read gathers fused per source daemon: a blocking read that must
        download its buffer gang-revalidates the sibling dirty buffers
        stranded on the same daemon in one ``CoalescedBufferDownload``,
        so back-to-back result reads cost one round trip per daemon (a
        group of deferred reads fuses the same way).  Counted per fused
        group / per section (the group's download also counts in
        ``coalesced_downloads``).
    ``flush_barriers``
        ``clFlush`` submission barriers recorded in send windows: the
        flush no longer force-dispatches the window — the FlushRequest
        rides the batch and the barrier constrains prefix flushing
        (``SendWindow.barrier_floor``) so nothing overtakes flushed
        commands.
    ``coalesced_peer_transfers`` / ``coalesced_peer_transfer_sections``
        MOSI server-to-server gangs: two or more hops along one
        (src, dst) daemon pair on one ``BufferPeerTransferBatch`` round
        trip, and the per-buffer sections those batches carried.
    ``folded_finishes``
        Client-side: ``clFinish`` calls answered by their drain's last
        batch to the queue's daemon, the ``FinishRequest`` riding as its
        last sub-command, instead of by a round trip of their own — only
        for a queue a notification cannot finish (out of order, nothing
        enqueued yet, released, or gated on an unset user event).
    ``local_finishes``
        Client-side: ``clFinish`` calls that sent no ``FinishRequest`` —
        the queue is in order and its last command's completion
        notification reached the client by the end of the drain, which
        sent the daemon whatever was windowed, or nothing.
    ``kernels_created_on_launch``
        Client-side: kernel creations that rode a launch to a daemon
        lacking the kernel (the pipeline sends no ``CreateKernelRequest``).
    ``folded_kernel_args``
        Client-side: argument values launches carried as ``args``
        entries (the pipeline sends no ``SetKernelArgRequest``).
    ``prefix_flushes``
        Targeted sync points that dispatched only a window *prefix*
        (up to the awaited handle's producer), leaving causally
        unrelated commands after it windowed.
    ``dropped_event_statuses``
        Daemon-side: early event statuses dropped because the sending
        client's status-before-create buffer was full (the bounded
        overflow policy — an error reply on the request path, a counted
        drop on the broadcast-callback path).
    ``timeouts``
        Client-side: transport attempts that failed with a
        :class:`~repro.sim.errors.CommunicationError` and were charged
        the retry policy's timeout penalty (see
        :mod:`repro.core.client.resilience`).
    ``retries``
        Client-side: re-attempts actually dispatched after a timeout
        (``retries <= timeouts``; the last timeout of an exhausted
        budget has no retry).
    ``replayed_batches``
        Client-side: :class:`CommandBatch` envelopes re-sent with the
        same (epoch, seq) replay identity after a lost attempt.
    ``deduped_batches``
        Daemon-side: replayed batches answered from the dispatch
        dedupe cache *without* re-running any handler — the
        exactly-once half of at-least-once delivery.  Structurally,
        the sum of ``deduped_batches`` over daemons never exceeds the
        sum of ``replayed_batches`` over clients.
    ``evicted_replicas``
        Client-side: coherence-directory replicas discarded because
        the daemon holding them was declared dead.
    ``dead_daemons``
        Client-side: daemons this process declared dead after
        exhausting the retry budget (or on a connection reset).
    ``lost_notifications``
        Daemon-side: one-way event notifications abandoned after the
        bounded notification retry gave up — the client will observe
        the event state at its next synchronous exchange instead.
    ``refused_connections``
        Daemon-side: connection attempts turned away by admission
        control (the per-daemon client cap, see
        :mod:`repro.core.daemon.admission`) — counted on the *refusing*
        process, distinct from managed-mode auth failures.
    ``quota_rejections``
        Daemon-side: creation commands rejected because the sending
        client hit its per-client registry-object quota
        (``CL_OUT_OF_RESOURCES``); under deferred creations the
        rejected provisional ID poisons exactly like any other failed
        creation, so the backpressure composes with the handle-promise
        machinery instead of bypassing it.

    ``programs_built``
        Daemon-side: program builds that actually invoked the compiler
        (``repro.clc.compile_program``) and charged ``build_duration``
        on this daemon's timeline — successful *and* failed compiles
        alike.  Every build request resolves to exactly one of
        ``programs_built``, ``build_cache_hits`` or
        ``negative_build_hits``, so the triple's sum equals the build
        requests handled; the reference path's ``BuildProgramRequest``
        always compiles, the pipeline's ``BuildProgramCachedRequest``
        only on a cache miss.
    ``build_cache_hits``
        Daemon-side: builds answered from the content-addressed build
        cache (adopting a cached ``CompiledProgram`` — compiled here
        earlier, by any tenant, or installed as a shipped cluster
        binary) without invoking the compiler or charging
        ``build_duration``.
    ``negative_build_hits``
        Daemon-side: builds answered from a *negative* cache entry —
        the same ``CL_BUILD_PROGRAM_FAILURE`` and bit-identical build
        log as the original failed compile, replayed without running
        the compiler.
    ``binaries_shipped``
        Daemon-side: serialized program binaries (and negative
        entries) this daemon pushed into sibling daemons' build caches
        after resolving a build miss — the cluster-registry traffic
        that makes steady-state compiles one per unique
        ``(source digest, options)`` per cluster.
    ``build_seconds_saved``
        Daemon-side: the cumulative ``build_duration`` the cache
        refunded (a float — the one non-integer counter): incremented
        by the skipped compile's duration on every ``build_cache_hits``
        / ``negative_build_hits`` event.
    ``cache_entries_rehydrated``
        Daemon-side: build-cache entries re-installed from a sibling
        daemon's cache during ``Daemon.restart()`` — the crashed
        daemon pulls the cluster registry back over the s2s mesh
        instead of recompiling.

    ``speculative_pushes``
        Client-side: push hints the transfer planner attached to
        kernel launches (one per writable buffer argument with a
        stable producer->consumer edge).  Zero under
        ``push_transfers=False``.
    ``daemon_pushes`` / ``push_bytes``
        Daemon-side: speculative replica pushes this daemon executed
        at kernel completion (client-destined payloads riding the
        completion notification, or direct s2s pushes to a peer
        daemon), and the payload bytes they carried.  A push whose
        transfer failed (severed link) is not counted — the consumer
        demand-fetches instead.  Without faults, the sum over daemons
        equals the clients' ``speculative_pushes``.
    ``push_commits``
        Client-side: staged pushes whose epoch matched the buffer's
        current epoch at a sync point and therefore replaced a demand
        transfer (a client download served from staged bytes, or a
        deferred :class:`~repro.core.protocol.messages.PushCommit`
        replacing a peer-transfer round trip).
    ``wasted_pushes``
        Client-side: staged pushes / commit records discarded without
        being consumed — a newer write bumped the buffer's epoch, or
        the target daemon was declared dead.  Structurally
        ``push_commits + wasted_pushes <= sum(daemon_pushes) <=
        speculative_pushes``, and a discarded push is *never* observed
        by application reads.

    ``deferred_reads``
        Client-side: non-blocking ``clEnqueueReadBuffer`` calls recorded
        as *deferred fetches* on the window graph (``defer_reads=True``)
        — zero network traffic and zero virtual-time advance at enqueue;
        the bytes ride a later relevant flush.
    ``deferred_read_batches``
        Client-side: deferred-read resolution groups that actually ran
        a sync point (one group may cover several pending reads, whose
        downloads fuse exactly like a blocking read's gang).

    ``round_trips`` (a property) is ``requests + batches + bulk_fetches``:
    every synchronous client<->server exchange the process blocked on.

    ``commands`` (not a counter, so not in :meth:`snapshot`) is the
    per-class census of batched sub-commands: registered class name ->
    ``[count, bytes]``, the bytes being each command's encoding as the
    batch prices it.  The client counts what it sent, a daemon what it
    dispatched (deduped replays excluded), so on a clean run the two
    sides agree class by class.
    """

    COUNTERS = (
        "requests",
        "batches",
        "batched_commands",
        "batched_commands_received",
        "poisoned_commands",
        "notifications",
        "bulk_sends",
        "bulk_fetches",
        "bytes_sent",
        "bytes_received",
        "encode_cache_hits",
        "decode_cache_hits",
        "relays_deferred",
        "relays_suppressed",
        "coalesced_downloads",
        "coalesced_download_sections",
        "coalesced_reads",
        "coalesced_read_sections",
        "flush_barriers",
        "coalesced_peer_transfers",
        "coalesced_peer_transfer_sections",
        "folded_finishes",
        "local_finishes",
        "kernels_created_on_launch",
        "folded_kernel_args",
        "prefix_flushes",
        "dropped_event_statuses",
        "timeouts",
        "retries",
        "replayed_batches",
        "deduped_batches",
        "evicted_replicas",
        "dead_daemons",
        "lost_notifications",
        "refused_connections",
        "quota_rejections",
        "programs_built",
        "build_cache_hits",
        "negative_build_hits",
        "binaries_shipped",
        "build_seconds_saved",
        "cache_entries_rehydrated",
        "speculative_pushes",
        "daemon_pushes",
        "push_bytes",
        "push_commits",
        "wasted_pushes",
        "deferred_reads",
        "deferred_read_batches",
    )
    __slots__ = COUNTERS + ("commands",)

    def __init__(self) -> None:
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.commands: Dict[str, List[int]] = {}

    def count_command(self, name: str, nbytes: int) -> None:
        """Add one batched sub-command of class ``name`` to the census."""
        entry = self.commands.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += nbytes

    @property
    def round_trips(self) -> int:
        """Synchronous exchanges initiated: requests + batches + fetches."""
        return self.requests + self.batches + self.bulk_fetches

    def snapshot(self) -> Dict[str, int]:
        """All counters (plus the derived ``round_trips``) as a dict."""
        return {name: getattr(self, name) for name in self.COUNTERS} | {
            "round_trips": self.round_trips
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NetStats {self.snapshot()}>"


class RequestOutcome:
    """Timing breakdown of one synchronous exchange.

    ``responses`` holds the replies: for a :meth:`GCFProcess.request_batch`
    trip one per command (batch order), or none when all were bare
    successes; else one.
    ``arrival`` is when the last leg landed — the reply, or a bulk
    exchange's raw payload — and ``payload`` what a bulk fetch streamed
    back; ``sections`` what a batch's commands streamed back
    (:meth:`GCFProcess.request_batch`).
    """

    __slots__ = (
        "responses", "sent_at", "request_arrival", "handled_at", "reply_arrival",
        "arrival", "payload", "sections",
    )

    def __init__(
        self,
        responses: List[Response],
        sent_at: float,
        request_arrival: float,
        handled_at: float,
        reply_arrival: float,
    ) -> None:
        self.responses = responses
        self.sent_at = sent_at
        self.request_arrival = request_arrival
        self.handled_at = handled_at
        self.reply_arrival = reply_arrival
        self.arrival = reply_arrival
        self.payload: Any = None
        self.sections: Dict[int, list] = {}

    @property
    def response(self) -> Response:
        """The reply of a single-message exchange."""
        return self.responses[0]

    @property
    def round_trip(self) -> float:
        """Elapsed virtual time from send to reply arrival."""
        return self.reply_arrival - self.sent_at


class GCFProcess:
    """A named communicating process on a host."""

    def __init__(self, name: str, host: Host, network: Network) -> None:
        self.name = name
        self.host = host
        self.network = network
        self.cpu = Timeline(name=f"{name}.cpu")
        self.stats = NetStats()
        self._request_handlers: Dict[Type[Message], RequestHandler] = {}
        self._notification_handlers: Dict[Type[Message], NotificationHandler] = {}
        self._bulk_sink_handlers: Dict[Type[Message], Callable] = {}
        self._bulk_source_handlers: Dict[Type[Message], Callable] = {}
        self._connect_handler: Optional[Callable[[str, Any, float], None]] = None
        self._disconnect_handler: Optional[Callable[[str, float], None]] = None
        #: Extra server-side work per accepted connection (session setup,
        #: worker spawn).  Daemons set this; plain processes keep 0.
        self.connect_setup_duration = 0.0
        self.peers: Dict[str, "GCFProcess"] = {}

    # ------------------------------------------------------------------
    # handler registration (server side)
    # ------------------------------------------------------------------
    def on_request(self, msg_cls: Type[Message]) -> Callable[[RequestHandler], RequestHandler]:
        """Decorator registering the request handler for ``msg_cls``."""

        def register(fn: RequestHandler) -> RequestHandler:
            self._request_handlers[msg_cls] = fn
            return fn

        return register

    def on_notification(self, msg_cls: Type[Message]) -> Callable[[NotificationHandler], NotificationHandler]:
        """Decorator registering the notification handler for ``msg_cls``."""

        def register(fn: NotificationHandler) -> NotificationHandler:
            self._notification_handlers[msg_cls] = fn
            return fn

        return register

    def on_bulk_sink(self, msg_cls: Type[Message]):
        """Register a receiver for pushed bulk data: the handler gets
        ``(init_msg, payload, arrival_time, sender)`` after the raw stream
        lands (Section III-B upload path)."""

        def register(fn):
            self._bulk_sink_handlers[msg_cls] = fn
            return fn

        return register

    def on_bulk_source(self, msg_cls: Type[Message]):
        """Register a provider for pulled bulk data: the handler gets
        ``(request_msg, t_start, sender)`` and returns
        ``(response, t_done, payload, nbytes)`` (download path)."""

        def register(fn):
            self._bulk_source_handlers[msg_cls] = fn
            return fn

        return register

    def on_connect(self, fn: Callable[[str, Any, float], None]) -> Callable[[str, Any, float], None]:
        """Register the handler observing accepted connections."""
        self._connect_handler = fn
        return fn

    def install_batch_dispatch(
        self,
        on_error: Optional[Callable[[str], Response]] = None,
        guard: Optional[Callable[[Message, "GCFProcess"], Optional[Response]]] = None,
        observe: Optional[Callable[[Message, Response, "GCFProcess"], None]] = None,
    ) -> None:
        """Make this process accept :class:`CommandBatch` envelopes.

        The installed handler decodes the envelope's sub-commands,
        charges the host's (cheaper) ``batch_command_overhead`` per
        command, and replays each through the handler registered for its
        type, in order — the server half of asynchronous batched call
        forwarding.  ``on_error`` maps a description of an undispatchable
        sub-command (undecodable bytes, no handler, nested batch) to the
        Response placed in its reply slot; without it such a command
        raises :class:`NetworkError`.

        A sub-command with a *section* (:meth:`request_batch`) gets it
        as a fourth handler argument, ``(payload, arrival)``; a guarded
        one never sees it — its bytes crossed the link and are dropped.
        A handler may also return sections to stream back, as a third
        value: a list of ``(payload, nbytes, start)``, ``None`` for a
        section it did not read; they leave at their ``start``, not
        behind the batch reply.

        ``guard``/``observe`` are the dispatch *interceptor* hooks the
        daemon uses for dependency poisoning: ``guard(sub, sender, last)``
        (``last``: ``sub`` closes the batch) may return a Response that
        short-circuits the sub-command (placed in its positional reply
        slot without running the handler, counted in
        ``stats.poisoned_commands``); ``observe(sub, response, sender)``
        sees every sub-command's outcome — guarded or executed — so a
        failed creation can poison its provisional IDs for later
        commands.  Failures are therefore always reported *positionally*
        in the batch reply: slot ``i`` answers for command ``i``, whether
        it ran, was poisoned, or could not be dispatched at all.

        Each slot of the :class:`CommandBatchResponse` is the reply
        object itself — the handler's, the guard's or ``on_error``'s —
        exactly as :meth:`request` hands back a single reply — unless
        every slot is a :attr:`~repro.net.messages.Response.bare`
        success, which the reply lists as no slots at all.  The
        commands are the one part of a batch that crosses as bytes:
        byte-identical sub-commands — e.g. one source built by N
        tenants, or the same ``FinishRequest`` from tenants whose
        drivers numbered their queues alike — are decoded once through
        this receiver's
        :class:`~repro.net.messages.WireDecodeCache` (handlers still
        always run).  Every received sub-command — executed, guarded or
        undispatchable — bumps ``stats.batched_commands_received``
        exactly once; reused decodes surface as
        ``stats.decode_cache_hits``.

        **Replay dedupe** (exactly-once effect): a batch carrying a
        replay identity (``msg.seq >= 0``) is looked up in a cache of
        ``REPLAY_CACHE_SIZE`` replies keyed ``(sender name, epoch, seq)``
        *before* any handler runs.  A hit re-answers the replayed batch from the cached
        :class:`CommandBatchResponse` and re-streams its returned
        sections — no handler re-executes, no
        kernel runs twice, no transfer double-applies — and bumps
        ``stats.deduped_batches`` (the batch's sub-commands are *not*
        re-counted in ``batched_commands_received``).  Identity-less
        batches (``seq < 0``, the happy path) skip the lookup entirely.
        """
        decode_cache = WireDecodeCache()
        replay_cache: "OrderedDict[Tuple[str, int, int], tuple]" = OrderedDict()

        def undispatchable(detail: str) -> Response:
            if on_error is None:
                raise NetworkError(f"process {self.name!r}: {detail}")
            return on_error(detail)

        @self.on_request(CommandBatch)
        def dispatch_batch(msg: CommandBatch, t: float, sender: "GCFProcess", sections=None):
            replay_key = None
            if msg.seq >= 0:
                replay_key = (sender.name, msg.epoch, msg.seq)
                cached = replay_cache.get(replay_key)
                if cached is not None:
                    replay_cache.move_to_end(replay_key)
                    self.stats.deduped_batches += 1
                    reply, returned = cached
                    return reply, t, {
                        i: [s and (s[0], s[1], max(s[2], t)) for s in out]
                        for i, out in returned.items()
                    }
            per_cmd = self.host.spec.batch_command_overhead
            results: List[Response] = []
            returned: Dict[int, list] = {}
            tcur = t
            self.stats.batched_commands_received += len(msg.commands)
            last = len(msg.commands) - 1
            for i, raw in enumerate(msg.commands):
                decode_hits = decode_cache.hits
                try:
                    sub = decode_cache.decode(raw)
                except CodecError as exc:
                    results.append(undispatchable(f"undecodable batched command: {exc}"))
                    continue
                self.stats.decode_cache_hits += decode_cache.hits - decode_hits
                self.stats.count_command(type(sub).__name__, len(raw))
                handler = self._request_handlers.get(type(sub))
                if handler is None or isinstance(sub, CommandBatch):
                    results.append(undispatchable(f"{type(sub).__name__} cannot be batch-forwarded"))
                    continue
                if guard is not None:
                    short = guard(sub, sender, i == last)
                    if short is not None:
                        # Skipping still costs the dispatch slice: the
                        # daemon decoded and inspected the command to
                        # decide not to run it.
                        iv = self.cpu.allocate(
                            tcur, per_cmd, f"{type(sub).__name__}:skipped"
                        )
                        tcur = iv.end
                        # Success short-circuits (a no-op release of a
                        # never-materialised handle) are not poisoned
                        # rejections; count only error skips.
                        if getattr(short, "error", 0):
                            self.stats.poisoned_commands += 1
                        if observe is not None:
                            observe(sub, short, sender)
                        results.append(short)
                        continue
                iv = self.cpu.allocate(tcur, per_cmd, type(sub).__name__)
                section = (sections[i],) if sections and i in sections else ()
                response, t_done, *out = handler(sub, iv.end, sender, *section)
                if out:
                    returned[i] = out[0]
                if t_done < iv.end:
                    raise NetworkError(
                        f"handler for {type(sub).__name__} returned "
                        f"t_done={t_done} < start={iv.end}"
                    )
                tcur = t_done
                if observe is not None:
                    observe(sub, response, sender)
                results.append(response)
            if all(r.bare and not r.error for r in results):
                results = []
            reply = CommandBatchResponse(results=results)
            if replay_key is not None:
                replay_cache[replay_key] = (reply, returned)
                if len(replay_cache) > REPLAY_CACHE_SIZE:
                    replay_cache.popitem(last=False)
            return reply, tcur, returned

    def on_disconnect(self, fn: Callable[[str, float], None]) -> Callable[[str, float], None]:
        """Register the handler observing peer disconnects."""
        self._disconnect_handler = fn
        return fn

    # ------------------------------------------------------------------
    # connection management (client side)
    # ------------------------------------------------------------------
    def connect(self, target: "GCFProcess", t: float, payload: Any = None) -> float:
        """Handshake with ``target``; returns the time the connection is
        established on the caller side.  The target's connect handler may
        raise :class:`ConnectionRefused` (e.g. invalid auth ID)."""
        arrival = self.network.transfer(self.host, target.host, t, 128)
        setup = target.host.spec.request_overhead + target.connect_setup_duration
        iv = target.cpu.allocate(arrival, setup, "connect")
        if target._connect_handler is not None:
            target._connect_handler(self.name, payload, iv.end)  # may raise
        back = self.network.transfer(target.host, self.host, iv.end, 128)
        self.peers[target.name] = target
        target.peers[self.name] = self
        return back

    def disconnect(self, target: "GCFProcess", t: float) -> float:
        """Tear down; the target's disconnect handler observes it."""
        if target.name not in self.peers:
            raise NetworkError(f"{self.name!r} is not connected to {target.name!r}")
        arrival = self.network.transfer(self.host, target.host, t, 128)
        if target._disconnect_handler is not None:
            target._disconnect_handler(self.name, arrival)
        del self.peers[target.name]
        target.peers.pop(self.name, None)
        return arrival

    # ------------------------------------------------------------------
    # message-based communication
    # ------------------------------------------------------------------
    def _round_trip(
        self, target: "GCFProcess", handler: Callable, msg: Message, t: float
    ) -> Tuple[RequestOutcome, list]:
        """The one round-trip body under :meth:`request`,
        :meth:`request_batch` and :meth:`fetch_bulk`: size each message
        once (``wire_size`` walks the payload), request leg, the
        target's ``request_overhead`` CPU slice, ``handler``, reply leg,
        byte counters.  Legs and slice are tagged with their message's
        class name — what fault plans address.  Returns the outcome plus
        whatever ``handler`` returned beyond ``(response, t_done)`` (a
        bulk source's ``payload, nbytes``)."""
        name = type(msg).__name__
        msg_size = msg.wire_size
        arrival = self.network.transfer(self.host, target.host, t, msg_size, tag=name)
        iv = target.cpu.allocate(arrival, target.host.spec.request_overhead, name)
        response, t_done, *extra = handler(msg, iv.end, self)
        if t_done < iv.end:
            raise NetworkError(
                f"handler for {name} returned t_done={t_done} < start={iv.end}"
            )
        response_size = response.wire_size
        reply_arrival = self.network.transfer(
            target.host, self.host, t_done, response_size, tag=type(response).__name__
        )
        self.stats.bytes_sent += msg_size
        self.stats.bytes_received += response_size
        return RequestOutcome([response], t, arrival, t_done, reply_arrival), extra

    def request(self, target: "GCFProcess", msg: Request, t: float) -> RequestOutcome:
        """Synchronous request/response round trip."""
        handler = target._request_handlers.get(type(msg))
        if handler is None:
            raise NetworkError(
                f"process {target.name!r} has no handler for {type(msg).__name__}"
            )
        outcome, _ = self._round_trip(target, handler, msg, t)
        self.stats.requests += 1
        return outcome

    def request_batch(
        self,
        target: "GCFProcess",
        msgs: Sequence[Request],
        t: float,
        epoch: int = 0,
        seq: int = -1,
        sections: Optional[Dict[int, Tuple[Any, int]]] = None,
    ) -> RequestOutcome:
        """Forward a whole send window in ONE round trip.

        The commands are serialised into a :class:`CommandBatch` envelope
        (one protocol header for the lot), dispatched by the target's
        ``CommandBatch`` handler — which decodes each sub-command and
        charges CPU per command — and their responses come back together
        in the single :class:`CommandBatchResponse` reply, as the
        outcome's ``responses`` (batch order; the receiver's objects, as
        for :meth:`request`; none when every command succeeded with a
        bare reply).

        Encoding is memoised per command instance
        (:meth:`~repro.net.messages.Message.cached_wire`): a command
        replicated into several daemons' windows as the *same* instance
        is encoded exactly once (``stats.encode_cache_hits`` counts the
        reuses).

        ``epoch``/``seq`` stamp the batch's replay identity for the
        receiver's dispatch dedupe (see :meth:`install_batch_dispatch`);
        the defaults leave the batch identity-less and its wire bytes
        unchanged.

        ``sections`` maps a command's index to the ``(payload, nbytes)``
        it streams: each payload leaves right behind the batch message on
        the same link, as the batch leg does, without waiting for a
        reply, and the receiver's handler for that command gets it with
        its arrival time.  Sections a handler streams back (a download)
        leave the target when the handler says, ahead of the reply leg:
        the outcome's ``sections`` maps the command's index to a list of
        ``(payload, arrival)``, ``None`` for a section not read.  A
        replayed batch streams both again.
        """
        if not msgs:
            raise ValueError("request_batch needs at least one command")
        handler = target._request_handlers.get(CommandBatch)
        if handler is None:
            raise NetworkError(
                f"process {target.name!r} does not accept command batches"
            )
        commands = []
        for m in msgs:
            if "_cached_wire" in m.__dict__:
                self.stats.encode_cache_hits += 1
            commands.append(m.cached_wire())
        batch = CommandBatch(commands=commands, epoch=epoch, seq=seq)
        net, back = self.network, []

        def stream(msg, t_start, sender):  # the batch leg has left: stream
            arrived = {
                i: (payload, net.transfer(
                    self.host, target.host, t, nbytes, tag=f"bulk:{type(msgs[i]).__name__}"
                ))
                for i, (payload, nbytes) in (sections or {}).items()
            }
            extra = (arrived,) if sections else ()
            reply, t_done, *returned = handler(msg, t_start, sender, *extra)
            landed = {}
            for i, out in (returned[0] if returned else {}).items():
                tag = f"bulk:{type(msgs[i]).__name__}"
                landed[i] = [
                    s and (s[0], net.transfer(target.host, self.host, s[2], s[1], tag=tag))
                    for s in out
                ]
                back.extend(s[1] for s in out if s)
            return reply, t_done, landed

        outcome, (landed,) = self._round_trip(target, stream, batch, t)
        outcome.sections = landed
        self.stats.bytes_received += sum(back)
        if sections:
            self.stats.bulk_sends += len(sections)
            self.stats.bytes_sent += sum(nbytes for _, nbytes in sections.values())
        reply = outcome.response
        if not isinstance(reply, CommandBatchResponse) or len(reply.results) not in (0, len(msgs)):
            raise NetworkError(
                f"process {target.name!r} answered a {len(msgs)}-command batch with "
                f"{type(reply).__name__}"
            )
        self.stats.batches += 1
        self.stats.batched_commands += len(msgs)
        for m, raw in zip(msgs, commands):
            self.stats.count_command(type(m).__name__, len(raw))
        outcome.responses = reply.results
        return outcome

    def notify(self, target: "GCFProcess", msg: Notification, t: float) -> float:
        """One-way asynchronous notification; returns delivery time."""
        msg_size = msg.wire_size
        arrival = self.network.transfer(self.host, target.host, t, msg_size, tag=type(msg).__name__)
        self.stats.notifications += 1
        self.stats.bytes_sent += msg_size
        handler = target._notification_handlers.get(type(msg))
        if handler is not None:
            handler(msg, arrival, self)
        return arrival

    # ------------------------------------------------------------------
    # stream-based communication
    # ------------------------------------------------------------------
    def send_bulk(
        self,
        target: "GCFProcess",
        init: Request,
        payload: Any,
        nbytes: int,
        t: float,
    ) -> RequestOutcome:
        """Stream-based upload: initialising request/response exchange,
        then the raw payload.  ``payload`` is handed to the target's
        bulk-sink handler as-is (zero-copy: pass an ndarray or memoryview
        and no intermediate byte string is materialised).  Returns the
        init exchange's outcome with ``arrival`` moved to when the
        payload landed.

        When the init reply reports an error the stream is aborted: the
        payload is never transferred and the sink never runs — the
        receiver's up-front validation (stale IDs, malformed section
        tables) rejects the upload before any state changes, and the
        caller surfaces the error response.
        """
        sink = target._bulk_sink_handlers.get(type(init))
        if sink is None:
            raise NetworkError(
                f"process {target.name!r} has no bulk sink for {type(init).__name__}"
            )
        outcome = self.request(target, init, t)
        if getattr(outcome.response, "error", 0):
            return outcome
        outcome.arrival = self.network.transfer(
            self.host, target.host, outcome.reply_arrival, nbytes, tag=f"bulk:{type(init).__name__}"
        )
        self.stats.bulk_sends += 1
        self.stats.bytes_sent += nbytes
        sink(init, payload, outcome.arrival, self)
        return outcome

    def fetch_bulk(self, target: "GCFProcess", request: Request, t: float) -> RequestOutcome:
        """Stream-based download: request, then the raw payload streams
        back.  The outcome's ``payload`` is whatever the bulk source
        produced (ndarray/bytes), unconverted, and ``arrival`` is when
        it landed."""
        source = target._bulk_source_handlers.get(type(request))
        if source is None:
            raise NetworkError(
                f"process {target.name!r} has no bulk source for {type(request).__name__}"
            )
        outcome, (payload, nbytes) = self._round_trip(target, source, request, t)
        outcome.payload = payload
        outcome.arrival = self.network.transfer(
            target.host, self.host, outcome.reply_arrival, nbytes, tag=f"bulk:{type(request).__name__}"
        )
        self.stats.bulk_fetches += 1
        self.stats.bytes_received += nbytes
        return outcome

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GCFProcess {self.name!r} on {self.host.name!r}>"
