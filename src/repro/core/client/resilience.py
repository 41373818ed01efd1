"""The client driver's transport: one way to talk to a daemon.

"The main task of the client driver is to intercept calls to OpenCL API
functions and redirect them to daemons" (Section III-B).  The redirect
itself lives here, once, as the driver's :class:`Transport`:

* :meth:`Transport.exchange` — the **one blocking exchange primitive**.
  A request, a bulk upload and a bulk fetch are the same protocol around
  a different send: attempt every connection at the same client time,
  surface a lost daemon, resume at the latest arrival, and only *then*
  raise the first error reply — it costs the round trip that carried it.
* :meth:`Transport.dispatch_batches` — the one ``CommandBatch``
  dispatcher (a flush does not block; failures stash).
* :meth:`Transport.attempt` — the retry loop under both: a no-op without
  a :class:`RetryPolicy`; with one, timeouts charged on the client
  clock, exponential backoff, and a spent budget declares the daemon
  dead (:meth:`Transport.declare_lost`).
* The **failure stash** — the first failure met where raising is not
  allowed (a flush inside a notification handler, a daemon lost
  mid-dispatch), held for the next client-initiated sync point.

**The replay contract.**  Everything the retry loop may re-send is
either *replay-safe* (validation-only init whose whole-object write
lands with the last leg; barrier; query) or *deduped* (a
``CommandBatch`` sent under a policy
carries the connection's ``(epoch, seq)``, which the daemon answers
from its cached reply).  The reference path's single creation / build /
enqueue requests are neither, so ``ReferenceDriver`` rejects a retry
policy at construction.  The per-exchange table
is in ``docs/architecture.md``, "Failure semantics", as are the *CL
error mapping rules* whose single home is :func:`cl_error_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.client.connection import ServerConnection
from repro.core.client.windows import WindowCommand
from repro.core.protocol import messages as P
from repro.net.gcf import GCFProcess, RequestOutcome
from repro.net.link import (
    ConnectionRefused,
    ConnectionReset,
    HostUnreachable,
)
from repro.ocl.constants import ErrorCode
from repro.ocl.errors import CLError
from repro.sim.clock import VirtualClock
from repro.sim.errors import CommunicationError


@dataclass(frozen=True)
class RetryPolicy:
    """Per-request timeout/backoff budget for client transport calls.

    ``timeout`` is the base penalty (simulated seconds) charged for a
    failed attempt; attempt ``k`` (0-based) waits
    ``timeout * backoff**k``.  ``max_attempts`` bounds the total number
    of attempts; once exhausted the daemon is declared dead.
    """

    timeout: float = 0.05
    backoff: float = 2.0
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.timeout < 0:
            raise ValueError(f"negative timeout {self.timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def penalty(self, attempt: int) -> float:
        """Simulated seconds charged for failed attempt ``attempt`` (0-based)."""
        return self.timeout * (self.backoff ** attempt)


def cl_error_for(exc: BaseException) -> Tuple[int, str]:
    """Map a communication failure to its OpenCL error code + message.

    The rules (kept in one place so client, daemon and docs agree):

    * :class:`ConnectionRefused` — the server rejected the session
      (bad auth): ``CL_CONNECTION_ERROR_WWU``.
    * :class:`HostUnreachable` — no such host on the network:
      ``CL_CONNECTION_ERROR_WWU``.
    * :class:`ConnectionReset` — the remote process crashed:
      ``CL_DEVICE_NOT_AVAILABLE`` (its devices are gone).
    * Any other :class:`CommunicationError` (drop, sever, truncation,
      closed channel) that survived the retry budget:
      ``CL_DEVICE_NOT_AVAILABLE`` — the devices behind the link are
      unreachable for good.
    """
    if isinstance(exc, ConnectionRefused):
        return ErrorCode.CL_CONNECTION_ERROR_WWU, f"connection refused: {exc}"
    if isinstance(exc, HostUnreachable):
        return ErrorCode.CL_CONNECTION_ERROR_WWU, f"host unreachable: {exc}"
    if isinstance(exc, ConnectionReset):
        return ErrorCode.CL_DEVICE_NOT_AVAILABLE, f"daemon crashed: {exc}"
    if isinstance(exc, CommunicationError):
        return ErrorCode.CL_DEVICE_NOT_AVAILABLE, f"daemon unreachable: {exc}"
    return ErrorCode.CL_CONNECTION_ERROR_WWU, str(exc)


class Transport:
    """Every client→daemon exchange of one driver (module docstring).
    ``on_daemon_lost(conn, code, reason)`` is the driver's half of a
    daemon-loss declaration — poisoning, eviction; it must not raise."""

    def __init__(
        self,
        gcf: GCFProcess,
        clock: VirtualClock,
        policy: Optional[RetryPolicy],
        on_daemon_lost: Callable[[ServerConnection, int, str], None],
    ) -> None:
        self.gcf = gcf
        self.clock = clock
        self.policy = policy
        self.stats = gcf.stats
        self._on_daemon_lost = on_daemon_lost
        # The stash: the first unreported failure, as (deferred command
        # to blame or None for a lost daemon, error code, detail, time
        # the client learns of it).
        self._deferred_failure: Optional[Tuple[Optional[P.Request], int, str, float]] = None
        #: Nesting depth of :meth:`dispatch_batches`.  While > 0, batches
        #: detached but not yet sent are no longer protected by in-window
        #: program order, so the driver must not overflow-flush: a
        #: mid-dispatch relay batch could overtake the detached batch
        #: holding its replica's CreateUserEventRequest.
        self.dispatch_depth = 0

    # ------------------------------------------------------------------
    # usability and daemon loss
    # ------------------------------------------------------------------
    @staticmethod
    def check_usable(conn: ServerConnection) -> None:
        """Raise the connection's terminal error: ``CL_DEVICE_NOT_AVAILABLE``
        for a daemon declared dead, ``CL_INVALID_SERVER_WWU`` for an
        orderly disconnect."""
        if conn.dead:
            raise CLError(
                ErrorCode.CL_DEVICE_NOT_AVAILABLE,
                f"daemon {conn.name!r} is dead: {conn.dead_reason}",
            )
        if not conn.connected:
            raise CLError(
                ErrorCode.CL_INVALID_SERVER_WWU,
                f"server {conn.name!r} was disconnected; objects on it are gone",
            )

    def declare_lost(self, conn: ServerConnection, exc: BaseException) -> None:
        """Graceful degradation after an exhausted retry budget (or a
        connection reset): mark the connection dead, its devices
        unavailable and its window undeliverable, let the driver poison
        and evict what lived on the daemon, and stash the loss so it
        surfaces as a ``CL_DEVICE_NOT_AVAILABLE``-class error at the next
        sync point.  Never raises — it can run inside a notification
        handler's flush."""
        if conn.dead:
            return
        code, detail = cl_error_for(exc)
        conn.dead = True
        conn.dead_reason = detail
        conn.connected = False
        conn.window.swap_out()  # anything still windowed can never be delivered
        self.stats.dead_daemons += 1
        for dev in conn.devices:
            dev.available = False
        self.gcf.peers.pop(conn.gcf.name, None)
        conn.gcf.peers.pop(self.gcf.name, None)
        reason = f"daemon {conn.name!r} died: {detail}"
        self._on_daemon_lost(conn, int(code), reason)
        self._stash(None, int(code), reason, self.clock.now)

    # ------------------------------------------------------------------
    # the retry loop
    # ------------------------------------------------------------------
    def attempt(
        self, conn: ServerConnection, send: Callable[[], RequestOutcome]
    ) -> Optional[RequestOutcome]:
        """Run ``send`` under the retry policy.

        Without a policy this is exactly ``send()``, exceptions included.
        With one, a :class:`CommunicationError` charges the policy's
        timeout penalty on the client clock (``stats.timeouts``) and
        ``send`` is re-attempted with exponential backoff
        (``stats.retries``); a :class:`ConnectionReset` — or the crash
        probe: a crashed daemon wiped its peer table, so this client is
        no longer registered there — skips the remaining budget.  A
        spent budget declares the daemon dead and returns ``None``:
        :meth:`exchange` raises from there, no-raise callers leave the
        stashed loss for the next sync point."""
        policy = self.policy
        if policy is None:
            return send()
        if conn.dead:
            return None
        failure: Optional[BaseException] = None
        for n in range(policy.max_attempts):
            if self.gcf.name not in conn.gcf.peers:
                failure = failure or ConnectionReset(
                    f"daemon {conn.name!r} dropped the session (crash/restart)"
                )
                break
            try:
                return send()
            except ConnectionReset as exc:
                failure = exc
                break
            except CommunicationError as exc:
                failure = exc
                self.stats.timeouts += 1
                self.clock.advance_by(policy.penalty(n))
                if n + 1 < policy.max_attempts:
                    self.stats.retries += 1
        self.declare_lost(conn, failure)
        return None

    # ------------------------------------------------------------------
    # the blocking exchange primitive
    # ------------------------------------------------------------------
    @staticmethod
    def check(response) -> object:
        """Raise a faithful CLError if a daemon response reports one."""
        error = getattr(response, "error", 0)
        if error:
            raise CLError(ErrorCode(error), getattr(response, "detail", ""))
        return response

    def exchange(
        self,
        conns: Sequence[ServerConnection],
        send: Callable[[ServerConnection, float], RequestOutcome],
        check: bool = True,
    ) -> Dict[str, RequestOutcome]:
        """One blocking exchange with each of ``conns``: ``send(conn,
        t)`` runs once per connection under the retry loop, all at the
        same client time (GCF sends asynchronously, Section III-B; the
        clock only moves past it when a retry charged its penalty).  A
        connection that cannot carry it — disconnected, or its daemon
        declared dead before or mid-exchange — raises the stashed
        failure or its terminal error, before anything is sent when
        already known.  Otherwise the client resumes at the latest
        arrival and then — ``check`` — the first error reply raises.
        Ordering against the send windows is the caller's business: it
        flushes what must precede the exchange first."""
        for conn in conns:
            if not conn.connected:
                self._surface_loss(conn)
        outcomes: Dict[str, RequestOutcome] = {}
        for conn in conns:
            outcome = self.attempt(conn, lambda: send(conn, self.clock.now))
            if outcome is None:
                self._surface_loss(conn)
            outcomes[conn.name] = outcome
        for outcome in outcomes.values():
            self.clock.advance_to(outcome.arrival)  # never backwards: the latest
        if check:
            for outcome in outcomes.values():
                self.check(outcome.response)
        return outcomes

    def _surface_loss(self, conn: ServerConnection) -> None:
        """``conn`` cannot carry an exchange: raise the stashed failure
        or, if an earlier sync point already surfaced it, the
        connection's terminal error.  Always raises."""
        self.surface_deferred_failure()
        self.check_usable(conn)

    def request(
        self, conns: Sequence[ServerConnection], make_msg, check: bool = True
    ) -> Dict[str, RequestOutcome]:
        """Exchange one request (``make_msg(conn)``) with each connection."""
        return self.exchange(
            conns, lambda conn, t: self.gcf.request(conn.gcf, make_msg(conn), t), check
        )

    def upload(
        self, conns: Sequence[ServerConnection], make_init, payload, nbytes: int
    ) -> Dict[str, RequestOutcome]:
        """Stream ``payload`` to each connection behind its
        ``make_init(conn)`` exchange."""
        return self.exchange(
            conns,
            lambda conn, t: self.gcf.send_bulk(conn.gcf, make_init(conn), payload, nbytes, t),
        )

    def fetch(self, conn: ServerConnection, request: P.Request) -> RequestOutcome:
        """The reference path's bulk download from ``conn`` (never sent
        under a retry policy: the pipeline's downloads ride batches)."""
        return self.exchange([conn], lambda c, t: self.gcf.fetch_bulk(c.gcf, request, t))[
            conn.name
        ]

    def post(self, conn: ServerConnection, msg: P.Request, not_before: float) -> None:
        """A request from a context that must neither raise nor block (a
        notification handler): the bare retry loop, the reply ignored."""
        self.attempt(
            conn,
            lambda: self.gcf.request(conn.gcf, msg, max(not_before, self.clock.now)),
        )

    # ------------------------------------------------------------------
    # batch dispatch and the failure stash
    # ------------------------------------------------------------------
    def dispatch_batches(
        self, batches: Sequence[Tuple[ServerConnection, Sequence[WindowCommand]]], tail=None
    ) -> Optional[RequestOutcome]:
        """Send each ``(connection, window commands)`` pair as one
        CommandBatch, all at the same client time, and stash the first
        failure.  The command lists must already be detached from their
        windows (``swap_out`` / ``split_prefix``): dispatching can defer
        new commands, which belong in the live windows.

        ``tail = (connection, closes_batch request)`` rides last in the
        batch to that connection, its reply no deferred failure; that
        batch's outcome is returned (``None``: none was answered).  A
        windowed host write's payload streams as a section behind its
        batch (every attempt re-streams it); a windowed download's reply
        and returned sections go to its ``sink``, not to the stash.

        Without a policy a batch is identity-less (no replay fields on
        the wire); with one it carries the connection's ``(epoch, next
        seq)``, so every re-send is byte-identical and the daemon's
        dispatch dedupe answers a replay from its cached reply."""
        if not batches:
            return None
        folded = None
        self.dispatch_depth += 1
        try:
            for conn, commands in batches:
                msgs = [c.msg for c in commands]
                sent = msgs + [tail[1]] if tail is not None and conn is tail[0] else msgs
                sections = {
                    i: (c.payload, c.msg.nbytes)
                    for i, c in enumerate(commands)
                    if c.payload is not None
                }
                epoch, seq = 0, -1
                if self.policy is not None:
                    epoch, seq = conn.epoch, conn.next_seq
                    conn.next_seq += 1
                sends = count()

                def send():
                    if next(sends):
                        self.stats.replayed_batches += 1
                    return self.gcf.request_batch(
                        conn.gcf, sent, self.clock.now, epoch=epoch, seq=seq, sections=sections
                    )

                outcome = self.attempt(conn, send)
                if outcome is not None:  # else declared dead: the loss is stashed
                    self.record_failures([None if c.sink else c.msg for c in commands], outcome)
                    if sent is not msgs:
                        folded = outcome
                for i, c in enumerate(commands):
                    if c.sink is not None:
                        c.sink(outcome, i)
        finally:
            self.dispatch_depth -= 1
        return folded

    def _stash(self, msg: Optional[P.Request], error: int, detail: str, arrival: float) -> None:
        if self._deferred_failure is None:
            self._deferred_failure = (msg, error, detail, arrival)

    def record_failures(self, msgs: Sequence[P.Request], outcome: RequestOutcome) -> None:
        """Stash the first daemon-reported failure among ``outcome``'s
        positional replies to ``msgs`` (checked per batch, as each
        returns, so a later transport error cannot discard an earlier
        batch's deferred error).  A ``None`` message's reply is not
        judged here."""
        for msg, response in zip(msgs, outcome.responses):
            error = getattr(response, "error", 0)
            if error and msg is not None:
                self._stash(msg, error, getattr(response, "detail", ""), outcome.reply_arrival)
                return

    @property
    def failure_pending(self) -> bool:
        """Whether a failure is stashed for the next sync point."""
        return self._deferred_failure is not None

    def surface_deferred_failure(self) -> None:
        """Raise the stashed failure, if any — called at client-initiated
        sync points only, never from inside a daemon-to-client
        callback."""
        if self._deferred_failure is None:
            return
        msg, error, detail, arrival = self._deferred_failure
        self._deferred_failure = None
        self.clock.advance_to(arrival)  # the client learns here
        if msg is not None:
            _reads, creates = P.request_handles(msg)
            ids = f" (handle {', '.join(map(str, sorted(creates)))})" if creates else ""
            detail = f"deferred {type(msg).__name__}{ids} failed: {detail}"
        raise CLError(ErrorCode(error), detail)
