"""Request/response/notification messages for every forwarded CL call.

Every payload field is wire-codec encodable (the sizes the network model
charges are measured from real encodings).  Management objects are always
referred to by the *client-assigned unique ID* — the essence of the
paper's stub design: "Stubs are created by the client driver and assigned
a unique ID which corresponds to a remote object" (Section III-D).

Responses carry ``error`` (an OpenCL error code, 0 on success) and
``detail`` so the client driver can re-raise a faithful ``CLError``.

What the forwarding pipeline knows about a request is declared **on the
request** and compiled at registration, like the codec: each stub-ID
field's role (:func:`reads`, :func:`creates`, :func:`mutates`,
:func:`releases`) feeds :func:`request_handles`, the dependency metadata
both sides of the wire consult, and :func:`message_type` takes how the
request may be (re)sent.  The module ends with the :data:`DEFERRABLE`
registry derived from it — the contract between the client driver's send
windows and the daemon's batch dispatcher; see its documentation for the
rules a deferrable request type must obey.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.net.messages import (
    CommandBatch,
    CommandBatchResponse,
    Notification,
    Request,
    Response,
    registered_types,
)
from repro.net.messages import message_type as _register

# ----------------------------------------------------------------------
# field roles (window graph + batch poisoning) and registration
# ----------------------------------------------------------------------
_EMPTY: FrozenSet[int] = frozenset()


def reads(default: object = dataclasses.MISSING):
    """Field role: a stub ID the request consumes — the window graph
    drains the windows producing it; the daemon answers the original
    error, unexecuted, while it is poisoned.  A ``List`` field gives its
    members (``None``: none); a defaulted ``int`` holding 0 names nothing
    (client IDs start at 1; a local/value ``clSetKernelArg`` leaves it)."""
    return dataclasses.field(default=default, metadata={"handle": "reads"})


def creates():
    """Field role: the provisional ID the request brings into existence
    (a handle promise) — poisoned if the request fails or is skipped, so
    dependents are skipped and the error surfaces positionally."""
    return dataclasses.field(metadata={"handle": "creates"})


def mutates():
    """Field role: read, and updated in place.  If the request fails (or
    the poison guard skips it) the daemon's copy keeps the previous
    state while the client believes the update took, so the dispatcher
    poisons the handle too: nothing may execute against the stale state
    (e.g. a launch running with a kernel's previous arg binding and
    silently writing the wrong buffer)."""
    return dataclasses.field(metadata={"handle": "mutates"})


def releases():
    """Field role: read, and disposed of.  Releasing a *poisoned* handle
    is the client cleaning up after a failed creation: the object never
    existed, so the release succeeds as a no-op and clears the poison
    entry (otherwise disposal would re-raise the already-surfaced
    creation error forever)."""
    return dataclasses.field(metadata={"handle": "releases"})


def _compile_roles(cls: type) -> None:
    """Generate ``cls``'s three extractors from its role-tagged fields,
    one expression each (they run three times per forwarded command)."""
    required, optional, created, mutated, released = [], [], [], [], "None"
    for f in dataclasses.fields(cls):
        role, ref = f.metadata.get("handle"), f"m.{f.name}"
        if role == "creates":
            created.append(ref)
        elif role is not None:
            if f.type.startswith("List"):
                optional.append(f"set({ref} or [])")
            elif f.default is dataclasses.MISSING:
                required.append(ref)
            else:
                optional.append(f"({{{ref}}} if {ref} else set())")
            if role == "mutates":
                mutated.append(ref)
            elif role == "releases":
                released = ref

    def ids(refs: List[str], unions: List[str] = ()) -> str:
        parts = [f"{{{', '.join(refs)}}}"] * bool(refs) + list(unions)
        return f"frozenset({' | '.join(parts)})" if parts else "_EMPTY"

    cls._handles = eval(f"lambda m: ({ids(required, optional)}, {ids(created)})")
    cls._mutations = eval(f"lambda m: {ids(mutated)}")
    cls._released = eval(f"lambda m: {released}")


def message_type(cls: type = None, *, deferrable: bool = False, replay_safe: str = None):
    """:func:`repro.net.messages.message_type` plus this module's
    declarations: ``deferrable`` — the request obeys the
    :data:`DEFERRABLE` rules and rides a (replay-deduped) send window —
    or ``replay_safe`` — why a ``Transport`` exchange may re-send it, in
    the words of ``docs/architecture.md``'s exchange table.  Roles
    matter on deferrable requests only: nothing else is ever windowed."""

    def register(cls: type) -> type:
        cls = _register(cls)
        cls.deferrable, cls.replay_safe = deferrable, replay_safe
        _compile_roles(cls)
        return cls

    return register if cls is None else register(cls)


# ----------------------------------------------------------------------
# generic
# ----------------------------------------------------------------------
@message_type
class Ack(Response):
    """Generic success/error reply for calls that return no data.

    This is the response type of every deferrable command, which is what
    makes the daemon-side reply cache effective: a successful batch of N
    commands answers N byte-identical ``Ack()`` encodings.
    """

    error: int = 0
    detail: str = ""


# ----------------------------------------------------------------------
# connection & discovery (Section III-C)
# ----------------------------------------------------------------------
@message_type
class ListDevicesRequest(Request):
    """``clGetDeviceIDs`` forwarded at connect time (Section III-C)."""

    device_type: int


@message_type
class ListDevicesResponse(Response):
    """Device IDs plus their full (immutable) info dicts.

    Shipping the info eagerly is why ``clGetDeviceInfo`` never touches
    the network afterwards (Section III-B)."""

    device_ids: List[int]
    infos: List[Dict[str, object]]
    error: int = 0
    detail: str = ""


@message_type(replay_safe="a query changes nothing")
class ServerInfoRequest(Request):
    """``clGetServerInfoWWU`` (paper Listing 1)."""


@message_type
class ServerInfoResponse(Response):
    """The daemon's self-description key/value map."""

    info: Dict[str, object]
    error: int = 0
    detail: str = ""


# ----------------------------------------------------------------------
# contexts / queues (compound and simple stubs, Section III-D)
# ----------------------------------------------------------------------
@message_type(deferrable=True)
class CreateContextRequest(Request):
    """Create this server's member of a compound context stub.

    Deferrable (a *handle promise*): the client assigns ``context_id``
    before anything is sent, so the call rides the send window and the
    stub is usable immediately; a daemon-side failure poisons the
    provisional ID and surfaces at the next sync point."""

    context_id: int = creates()
    device_ids: List[int]


@message_type(deferrable=True)
class ReleaseContextRequest(Request):
    """Drop the server-side context object (deferrable release class)."""

    context_id: int = releases()


@message_type(deferrable=True)
class CreateQueueRequest(Request):
    """``clCreateCommandQueue`` on the one server owning the device
    (deferrable handle promise, like :class:`CreateContextRequest`)."""

    queue_id: int = creates()
    context_id: int = reads()
    device_id: int
    properties: int = 0


@message_type(deferrable=True)
class ReleaseQueueRequest(Request):
    """Drop the server-side command queue (deferrable release class)."""

    queue_id: int = releases()


@message_type(replay_safe="a barrier changes nothing")
class FinishRequest(Request):
    """``clFinish``: blocks the client until the queue drains — always a
    synchronous round trip, and therefore a flush point."""

    queue_id: int


@message_type(deferrable=True)
class FlushRequest(Request):
    """``clFlush``: submission guarantee only, so it rides the batch.

    The client records a **submission barrier** on the daemon's send
    window alongside this request: every command queued before the
    flush (on any queue of the daemon) stays ahead of anything issued
    later, and prefix flushing never lets synchronous traffic overtake
    the flushed prefix (``SendWindow.barrier_floor``).  The daemon side
    is discharged by program-order batch replay — see the flush handler
    in :mod:`repro.core.daemon.daemon`."""

    queue_id: int = reads()


# ----------------------------------------------------------------------
# memory objects (Section III-D, coherence)
# ----------------------------------------------------------------------
@message_type(deferrable=True)
class CreateBufferRequest(Request):
    """Allocate this server's copy of a compound buffer stub
    (deferrable handle promise; allocation failures — e.g. exceeding
    device memory — poison the provisional ``buffer_id`` and surface at
    the next sync point touching the daemon)."""

    buffer_id: int = creates()
    context_id: int = reads()
    flags: int
    size: int


@message_type(deferrable=True)
class ReleaseBufferRequest(Request):
    """Drop the server-side buffer copy (deferrable release class)."""

    buffer_id: int = releases()


@message_type(replay_safe="init only validates; the whole-object write lands with the last leg")
class BufferDataUpload(Request):
    """Init message for an *application* write's client->server stream
    (``clEnqueueWriteBuffer`` / the upload half of ``clEnqueueCopyBuffer``):
    the one transfer that carries a wait list and a user-visible event.
    Coherence transfers use the section-table messages below.

    ``replica_servers`` names the peer daemons holding user-event
    replicas of ``event_id`` — set only when the receiving daemon runs
    the Section III-F direct broadcast, so it targets exactly the
    replica holders instead of blanketing every peer."""

    buffer_id: int
    queue_id: int
    event_id: int
    offset: int
    nbytes: int
    wait_event_ids: List[int]
    replica_servers: List[str] = None


@message_type(replay_safe="init only validates; the whole-object write lands with the last leg")
class CoalescedBufferUpload(Request):
    """Init message for a coherence client->server upload stream.

    A coherence transfer is a *section table*: the buffers the protocol
    must validate on one daemon between two sync points (typically the
    buffer arguments of one kernel launch; a single buffer on the
    reference path) ride one init round trip and one raw stream whose
    payload is the concatenation of the sections.  ``buffer_ids[i]`` /
    ``event_ids[i]`` / ``nbytes_list[i]`` describe section ``i``
    (whole-object uploads, so offsets are always zero); the daemon
    enqueues one write per section, in order, on ``queue_id`` and
    registers each section's (replica-less, internal) event.
    """

    queue_id: int
    buffer_ids: List[int]
    event_ids: List[int]
    nbytes_list: List[int]


@message_type(replay_safe="a fresh request (fresh transfer-event IDs) is built per attempt")
class CoalescedBufferDownload(Request):
    """Request for a coherence server->client download stream.

    The download twin of :class:`CoalescedBufferUpload`: the buffers
    whose client copy must be revalidated from one daemon between two
    sync points (one or more) ride a single request round trip whose
    reply streams every section back together (the payload is the list
    of per-section arrays, zero-copy, never concatenated).
    ``buffer_ids[i]`` / ``event_ids[i]`` / ``nbytes_list[i]`` describe
    section ``i`` (whole-object downloads, so offsets are always zero);
    the daemon enqueues one read per section, in order, on ``queue_id``
    and registers each section's event."""

    queue_id: int
    buffer_ids: List[int]
    event_ids: List[int]
    nbytes_list: List[int]


@message_type
class BufferDataResponse(Response):
    """Reply to an upload/download init: acknowledged byte count."""

    nbytes: int = 0
    error: int = 0
    detail: str = ""


@message_type(replay_safe="re-ships whole objects")
class BufferPeerTransferBatch(Request):
    """Section III-F server-to-server synchronisation: one request makes
    the receiving daemon push the listed buffer copies (one or more —
    every MOSI hop along the same ``(source, destination)`` daemon pair
    between two sync points) to the peer daemon in one direct exchange:
    one client round trip, and one daemon-to-daemon stream carrying
    every section (``buffer_ids[i]`` / ``nbytes_list[i]``) back to
    back."""

    peer_name: str
    buffer_ids: List[int]
    nbytes_list: List[int]


@message_type
class PeerPushRequest(Request):
    """Daemon-initiated server-to-server replica push (PR 9).

    Sent by the daemon that just completed a kernel write, directly to
    the predicted consumer daemon over the s2s peer mesh — no client
    round trip anywhere on the path.  The receiver *stages* the pushed
    bytes keyed ``(client_name, buffer_id)`` instead of writing its
    registry copy: commands already deferred in the receiver's send
    window may legitimately read the pre-push version, so the staged
    bytes only land when the owning client's :class:`PushCommit`
    arrives in program order.  ``epoch`` is the buffer's sync epoch the
    push belongs to (see
    :class:`~repro.core.coherence.planner.TransferPlanner`): a push
    that lost a race with a newer write is discarded by epoch check,
    never observed."""

    buffer_id: int
    client_name: str
    epoch: int
    nbytes: int


@message_type(deferrable=True)
class PushCommit(Request):
    """Client -> consumer daemon: land a staged speculative push.

    Deferrable (rides the consumer daemon's send window, zero round
    trips): the client's sync point validated the push's commit record
    against the buffer's current epoch, and program order lands the
    apply before the consuming command.  The handler pops the staged
    bytes into the registry copy; a missing or epoch-mismatched staging
    entry (possible only after the consumer daemon crashed) is answered
    with a deterministic error that surfaces at the next sync point —
    it never writes stale bytes."""

    # Read for the window graph (the consumer's closure must drain the
    # commit); mutated because a failed or skipped commit leaves the
    # daemon's copy pre-push while the directory believes it landed.
    buffer_id: int = mutates()
    epoch: int


# ----------------------------------------------------------------------
# programs / kernels
# ----------------------------------------------------------------------
@message_type
class CreateProgramRequest(Request):
    """Init message for the program-source stream — the reference
    (``batch_window=0``) path where ``clCreateProgramWithSource`` is a
    bulk transfer (Section III-B)."""

    program_id: int
    context_id: int
    source_bytes: int


@message_type(deferrable=True)
class CreateProgramWithSourceRequest(Request):
    """Deferrable ``clCreateProgramWithSource``: the source rides the
    send window inline instead of a dedicated bulk stream, so program
    creation costs no round trip of its own — the bytes travel in the
    ``CommandBatch`` the next sync point sends anyway."""

    program_id: int = creates()
    context_id: int = reads()
    source: str


@message_type(deferrable=True)
class CreateProgramCachedRequest(Request):
    """Deferrable ``clCreateProgramWithSource`` by *content address*:
    the client-stub cache already saw this source build on this daemon
    (same connection epoch), so the creation rides the send window as a
    digest reference instead of re-shipping the inline source.  The
    daemon re-materialises the program from its build cache's retained
    source (:meth:`~repro.core.daemon.buildcache.ProgramBuildCache.
    source_for`); an unknown digest — only possible after eviction —
    poisons the provisional ID like any failed creation."""

    program_id: int = creates()
    context_id: int = reads()
    digest: str


@message_type(replay_safe="a deterministic rebuild answering the identical reply")
class BuildProgramRequest(Request):
    """``clBuildProgram`` on one server (synchronous: the client needs
    the per-server build status)."""

    program_id: int
    options: str = ""


@message_type(deferrable=True)
class BuildProgramCachedRequest(Request):
    """Deferrable ``clBuildProgram`` for cache-enabled clients: the
    client resolved the build outcome locally (client-stub cache hit,
    or a local front-end pass on a miss), so no reply data is needed —
    the command rides the send window and the daemon resolves it
    against its own build cache (compile miss / adopt hit / replay
    negative).  A negatively-cached failure answers a *success* Ack:
    the client already surfaced the ``CL_BUILD_PROGRAM_FAILURE`` at the
    ``clBuildProgram`` call site, and the daemon's program object enters
    the identical ``ERROR`` state, so there is nothing left to report
    at the next sync point."""

    # Built in place; the client saw the outcome locally and will not
    # re-check, so an unresolvable build leaves a handle nobody may use.
    program_id: int = mutates()
    digest: str
    options: str = ""


@message_type(deferrable=True)
class CreateProgramWithBinaryRequest(Request):
    """Deferrable ``clCreateProgramWithBinary``: the serialized
    :class:`~repro.clc.driver.CompiledProgram` blob rides the send
    window; the daemon installs it into its build cache (skipping the
    compiler front-end) and registers the program handle."""

    program_id: int = creates()
    context_id: int = reads()
    binary: bytes = b""


@message_type(replay_safe="a query changes nothing")
class GetProgramBinaryRequest(Request):
    """``clGetProgramInfo(CL_PROGRAM_BINARIES)``: fetch the serialized
    program binary of a built program (synchronous — the client blocks
    on the blob)."""

    program_id: int


@message_type
class GetProgramBinaryResponse(Response):
    """The serialized program binary (see
    :func:`repro.clc.driver.serialize_program`)."""

    binary: bytes = b""
    error: int = 0
    detail: str = ""


@message_type
class BuildProgramResponse(Response):
    """Per-server build status and log.

    ``kernels`` maps each kernel name in the built program to its
    argument metadata (``num_args`` / ``arg_kinds`` / ``arg_types`` /
    ``writable_buffer_args``).  Shipping the metadata with the build
    reply is what lets ``clCreateKernel`` become a deferrable handle
    promise: the client fills its kernel stubs from the program stub's
    cached table and the creation call needs no reply data."""

    status: str = "SUCCESS"
    log: str = ""
    kernels: Dict[str, Dict[str, object]] = None
    error: int = 0
    detail: str = ""


@message_type(deferrable=True)
class ReleaseProgramRequest(Request):
    """Drop the server-side program (deferrable release class)."""

    program_id: int = releases()


@message_type(deferrable=True)
class CreateKernelRequest(Request):
    """``clCreateKernel`` (deferrable handle promise): the argument
    metadata the client needs arrived with the build reply
    (:class:`BuildProgramResponse`), so the creation itself is
    fire-and-forget and answers a plain :class:`Ack`."""

    kernel_id: int = creates()
    program_id: int = reads()
    name: str


@message_type(deferrable=True)
class SetKernelArgRequest(Request):
    """``clSetKernelArg`` replicated to every server of the context —
    the canonical deferrable (and reply-cacheable) command."""

    kernel_id: int = mutates()
    index: int
    kind: str  # "buffer" | "local" | "value"
    buffer_id: int = reads(default=0)
    local_nbytes: int = 0
    value: object = None


@message_type(deferrable=True)
class ReleaseKernelRequest(Request):
    """Drop the server-side kernel (deferrable release class)."""

    kernel_id: int = releases()


@message_type(deferrable=True)
class EnqueueKernelRequest(Request):
    """``clEnqueueNDRangeKernel`` — fire-and-forget from the client's
    point of view, so it rides the send window.

    ``replica_servers`` names the peer daemons holding user-event
    replicas of ``event_id`` (see :class:`BufferDataUpload`); only
    populated when the owning daemon runs the direct broadcast.

    ``push_hints`` piggybacks the client planner's directory hints
    (PR 9): one dict per writable buffer argument whose access history
    shows a stable producer->consumer edge, carrying ``buffer_id``,
    the ``epoch`` this launch's write creates and the ``target`` party
    (``"client"`` or a peer daemon name).  At kernel completion the
    daemon streams the written replica toward the target speculatively
    (see :class:`PeerPushRequest`); absent under the ``push_transfers``
    ablation flag."""

    queue_id: int = reads()
    kernel_id: int = reads()
    event_id: int = creates()
    global_size: List[int]
    local_size: List[int] = None  # empty/None -> implementation choice
    global_offset: List[int] = None
    wait_event_ids: List[int] = reads(default=None)
    replica_servers: List[str] = None
    push_hints: List[Dict[str, object]] = None


@message_type
class EnqueueKernelResponse(Response):
    """Launch acknowledgement (errors surface at the next sync point)."""

    error: int = 0
    detail: str = ""


# ----------------------------------------------------------------------
# events (Section III-D consistency protocol)
# ----------------------------------------------------------------------
@message_type(deferrable=True)
class CreateUserEventRequest(Request):
    """Create a user-event replica (the consistency protocol's stand-in
    for a remote original event, Section III-D)."""

    event_id: int = creates()
    context_id: int = reads()


@message_type(deferrable=True)
class SetUserEventStatusRequest(Request):
    """Complete a user event / user-event replica.

    Sent by the application (``clSetUserEventStatus`` fan-out) and by
    the client driver's completion *relay* when an original event
    finishes on its owning server.  Relays are deferrable: they join the
    replica server's send window, where program order guarantees the
    replica's :class:`CreateUserEventRequest` precedes them.

    ``min_time`` is the causality floor: the daemon applies the status
    no earlier than this virtual time.  A deferred relay may ride a
    batch whose dispatch is *modeled* earlier than the completion it
    reports (flushes are non-blocking in virtual time), so the relay
    carries "when the client learned of the completion, plus the
    client->server hop" and the replica can never resolve before the
    original event did.  Application-initiated status updates leave it
    at 0 (the status is known at call time).
    """

    event_id: int = reads()
    status: int
    min_time: float = 0.0


@message_type(deferrable=True)
class ReleaseEventRequest(Request):
    """Drop the server-side event (deferrable release class)."""

    event_id: int = releases()


@message_type
class EventCompleteNotification(Notification):
    """Sent by the daemon owning the original event when its status
    changes to CL_COMPLETE (registered via ``clSetEventCallback``).

    The push protocol's commit records ride this notification (PR 9):
    when the completed kernel carried ``push_hints``, the parallel
    ``push_*`` lists describe each push the daemon executed —
    ``push_targets[i]`` is ``"client"`` or a peer daemon name,
    ``push_payloads[i]`` carries the replica bytes for client-destined
    pushes (empty for peer pushes, whose bytes moved daemon-to-daemon),
    and ``push_epochs[i]`` the sync epoch the client validates before
    consuming.  One notification, zero extra round trips."""

    event_id: int
    status: int
    completed_at: float
    push_buffer_ids: List[int] = None
    push_epochs: List[int] = None
    push_targets: List[str] = None
    push_payloads: List[bytes] = None


# ----------------------------------------------------------------------
# device manager (Section IV)
# ----------------------------------------------------------------------
@message_type
class RegisterDaemonRequest(Request):
    """Daemon -> device manager, sent when starting in managed mode."""

    device_ids: List[int]
    infos: List[Dict[str, object]]


@message_type
class AssignmentRequest(Request):
    """Client driver -> device manager: the XML config's device list.

    ``wait=True`` opts into the oversubscription waiter queue: a request
    the inventory *could* satisfy but the free set currently cannot is
    parked (FIFO) instead of failing, and the lease arrives later as a
    :class:`LeaseGrantedNotification`."""

    requirements: List[Dict[str, object]]
    wait: bool = False


@message_type
class AssignmentResponse(Response):
    """The granted lease: auth ID plus the servers to connect to.

    With ``queued=True`` no lease was granted yet — the request was
    parked in the manager's waiter queue under ``ticket`` and the
    eventual grant arrives as a :class:`LeaseGrantedNotification`
    carrying the same ticket."""

    auth_id: str = ""
    server_names: List[str] = None
    error: int = 0
    detail: str = ""
    queued: bool = False
    ticket: str = ""


@message_type
class LeaseAssignNotification(Notification):
    """Device manager -> daemon: associate devices with an auth ID."""

    auth_id: str
    device_ids: List[int]


@message_type
class LeaseGrantedNotification(Notification):
    """Device manager -> waiting client: a queued assignment request
    (identified by its ``ticket``) was satisfied by a lease revocation;
    connect with ``auth_id`` exactly as for a synchronous grant."""

    ticket: str
    auth_id: str
    server_names: List[str]


@message_type
class LeaseReleaseRequest(Request):
    """Client driver -> device manager: application finished."""

    auth_id: str


@message_type
class LeaseRevokeNotification(Notification):
    """Device manager -> daemon: discard an auth ID."""

    auth_id: str


@message_type
class ClientLostNotification(Notification):
    """Daemon -> device manager: a client disconnected without releasing
    its lease (abnormal termination, Section IV-C)."""

    auth_id: str


# ----------------------------------------------------------------------
# asynchronous batched call forwarding
# ----------------------------------------------------------------------
# The batch envelope itself lives in repro.net.messages (it is a GCF
# transport concept, not a CL one); it is re-exported here because the
# daemon registers its dispatch handler alongside the CL handlers.

#: The **deferrable-request registry**: the contract between the client
#: driver's per-connection send windows and the daemon's batch
#: dispatcher.  A request type may be listed here only if all of the
#: following hold:
#:
#: 1. **Fire-and-forget semantics.**  The application does not need the
#:    reply to make progress — the only information a reply can carry is
#:    an error report (an Ack-class response), which the driver is
#:    allowed to surface later, at the next synchronization point, as a
#:    ``CLError`` (real OpenCL reports asynchronous failures the same
#:    way).  Requests whose replies carry data the caller consumes
#:    immediately (device lists, kernel metadata, bulk-stream inits)
#:    must stay synchronous.
#: 2. **Order-insensitive across daemons, order-preserving within one.**
#:    The daemon replays batched commands in client program order, and
#:    the driver flushes a window before any synchronous request or bulk
#:    stream to the same daemon — so per-daemon program order is
#:    preserved automatically.  Nothing may *require* cross-daemon
#:    ordering stronger than what the flush points provide.
#: 3. **Batch-dispatchable.**  The daemon must have an ``on_request``
#:    handler for the type (the dispatcher replays sub-commands through
#:    the normal handler table), and the type must not itself be an
#:    envelope (nested batches are rejected).
#:
#: Flush points — where windows drain and deferred errors surface — are
#: enumerated in :meth:`repro.core.client.driver.DOpenCLDriver.defer`'s
#: documentation and in ``docs/architecture.md``.
#:
#: **Creation calls are deferrable too** (handle promises): the client
#: assigns every stub its unique ID before anything is sent, so a
#: creation needs no reply data — the daemon registers the object under
#: the provisional ID when the batch replays, and a failure poisons the
#: ID (see :func:`request_handles`) so dependents are skipped and the
#: error surfaces positionally in the batch reply.
DEFERRABLE = frozenset(c for c in registered_types().values() if getattr(c, "deferrable", False))


def request_mutations(msg: Request) -> FrozenSet[int]:
    """The handle IDs ``msg`` :func:`mutates` in place: poisoned
    alongside its creations when the command fails or is skipped."""
    return msg._mutations()


def released_handle(msg: Request) -> Optional[int]:
    """The handle ``msg`` :func:`releases`, or ``None`` for any other request."""
    return msg._released()


def request_handles(msg: Request) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """``(reads, creates)`` — the stub IDs ``msg`` depends on
    (:func:`reads`, :func:`mutates`, :func:`releases` fields) and the
    provisional IDs it :func:`creates`: the dependency vocabulary the
    client window graph (plus driver-supplied extras, e.g. a launch's
    buffer arguments) and the daemon batch dispatcher share.  Requests
    without tagged fields (synchronous discovery/stream traffic) read
    and create nothing the pipeline tracks."""
    return msg._handles()
