"""Wire-protocol tests: every message type survives a wire round trip."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster
from repro.net import Message
from repro.net.messages import CommandBatch, Request, registered_types
from repro.testbed import deploy_dopencl


def test_all_protocol_types_registered():
    names = set(registered_types())
    for expected in (
        "Ack",
        "ListDevicesRequest",
        "ListDevicesResponse",
        "CreateContextRequest",
        "CreateQueueRequest",
        "CreateBufferRequest",
        "BufferDataUpload",
        "CoalescedBufferDownload",
        "BufferPeerTransferBatch",
        "CreateProgramRequest",
        "BuildProgramRequest",
        "CreateKernelRequest",
        "SetKernelArgRequest",
        "EnqueueKernelRequest",
        "CreateUserEventRequest",
        "SetUserEventStatusRequest",
        "EventCompleteNotification",
        "RegisterDaemonRequest",
        "AssignmentRequest",
        "AssignmentResponse",
        "LeaseAssignNotification",
        "LeaseReleaseRequest",
        "LeaseRevokeNotification",
        "ClientLostNotification",
    ):
        assert expected in names


@pytest.mark.parametrize(
    "msg",
    [
        P.Ack(),
        P.Ack(error=-48, detail="boom"),
        P.ListDevicesRequest(device_type=0xFFFFFFFF),
        P.ListDevicesResponse(device_ids=[0, 1], infos=[{"NAME": "a"}, {"NAME": "b"}]),
        P.ServerInfoResponse(info={"NAME": "d", "NUM_DEVICES": 5, "MANAGED": True}),
        P.CreateContextRequest(context_id=3, device_ids=[0, 2]),
        P.CreateQueueRequest(queue_id=9, context_id=3, device_id=1, properties=2),
        P.FinishRequest(queue_id=9),
        P.CreateBufferRequest(buffer_id=4, context_id=3, flags=1, size=1024),
        P.BufferDataUpload(buffer_id=4, queue_id=9, event_id=77, offset=0, nbytes=64, wait_event_ids=[1, 2]),
        P.BufferDataUpload(buffer_id=4, queue_id=9, event_id=78, offset=0, nbytes=64, wait_event_ids=[]),
        P.CoalescedBufferDownload(queue_id=9, buffer_ids=[4, 5], event_ids=[78, 79], nbytes_list=[32, 16]),
        P.BufferDataResponse(nbytes=32),
        P.BufferPeerTransferBatch(peer_name="node01", buffer_ids=[4], nbytes_list=[64]),
        P.CreateProgramRequest(program_id=5, context_id=3, source_bytes=2000),
        P.BuildProgramRequest(program_id=5, options="-D N=4"),
        P.BuildProgramResponse(status="ERROR", log="2:1: bad", error=-11, detail="x"),
        P.BuildProgramResponse(
            status="SUCCESS",
            kernels={"k": {"num_args": 3, "arg_kinds": ["buffer", "value", "local"],
                           "arg_types": ["__global float*", "int", "__local float*"],
                           "writable_buffer_args": [0]}},
        ),
        P.CreateProgramWithSourceRequest(
            program_id=5, context_id=3, source="__kernel void k() {}"
        ),
        P.CreateKernelRequest(kernel_id=6, program_id=5, name="k"),
        P.SetKernelArgRequest(kernel_id=6, index=0, kind="buffer", buffer_id=4),
        P.SetKernelArgRequest(kernel_id=6, index=1, kind="value", value=3.5),
        P.SetKernelArgRequest(kernel_id=6, index=2, kind="local", local_nbytes=256),
        P.EnqueueKernelRequest(queue_id=9, kernel_id=6, event_id=80,
                               global_size=[64, 8], local_size=[8, 8],
                               global_offset=[], wait_event_ids=[77]),
        P.CreateUserEventRequest(event_id=81, context_id=3),
        P.SetUserEventStatusRequest(event_id=81, status=0),
        P.EventCompleteNotification(event_id=80, status=0, completed_at=1.25),
        P.RegisterDaemonRequest(device_ids=[0], infos=[{"TYPE": 4}]),
        P.AssignmentRequest(requirements=[{"count": 1, "attributes": {"TYPE": "GPU"}}]),
        P.AssignmentResponse(auth_id="auth-1", server_names=["s0"]),
        P.LeaseAssignNotification(auth_id="auth-1", device_ids=[1, 2]),
        P.LeaseReleaseRequest(auth_id="auth-1"),
        P.LeaseRevokeNotification(auth_id="auth-1"),
        P.ClientLostNotification(auth_id="auth-1"),
    ],
)
def test_wire_round_trip(msg):
    restored = Message.from_wire(msg.to_wire())
    assert type(restored) is type(msg)
    assert restored == msg


def test_wire_size_grows_with_payload():
    small = P.CreateProgramRequest(program_id=1, context_id=1, source_bytes=10)
    # wire size reflects encoded content, not the referenced source size
    assert small.wire_size > 64


@given(
    ids=st.lists(st.integers(min_value=0, max_value=2**31), min_size=0, max_size=8),
    gsize=st.lists(st.integers(min_value=1, max_value=2**20), min_size=1, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_enqueue_kernel_round_trip_property(ids, gsize):
    msg = P.EnqueueKernelRequest(
        queue_id=1, kernel_id=2, event_id=3,
        global_size=gsize, local_size=[], global_offset=[], wait_event_ids=ids,
    )
    assert Message.from_wire(msg.to_wire()) == msg


# ----------------------------------------------------------------------
# protocol table: messages, handlers and metadata rows stay in step
# ----------------------------------------------------------------------
ONE_CPU_REQUEST = """
<devmngr>devmgr</devmngr>
<devices>
  <device count="1">
    <attribute name="TYPE">CPU</attribute>
  </device>
</devices>
"""


def _protocol_requests():
    return {
        cls
        for cls in registered_types().values()
        if issubclass(cls, Request) and cls.__module__.startswith("repro.")
    }


@pytest.fixture(scope="module")
def entries():
    """``{request class: [(process, kind), ...]}`` over the handler
    tables of a managed deployment's daemon and device manager."""
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(1), managed=True, devmgr_config_texts=[ONE_CPU_REQUEST]
    )
    table_entries = {}
    for process, gcf in (
        ("Daemon", deployment.daemons[0].gcf),
        ("DeviceManager", deployment.device_manager.gcf),
    ):
        for kind, table in (
            ("request", gcf._request_handlers),
            ("sink", gcf._bulk_sink_handlers),
            ("source", gcf._bulk_source_handlers),
        ):
            for cls in table:
                table_entries.setdefault(cls, []).append((process, kind))
    return table_entries


def test_every_request_has_exactly_one_handler_and_no_orphans(entries):
    """Deleting a message must take its handler with it and vice versa:
    every registered request class is served at exactly one entry point
    — a request handler (a bulk sink may complete it: the stream's
    init; a bulk source may serve it: the reference path's fetch of a
    download the pipeline batches) or a bulk source — on exactly one of
    Daemon / DeviceManager, and no handler is registered for a class the
    registry lacks."""
    requests = _protocol_requests()
    assert set(entries) <= requests, "handler registered for an unregistered message"
    for cls in requests:
        served = entries.get(cls, [])
        assert len({process for process, _ in served}) == 1, (cls.__name__, served)
        kinds = sorted(kind for _, kind in served)
        assert kinds in (["request"], ["request", "sink"], ["request", "source"], ["source"]), (
            cls.__name__,
            served,
        )


def _roles(cls):
    """``{field name: role}`` as declared on ``cls``'s fields."""
    return {
        f.name: f.metadata["handle"] for f in dataclasses.fields(cls) if "handle" in f.metadata
    }


def test_metadata_rows_name_registered_handled_requests(entries):
    """Every deferrable / role-tagged class is a registered request with
    a Daemon request handler, and poisoning metadata exists only for
    what a batch can carry: role-tagged classes are all deferrable."""
    requests = _protocol_requests()
    tagged = {cls for cls in requests if _roles(cls)}
    assert tagged and len(P.DEFERRABLE) == 20
    for cls in P.DEFERRABLE | tagged:
        assert cls in requests, cls
        assert ("Daemon", "request") in entries.get(cls, []), cls.__name__
    changing = {cls for cls in requests if {"mutates", "releases"} & set(_roles(cls).values())}
    assert len(changing) == 10 and changing <= tagged <= P.DEFERRABLE


#: Stub-ID-looking fields that are *not* client stub IDs, so carry no
#: role: daemon-local device indices (what ``ListDevicesResponse``
#: returned for this server), never assigned by the client driver.
ROLE_EXEMPT_FIELDS = {"device_id", "device_ids"}


def test_every_id_field_of_a_deferrable_class_declares_its_role():
    """A new deferrable message cannot forget the window graph / poison
    guard: each ``*_id`` / ``*_ids`` field says what happens to the ID."""
    for cls in P.DEFERRABLE:
        for f in dataclasses.fields(cls):
            if f.name.endswith(("_id", "_ids")) and f.name not in ROLE_EXEMPT_FIELDS:
                assert f.name in _roles(cls), f"{cls.__name__}.{f.name} declares no role"


# ----------------------------------------------------------------------
# oracle: the four hand-kept tables the declarations replaced, verbatim
# (only ``P.`` added), as they stood before roles moved onto the fields
# ----------------------------------------------------------------------
_EMPTY = frozenset()

_OLD_DEFERRABLE = frozenset(
    {
        P.CreateContextRequest,
        P.CreateQueueRequest,
        P.CreateBufferRequest,
        P.CreateProgramWithSourceRequest,
        P.CreateProgramWithBinaryRequest,
        P.BuildProgramCachedRequest,
        P.CreateKernelRequest,
        P.SetKernelArgRequest,
        P.EnqueueKernelRequest,
        P.PushCommit,
        P.CreateUserEventRequest,
        P.SetUserEventStatusRequest,
        P.FlushRequest,
        P.ReleaseContextRequest,
        P.ReleaseQueueRequest,
        P.ReleaseBufferRequest,
        P.ReleaseProgramRequest,
        P.ReleaseKernelRequest,
        P.ReleaseEventRequest,
    }
)

_OLD_HANDLE_EXTRACTORS = {
    P.CreateContextRequest: lambda m: (_EMPTY, frozenset({m.context_id})),
    P.ReleaseContextRequest: lambda m: (frozenset({m.context_id}), _EMPTY),
    P.CreateQueueRequest: lambda m: (frozenset({m.context_id}), frozenset({m.queue_id})),
    P.ReleaseQueueRequest: lambda m: (frozenset({m.queue_id}), _EMPTY),
    P.FinishRequest: lambda m: (frozenset({m.queue_id}), _EMPTY),
    P.FlushRequest: lambda m: (frozenset({m.queue_id}), _EMPTY),
    P.CreateBufferRequest: lambda m: (frozenset({m.context_id}), frozenset({m.buffer_id})),
    P.ReleaseBufferRequest: lambda m: (frozenset({m.buffer_id}), _EMPTY),
    P.CreateProgramWithSourceRequest: lambda m: (
        frozenset({m.context_id}),
        frozenset({m.program_id}),
    ),
    P.CreateProgramWithBinaryRequest: lambda m: (
        frozenset({m.context_id}),
        frozenset({m.program_id}),
    ),
    P.BuildProgramCachedRequest: lambda m: (frozenset({m.program_id}), _EMPTY),
    P.ReleaseProgramRequest: lambda m: (frozenset({m.program_id}), _EMPTY),
    P.CreateKernelRequest: lambda m: (frozenset({m.program_id}), frozenset({m.kernel_id})),
    P.ReleaseKernelRequest: lambda m: (frozenset({m.kernel_id}), _EMPTY),
    P.SetKernelArgRequest: lambda m: (
        frozenset({m.kernel_id} | ({m.buffer_id} if m.kind == "buffer" else set())),
        _EMPTY,
    ),
    P.EnqueueKernelRequest: lambda m: (
        frozenset(
            {m.queue_id, m.kernel_id}
            | set(m.wait_event_ids or [])
            | ({m.program_id} if m.program_id else set())
        ),
        frozenset({m.event_id}),
    ),
    P.PushCommit: lambda m: (frozenset({m.buffer_id}), _EMPTY),
    P.CreateUserEventRequest: lambda m: (
        frozenset({m.context_id}),
        frozenset({m.event_id}),
    ),
    P.SetUserEventStatusRequest: lambda m: (frozenset({m.event_id}), _EMPTY),
    P.ReleaseEventRequest: lambda m: (frozenset({m.event_id}), _EMPTY),
}

_OLD_MUTATION_EXTRACTORS = {
    P.SetKernelArgRequest: lambda m: frozenset({m.kernel_id}),
    P.PushCommit: lambda m: frozenset({m.buffer_id}),
    P.BuildProgramCachedRequest: lambda m: frozenset({m.program_id}),
}

_OLD_RELEASE_EXTRACTORS = {
    P.ReleaseContextRequest: lambda m: m.context_id,
    P.ReleaseQueueRequest: lambda m: m.queue_id,
    P.ReleaseBufferRequest: lambda m: m.buffer_id,
    P.ReleaseProgramRequest: lambda m: m.program_id,
    P.ReleaseKernelRequest: lambda m: m.kernel_id,
    P.ReleaseEventRequest: lambda m: m.event_id,
}

# Stated exception 1: FinishRequest's row was dead — it is never
# deferred and, since the daemon enforces DEFERRABLE, never batched — so
# it was dropped on purpose and the class reads nothing.
del _OLD_HANDLE_EXTRACTORS[P.FinishRequest]

# Stated exception 3: a launch carrying its kernel's creation reads the
# creation's ``program_id`` (a poisoned program poisons the launch); the
# ``EnqueueKernelRequest`` row above gained that term when the field did.

# Stated exception 4: ``CreateKernelRequest`` left the deferrable set —
# the pipeline carries the creation on a launch, and the reference path
# sends it as a synchronous fan-out, so its fields declare no roles.
_OLD_DEFERRABLE = _OLD_DEFERRABLE - {P.CreateKernelRequest}
del _OLD_HANDLE_EXTRACTORS[P.CreateKernelRequest]

# Stated exception 5: ``CreateProgramCachedRequest`` (a creation by
# source digest) is gone with the digest-reference creation; its rows —
# the ``CreateProgramWithSourceRequest`` rows with ``digest`` for
# ``source`` — were deleted from both tables above.

# Stated exception 6: ``BufferDataUpload`` joined the deferrable set —
# on the pipeline a host write rides the send window with its bytes
# streamed behind the batch.  It reads its queue and wait list, creates
# its event and mutates its buffer (a skipped write leaves the daemon's
# copy without the bytes the directory credits it with).
_OLD_DEFERRABLE = _OLD_DEFERRABLE | {P.BufferDataUpload}
_OLD_HANDLE_EXTRACTORS[P.BufferDataUpload] = lambda m: (
    frozenset({m.buffer_id, m.queue_id} | set(m.wait_event_ids or [])),
    frozenset({m.event_id}),
)
_OLD_MUTATION_EXTRACTORS[P.BufferDataUpload] = lambda m: frozenset({m.buffer_id})

# Stated exception 7: ``CoalescedBufferDownload`` joined the deferrable
# set — on the pipeline a coherence download rides the batch that drains
# its producers.  It reads its queue and buffers and creates one
# transfer event per section.
_OLD_DEFERRABLE = _OLD_DEFERRABLE | {P.CoalescedBufferDownload}
_OLD_HANDLE_EXTRACTORS[P.CoalescedBufferDownload] = lambda m: (
    frozenset({m.queue_id} | set(m.buffer_ids or [])),
    frozenset(set(m.event_ids)),
)

_IDS = st.integers(min_value=1, max_value=40)  # client IDs start at count(1)
_ID_LISTS = st.lists(_IDS, max_size=6)  # narrow range: duplicates are common


def _field_values(f):
    if f.name == "kind":
        return st.sampled_from(["buffer", "local", "value"])
    if f.type == "List[int]":
        return _ID_LISTS if f.default is dataclasses.MISSING else st.none() | _ID_LISTS
    by_type = {"int": _IDS, "str": st.text(max_size=3), "float": st.floats(0, 9)}
    if f.type in by_type:
        return by_type[f.type]
    return st.just([] if f.default is dataclasses.MISSING else f.default)


def _instances(cls):
    drawn = st.fixed_dictionaries({f.name: _field_values(f) for f in dataclasses.fields(cls)})
    if cls is P.SetKernelArgRequest:
        # Stated exception 2: drawn the way api.clSetKernelArg builds it
        # (buffer_id non-zero exactly when kind == "buffer"), since "a
        # defaulted int holding 0 names nothing" replaces the kind test.
        drawn = drawn.map(lambda kw: {**kw, "buffer_id": kw["buffer_id"] * (kw["kind"] == "buffer")})
    return drawn.map(lambda kw: cls(**kw))


@pytest.mark.parametrize(
    "cls",
    sorted((c for c in _protocol_requests() if c.__module__ == P.__name__), key=lambda c: c.__name__),
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_derived_metadata_equals_the_hand_kept_tables(cls, data):
    """The compiled extractors answer exactly what the deleted tables
    answered — same sets, same *iteration order* (``Registry.poison_info``
    blames the first poisoned ID of ``[*reads, *creates]``), same types."""
    msg = data.draw(_instances(cls))
    assert (cls in P.DEFERRABLE) == (cls in _OLD_DEFERRABLE)
    expected = _OLD_HANDLE_EXTRACTORS.get(cls, lambda m: (_EMPTY, _EMPTY))(msg)
    got = P.request_handles(msg)
    assert got == expected and [list(ids) for ids in got] == [list(ids) for ids in expected]
    assert all(type(ids) is frozenset for ids in got)
    mutations = P.request_mutations(msg)
    assert mutations == _OLD_MUTATION_EXTRACTORS.get(cls, lambda m: _EMPTY)(msg)
    assert type(mutations) is frozenset
    assert P.released_handle(msg) == _OLD_RELEASE_EXTRACTORS.get(cls, lambda m: None)(msg)


# ----------------------------------------------------------------------
# the replay contract (docs/architecture.md, Failure semantics), executable
# ----------------------------------------------------------------------
#: Daemon requests no ``Transport`` exchange ever carries under a retry
#: policy, with the reason.
NEVER_UNDER_A_POLICY = {
    P.ListDevicesRequest: "session management: runs before the ServerConnection exists",
    P.CreateProgramRequest: "reference path only, and window 0 x policy is unrepresentable",
    P.CreateKernelRequest: "reference path only, and window 0 x policy is unrepresentable",
    P.BuildProgramRequest: "reference path only, and window 0 x policy is unrepresentable",
}


def test_every_daemon_request_declares_its_replay_contract(entries):
    """A request a daemon serves is re-sent under a retry policy, so it
    is exactly one of: deferrable (deduped — it rides a stamped
    ``CommandBatch``), declared replay-safe with its reason, or
    enumerated above as never sent under a policy.  A new message going
    raw past the retry layer (PR 19's ``clBuildProgram`` bug) fails here
    the day it is added."""
    served = {cls for cls, where in entries.items() if any(p == "Daemon" for p, _ in where)}
    served.discard(CommandBatch)  # the stamped envelope itself
    assert len(served) > len(P.DEFERRABLE)
    for cls in served:
        contracts = [cls in P.DEFERRABLE, bool(cls.replay_safe), cls in NEVER_UNDER_A_POLICY]
        assert sum(contracts) == 1, f"{cls.__name__}: deferrable/replay_safe/never = {contracts}"
