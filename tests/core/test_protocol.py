"""Wire-protocol tests: every message type survives a wire round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster
from repro.net import Message
from repro.net.messages import Request, registered_types
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
        "CoalescedBufferUpload",
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
        P.CoalescedBufferUpload(queue_id=9, buffer_ids=[4], event_ids=[77], nbytes_list=[64]),
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
#: Requests that never cross a GCF handler table: the daemon-to-daemon
#: push is delivered by a direct call and the message only prices its
#: header on the s2s mesh (``Daemon._execute_pushes``).
SIZE_ONLY_REQUESTS = {P.PeerPushRequest}

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
    init) or a bulk source — on exactly one of Daemon / DeviceManager,
    and no handler is registered for a class the registry lacks."""
    requests = _protocol_requests()
    assert set(entries) <= requests, "handler registered for an unregistered message"
    for cls in requests - SIZE_ONLY_REQUESTS:
        served = entries.get(cls, [])
        assert len({process for process, _ in served}) == 1, (cls.__name__, served)
        kinds = sorted(kind for _, kind in served)
        assert kinds in (["request"], ["request", "sink"], ["source"]), (cls.__name__, served)
    for cls in SIZE_ONLY_REQUESTS:
        assert cls in requests and cls not in entries


def test_metadata_rows_name_registered_handled_requests(entries):
    """Every key of the deferrable registry and of the handle /
    mutation / release extractor tables is a registered request with a
    request handler — a deleted message cannot leave a row behind."""
    requests = _protocol_requests()
    for table in (
        P.DEFERRABLE,
        P._HANDLE_EXTRACTORS,
        P._MUTATION_EXTRACTORS,
        P._RELEASE_EXTRACTORS,
    ):
        for cls in table:
            assert cls in requests, cls
            assert ("Daemon", "request") in entries.get(cls, []), cls.__name__
    # Poisoning metadata only makes sense for what a batch can carry
    # (FinishRequest is the one synchronous row: a window-graph seed).
    assert set(P._MUTATION_EXTRACTORS) | set(P._RELEASE_EXTRACTORS) <= P.DEFERRABLE
    assert set(P._HANDLE_EXTRACTORS) - P.DEFERRABLE == {P.FinishRequest}
