"""Daemon unit tests: registry behaviour and handler error paths."""

import pytest

from repro.core.daemon import Daemon, Registry
from repro.core.protocol import messages as P
from repro.hw import Host
from repro.hw.specs import GIGABIT_ETHERNET, GPU_SERVER, WESTMERE_NODE
from repro.net import GCFProcess, Network
from repro.ocl import CLError, ErrorCode
from repro.ocl.context import Context
from repro.ocl.platform import Platform


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_namespaces_are_per_client():
    reg = Registry()
    reg.put("alice", 1, "obj-a")
    reg.put("bob", 1, "obj-b")  # same ID, different client: fine
    assert reg.get("alice", 1) == "obj-a"
    assert reg.get("bob", 1) == "obj-b"


def test_registry_duplicate_id_rejected():
    reg = Registry()
    reg.put("alice", 1, "x")
    with pytest.raises(CLError):
        reg.put("alice", 1, "y")


def test_registry_missing_object():
    reg = Registry()
    with pytest.raises(CLError) as err:
        reg.get("alice", 42)
    assert err.value.code == ErrorCode.CL_INVALID_VALUE


def test_registry_type_mismatch_uses_kind_error():
    reg = Registry()
    host = Host(WESTMERE_NODE)
    ctx = Context([Platform(host).devices[0]])
    reg.put("alice", 1, ctx)
    assert reg.get("alice", 1, Context) is ctx
    from repro.ocl.queue import CommandQueue

    with pytest.raises(CLError) as err:
        reg.get("alice", 1, CommandQueue)
    assert err.value.code == ErrorCode.CL_INVALID_COMMAND_QUEUE


def test_registry_drop_client():
    reg = Registry()
    reg.put("alice", 1, "x")
    reg.put("alice", 2, "y")
    dropped = dict(reg.drop_client("alice"))
    assert dropped == {1: "x", 2: "y"}
    assert reg.count("alice") == 0


# ----------------------------------------------------------------------
# handlers via raw GCF requests
# ----------------------------------------------------------------------
@pytest.fixture
def setup():
    net = Network(GIGABIT_ETHERNET)
    server = net.add_host(Host(GPU_SERVER, name="srv"))
    client_host = net.add_host(Host(WESTMERE_NODE, name="cli"))
    daemon = Daemon(server, net)
    client = GCFProcess("client", client_host, net)
    return net, daemon, client


def test_list_devices_filters_by_type(setup):
    _, daemon, client = setup
    from repro.ocl.constants import CL_DEVICE_TYPE_CPU, CL_DEVICE_TYPE_GPU

    outcome = client.request(daemon.gcf, P.ListDevicesRequest(device_type=CL_DEVICE_TYPE_GPU), 0.0)
    assert len(outcome.response.device_ids) == 4
    outcome = client.request(daemon.gcf, P.ListDevicesRequest(device_type=CL_DEVICE_TYPE_CPU), 0.0)
    assert len(outcome.response.device_ids) == 1


def test_server_info(setup):
    _, daemon, client = setup
    outcome = client.request(daemon.gcf, P.ServerInfoRequest(), 0.0)
    info = outcome.response.info
    assert info["NAME"] == "srv"
    assert info["NUM_DEVICES"] == 5
    assert info["MANAGED"] is False


def test_bad_context_reference_reports_error(setup):
    _, daemon, client = setup
    outcome = client.request(
        daemon.gcf, P.CreateQueueRequest(queue_id=5, context_id=99, device_id=0, properties=0), 0.0
    )
    assert outcome.response.error == ErrorCode.CL_INVALID_CONTEXT.value


def test_create_context_and_queue(setup):
    _, daemon, client = setup
    out = client.request(daemon.gcf, P.CreateContextRequest(context_id=1, device_ids=[0, 1]), 0.0)
    assert out.response.error == 0
    out = client.request(
        daemon.gcf, P.CreateQueueRequest(queue_id=2, context_id=1, device_id=1, properties=0), 0.0
    )
    assert out.response.error == 0
    assert daemon.registry.count("client") == 2


def test_finish_empty_queue_returns_handler_time(setup):
    _, daemon, client = setup
    client.request(daemon.gcf, P.CreateContextRequest(context_id=1, device_ids=[0]), 0.0)
    client.request(
        daemon.gcf, P.CreateQueueRequest(queue_id=2, context_id=1, device_id=0, properties=0), 0.0
    )
    out = client.request(daemon.gcf, P.FinishRequest(queue_id=2), 1.0)
    assert out.response.error == 0
    assert out.reply_arrival > 1.0


def test_build_failure_returns_log(setup):
    _, daemon, client = setup
    client.request(daemon.gcf, P.CreateContextRequest(context_id=1, device_ids=[0]), 0.0)
    source = b"__kernel void broken( {"
    client.send_bulk(
        daemon.gcf,
        P.CreateProgramRequest(program_id=3, context_id=1, source_bytes=len(source)),
        source,
        len(source),
        0.0,
    )
    out = client.request(daemon.gcf, P.BuildProgramRequest(program_id=3, options=""), 0.0)
    assert out.response.error == ErrorCode.CL_BUILD_PROGRAM_FAILURE.value
    assert out.response.status == "ERROR"
    assert "expected" in out.response.log


def test_invalid_build_options_reported(setup):
    _, daemon, client = setup
    client.request(daemon.gcf, P.CreateContextRequest(context_id=1, device_ids=[0]), 0.0)
    source = b"__kernel void k() {}"
    client.send_bulk(
        daemon.gcf,
        P.CreateProgramRequest(program_id=3, context_id=1, source_bytes=len(source)),
        source,
        len(source),
        0.0,
    )
    out = client.request(daemon.gcf, P.BuildProgramRequest(program_id=3, options="--bogus"), 0.0)
    assert out.response.error == ErrorCode.CL_BUILD_PROGRAM_FAILURE.value


def test_release_unknown_object(setup):
    _, daemon, client = setup
    out = client.request(daemon.gcf, P.ReleaseBufferRequest(buffer_id=123), 0.0)
    assert out.response.error == ErrorCode.CL_INVALID_VALUE.value


def test_failed_replica_create_discards_buffered_status(setup):
    """A status buffered ahead of its replica's creation is discarded
    when that creation fails — otherwise the entry would sit in the
    pending table until disconnect (the buffer's every-entry-has-a-
    consumer invariant)."""
    _, daemon, client = setup
    client.connect(daemon.gcf, 0.0)  # buffering requires a live client
    daemon.deliver_event_status("client", 99, 0, 1.0)
    assert daemon.pending_event_statuses("client") == 1
    # The creation fails (unknown context): the buffered status goes too.
    client.request_batch(
        daemon.gcf, [P.CreateUserEventRequest(event_id=99, context_id=424242)], 0.0
    )
    assert daemon.pending_event_statuses("client") == 0


def test_status_for_poisoned_replica_is_not_buffered(setup):
    """A status arriving after the replica's creation already failed has
    no consumer — buffering it would leak the entry until disconnect."""
    _, daemon, client = setup
    client.connect(daemon.gcf, 0.0)
    client.request_batch(
        daemon.gcf, [P.CreateUserEventRequest(event_id=55, context_id=424242)], 0.0
    )  # fails -> event ID 55 poisoned
    daemon.deliver_event_status("client", 55, 0, 1.0)
    assert daemon.pending_event_statuses("client") == 0


def test_status_after_client_disconnect_is_not_buffered(setup):
    """A broadcast landing after the client disconnected (its namespace
    and poison table are gone) must be dropped, not buffered under a
    key no creation can ever drain."""
    _, daemon, client = setup
    client.connect(daemon.gcf, 0.0)
    client.disconnect(daemon.gcf, 1.0)
    daemon.deliver_event_status("client", 77, 0, 2.0)
    assert daemon.pending_event_statuses("client") == 0


def test_poison_skipped_commands_still_charge_dispatch_time(setup):
    """The daemon decodes and inspects a guarded command before skipping
    it, so the skip must occupy the per-command dispatch slice on the
    CPU timeline (timing fidelity of error paths)."""
    _, daemon, client = setup
    client.request_batch(
        daemon.gcf,
        [
            P.CreateQueueRequest(queue_id=2, context_id=777, device_id=0, properties=0),
            P.FlushRequest(queue_id=2),  # depends on the poisoned queue
        ],
        0.0,
    )
    assert daemon.gcf.stats.poisoned_commands == 1
    assert any("skipped" in str(iv.tag) for iv in daemon.gcf.cpu)


def test_batch_refuses_sub_commands_outside_the_deferrable_registry(setup):
    """The daemon enforces the registry it shares with the client's send
    windows: a batched sub-command whose type is not in ``DEFERRABLE``
    (its reply carries data, or it must stay a sync point) never reaches
    its handler and answers an error ``Ack`` — rule 1, Ack-class replies
    only, holds on the receiving side too."""
    _, daemon, client = setup
    setup_out = client.request_batch(
        daemon.gcf,
        [
            P.CreateContextRequest(context_id=1, device_ids=[0]),
            P.CreateQueueRequest(queue_id=2, context_id=1, device_id=0),
            P.CreateProgramWithSourceRequest(
                program_id=3, context_id=1, source="__kernel void k() {}"
            ),
        ],
        0.0,
    )
    assert all(not r.error for r in setup_out.responses)
    built, objects = daemon.gcf.stats.programs_built, daemon.registry.count("client")
    smuggled = [
        P.BuildProgramRequest(program_id=3),
        P.FinishRequest(queue_id=2),
        P.ListDevicesRequest(device_type=0xFFFFFFFF),
        P.ServerInfoRequest(),
    ]
    out = client.request_batch(daemon.gcf, smuggled, 1.0)
    for sub, reply in zip(smuggled, out.responses):
        assert type(reply) is P.Ack
        assert reply.error == ErrorCode.CL_INVALID_OPERATION.value
        assert reply.detail == f"{type(sub).__name__} cannot be batch-forwarded"
        assert type(sub) not in P.DEFERRABLE
    assert daemon.gcf.stats.programs_built == built  # no handler ran
    assert daemon.registry.count("client") == objects
    # ... and nothing was poisoned: the same build, sent the way the
    # protocol allows, goes through.
    sync = client.request(daemon.gcf, P.BuildProgramRequest(program_id=3), 2.0)
    assert type(sync.response) is P.BuildProgramResponse and not sync.response.error
    assert daemon.gcf.stats.programs_built == built + 1


def test_status_for_non_replica_object_is_not_buffered(setup):
    """A status delivered for an ID registered as something other than a
    user-event replica updates nothing and must not be buffered under a
    key no creation will ever drain."""
    _, daemon, client = setup
    client.request(daemon.gcf, P.CreateContextRequest(context_id=7, device_ids=[0]), 0.0)
    daemon.deliver_event_status("client", 7, 0, 1.0)
    assert daemon.pending_event_statuses("client") == 0


def test_registry_poison_blocks_registered_objects_too(setup):
    """Mutation-poisoned handles still exist in the registry, but get()
    must re-raise the poisoning failure instead of handing out an
    object whose daemon-side state diverged from the client's."""
    reg = Registry()
    reg.put("alice", 1, "stale-object")
    reg.poison("alice", [1], ErrorCode.CL_INVALID_ARG_VALUE.value, "arg update skipped")
    with pytest.raises(CLError) as err:
        reg.get("alice", 1)
    assert err.value.code == ErrorCode.CL_INVALID_ARG_VALUE
    assert "poisoned" in err.value.message
    reg.unpoison("alice", 1)
    assert reg.get("alice", 1) == "stale-object"


def test_disconnect_releases_buffers(setup):
    _, daemon, client = setup
    client.connect(daemon.gcf, 0.0)
    client.request(daemon.gcf, P.CreateContextRequest(context_id=1, device_ids=[1]), 0.0)
    out = client.request(
        daemon.gcf, P.CreateBufferRequest(buffer_id=2, context_id=1, flags=1, size=1 << 20), 0.0
    )
    assert out.response.error == 0
    gpu = daemon.platform.devices[1]
    assert gpu.hw.allocated_bytes == 1 << 20
    client.disconnect(daemon.gcf, 1.0)
    assert gpu.hw.allocated_bytes == 0
    assert daemon.registry.count("client") == 0
