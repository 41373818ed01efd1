"""Daemon admission control and backpressure under multi-tenancy.

An :class:`~repro.core.daemon.admission.AdmissionPolicy` bounds three
per-daemon resources a hostile or runaway tenant could otherwise
exhaust:

* **sessions** — ``max_clients`` caps concurrent connections; an
  over-cap GCF handshake is refused (``NetStats.refused_connections``)
  and surfaces client-side as ``CL_CONNECTION_ERROR_WWU``;
* **registry objects** — ``max_objects_per_client`` quotas each
  client's live objects; an over-quota creation answers
  ``CL_OUT_OF_RESOURCES`` (``NetStats.quota_rejections``) and, being an
  ordinary failed creation, composes with deferred-creation poisoning;
* **status buffers** — ``max_pending_statuses`` overrides the
  status-before-create bound (see ``test_event_status_delivery``).

All limits are per client, so one tenant hitting its bound never
consumes a sibling's budget.
"""

import numpy as np
import pytest

from repro.core.daemon import AdmissionControl, AdmissionPolicy, Daemon
from repro.core.protocol import messages as P
from repro.hw import Host
from repro.hw.cluster import make_multi_client_gpu_server
from repro.hw.specs import GIGABIT_ETHERNET, GPU_SERVER, WESTMERE_NODE
from repro.net import GCFProcess, Network
from repro.net.link import ConnectionRefused
from repro.ocl import CLError, ErrorCode
from repro.ocl.constants import CL_COMPLETE, CL_MEM_READ_WRITE
from repro.testbed import deploy_dopencl


def make_daemon(policy):
    net = Network(GIGABIT_ETHERNET)
    server = net.add_host(Host(GPU_SERVER, name="srv"))
    return Daemon(server, net, admission=policy), net


def make_client(net, daemon, name, connect=True):
    host = net.add_host(Host(WESTMERE_NODE, name=f"{name}-host"))
    client = GCFProcess(name, host, net)
    if connect:
        client.connect(daemon.gcf, 0.0)
    return client


# ----------------------------------------------------------------------
# policy object
# ----------------------------------------------------------------------
def test_default_policy_imposes_no_limits():
    control = AdmissionControl(None)
    control.check_connect(10_000)
    control.check_create("anyone", 10_000)
    assert control.status_limit(4096) == 4096
    assert AdmissionControl(AdmissionPolicy()).status_limit(7) == 7


def test_policy_checks_raise_cl_errors():
    control = AdmissionControl(
        AdmissionPolicy(max_clients=1, max_objects_per_client=2, max_pending_statuses=3)
    )
    control.check_connect(0)
    with pytest.raises(CLError) as err:
        control.check_connect(1)
    assert err.value.code == ErrorCode.CL_OUT_OF_RESOURCES
    control.check_create("a", 1)
    with pytest.raises(CLError):
        control.check_create("a", 2)
    assert control.status_limit(4096) == 3


# ----------------------------------------------------------------------
# session cap
# ----------------------------------------------------------------------
def test_session_cap_refuses_the_over_cap_connection():
    daemon, net = make_daemon(AdmissionPolicy(max_clients=2))
    make_client(net, daemon, "a")
    make_client(net, daemon, "b")
    third = make_client(net, daemon, "c", connect=False)
    with pytest.raises(ConnectionRefused):
        third.connect(daemon.gcf, 1.0)
    assert daemon.gcf.stats.refused_connections == 1
    assert sorted(daemon.gcf.peers) == ["a", "b"]


def test_session_slot_frees_on_disconnect():
    daemon, net = make_daemon(AdmissionPolicy(max_clients=1))
    first = make_client(net, daemon, "a")
    second = make_client(net, daemon, "b", connect=False)
    with pytest.raises(ConnectionRefused):
        second.connect(daemon.gcf, 1.0)
    first.disconnect(daemon.gcf, 2.0)
    second.connect(daemon.gcf, 3.0)  # the freed slot admits the next tenant
    assert daemon.gcf.stats.refused_connections == 1


def test_session_cap_surfaces_as_connection_error_wwu():
    """Driver level: the third tenant of a 2-session daemon gets a
    faithful ``CL_CONNECTION_ERROR_WWU`` at connect time, while the two
    admitted tenants work normally."""
    deployment = deploy_dopencl(
        make_multi_client_gpu_server(3),
        n_clients=3,
        admission=AdmissionPolicy(max_clients=2),
    )
    for api in deployment.apis[:2]:
        assert api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    late = deployment.apis[2]
    with pytest.raises(CLError) as err:
        late.clGetDeviceIDs(late.clGetPlatformIDs()[0])
    assert err.value.code == ErrorCode.CL_CONNECTION_ERROR_WWU
    assert deployment.daemons[0].gcf.stats.refused_connections >= 1


# ----------------------------------------------------------------------
# per-client registry quota
# ----------------------------------------------------------------------
def test_registry_quota_rejects_the_over_quota_creation_per_client():
    daemon, net = make_daemon(AdmissionPolicy(max_objects_per_client=2))
    a = make_client(net, daemon, "a")
    out = a.request_batch(
        daemon.gcf,
        [
            P.CreateContextRequest(context_id=1, device_ids=[0]),
            P.CreateUserEventRequest(event_id=2, context_id=1),
            P.CreateUserEventRequest(event_id=3, context_id=1),
        ],
        0.0,
    )
    errors = [r.error for r in out.responses]
    assert errors[:2] == [0, 0]
    assert errors[2] == ErrorCode.CL_OUT_OF_RESOURCES.value
    assert daemon.gcf.stats.quota_rejections == 1
    assert daemon.registry.count("a") == 2
    # The quota is per client: a sibling still has its full budget.
    b = make_client(net, daemon, "b")
    out = b.request_batch(
        daemon.gcf, [P.CreateContextRequest(context_id=1, device_ids=[0])], 1.0
    )
    assert out.responses == []  # a success lists no replies


def test_released_objects_return_quota_headroom():
    daemon, net = make_daemon(AdmissionPolicy(max_objects_per_client=2))
    a = make_client(net, daemon, "a")
    a.request_batch(
        daemon.gcf,
        [
            P.CreateContextRequest(context_id=1, device_ids=[0]),
            P.CreateUserEventRequest(event_id=2, context_id=1),
        ],
        0.0,
    )
    out = a.request_batch(
        daemon.gcf,
        [
            P.ReleaseEventRequest(event_id=2),
            P.CreateUserEventRequest(event_id=3, context_id=1),
        ],
        1.0,
    )
    assert out.responses == []  # both succeeded: the reply lists none
    assert daemon.registry.count("a") == 2


def test_quota_rejection_composes_with_deferred_creation_poisoning():
    """Driver level, full pipeline: the over-quota creation is deferred
    like any other, its error Ack poisons the promised handle, and the
    tenant sees a faithful ``CL_OUT_OF_RESOURCES`` at its sync point —
    not a hang, not a daemon fault."""
    deployment = deploy_dopencl(
        make_multi_client_gpu_server(1),
        admission=AdmissionPolicy(max_objects_per_client=2),
    )
    cl = deployment.api
    device = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[0]
    ctx = cl.clCreateContext([device])
    queue = cl.clCreateCommandQueue(ctx, device)  # 2 objects: at quota
    buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 64)  # nothing sent yet
    with pytest.raises(CLError) as err:
        # The write's flush carries the (over-quota) creation of its copy.
        cl.clEnqueueWriteBuffer(queue, buf, True, 0, np.zeros(16, dtype=np.float32))
    assert err.value.code == ErrorCode.CL_OUT_OF_RESOURCES
    assert deployment.daemons[0].gcf.stats.quota_rejections >= 1


# ----------------------------------------------------------------------
# status-buffer bound override
# ----------------------------------------------------------------------
def test_policy_overrides_the_status_buffer_bound():
    daemon, net = make_daemon(AdmissionPolicy(max_pending_statuses=2))
    make_client(net, daemon, "a")
    assert daemon.deliver_event_status("a", 1, CL_COMPLETE, 1.0)
    assert daemon.deliver_event_status("a", 2, CL_COMPLETE, 1.0)
    assert daemon.deliver_event_status("a", 3, CL_COMPLETE, 1.0) is False
    assert daemon.gcf.stats.dropped_event_statuses == 1
    # Per client: the sibling's buffer is untouched by the hog's bound.
    make_client(net, daemon, "b")
    assert daemon.deliver_event_status("b", 1, CL_COMPLETE, 1.0)
