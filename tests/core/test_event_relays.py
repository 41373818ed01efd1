"""Deferred event-completion relays (the PR-2 pipeline extension).

Covers: relays joining send windows instead of round-tripping, the
create-before-status ordering guarantee (the in-window ordering the
deferral relies on), a status only ever naming a registered replica
(replica-less events relay nowhere, on both sides of ``batch_window``),
virtual-time causality of relayed completions, and the synchronous
reference path (``batch_window=0``).
"""

import numpy as np
import pytest

from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CL_MEM_WRITE_ONLY
from repro.ocl.event import UserEvent
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""


def _prepared(n_servers=2, **kwargs):
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    n = 64
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, n)
    return deployment, api, devices, ctx, queue, buf, kernel, n


def _wait_elsewhere(api, ctx, devices, kernel, event, n):
    """A launch waiting on ``event`` on every other server of the
    context, while the event is unresolved: on the pipeline that is what
    creates its replicas there (ahead of each waiter in its window)."""
    for dev in devices[1:]:
        out = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * n)
        waiter = api.clCreateKernel(kernel.program, "scale")
        for index, value in enumerate((out, np.float32(1.0), n)):
            api.clSetKernelArg(waiter, index, value)
        api.clEnqueueNDRangeKernel(
            api.clCreateCommandQueue(ctx, dev), waiter, (n,), wait_for=[event]
        )


def test_relays_ride_windows_not_round_trips():
    """No synchronous request is issued per replica server: the relay
    traffic shows up in the deferred counters and the batch tally."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(n_servers=3)
    driver = deployment.driver
    event = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    _wait_elsewhere(api, ctx, devices, kernel, event, n)
    requests_before = driver.stats.requests
    api.clWaitForEvents([event])  # completion arrives + relays drain here
    assert driver.stats.relays_deferred >= 2  # one per replica server
    # Relays rode CommandBatches; the only sync requests a wait may make
    # are none at all (flushes are batches).
    assert driver.stats.requests == requests_before


def test_wait_leaves_unrelated_windows_and_finish_drains_them():
    """clWaitForEvents is dependency-tracked: it drains the owner's
    window only, leaving the replica servers' windows (creates + the
    freshly deferred relays) queued.  The next full sync point drains
    them, after which every replica is resolved — program order having
    kept each create ahead of its relay."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(n_servers=3)
    driver = deployment.driver
    event = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    _wait_elsewhere(api, ctx, devices, kernel, event, n)
    api.clWaitForEvents([event])
    assert driver.pending_commands(devices[0].server.name) == 0
    # The replica windows kept their traffic (creates + deferred relay).
    assert all(driver.pending_commands(d.server.name) > 0 for d in devices[1:])
    driver.flush_all()
    assert driver.pending_commands() == 0
    for dev in devices[1:]:
        daemon = deployment.daemon_on(dev.server.name)
        replica = daemon.registry.get(driver.gcf.name, event.id, UserEvent)
        assert replica.resolved


def test_relayed_completion_respects_causality():
    """A replica must never resolve before the original event completed
    (the relay's min_time floor), even though the batch carrying the
    relay is dispatched non-blockingly in virtual time."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(n_servers=3)
    event = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    _wait_elsewhere(api, ctx, devices, kernel, event, n)
    api.clWaitForEvents([event])
    deployment.driver.flush_all()  # deliver the windowed creates + relays
    for dev in devices[1:]:
        daemon = deployment.daemon_on(dev.server.name)
        replica = daemon.registry.get(deployment.driver.gcf.name, event.id, UserEvent)
        assert replica.end >= event.completed_at


def test_deferred_relay_never_races_windowed_replica_create():
    """Regression for the in-window ordering the deferral relies on: the
    replica's CreateUserEventRequest may still sit in the send window
    when the completion relay is appended — flushing only the owner must
    leave the relay *behind* the create in the replica's window, and the
    eventual flush must apply them in order (no daemon error, replica
    resolved)."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    driver = deployment.driver
    other = devices[1].server
    event = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    _wait_elsewhere(api, ctx, devices, kernel, event, n)
    # Flush ONLY the owner: the kernel runs, the completion notification
    # arrives, and the relay is deferred to the other server's window —
    # which still holds this event's CreateUserEventRequest.
    driver.flush_connection(driver.connection(devices[0].server.name))
    window = driver.window_messages(other.name)
    create_pos = [i for i, m in enumerate(window)
                  if isinstance(m, P.CreateUserEventRequest) and m.event_id == event.id]
    relay_pos = [i for i, m in enumerate(window)
                 if isinstance(m, P.SetUserEventStatusRequest) and m.event_id == event.id]
    assert create_pos and relay_pos and create_pos[0] < relay_pos[0]
    # Draining must not surface any deferred error (a race would produce
    # "no such event" from the daemon) and must resolve the replica.
    driver.flush_all()
    daemon = deployment.daemon_on(other.name)
    replica = daemon.registry.get(driver.gcf.name, event.id, UserEvent)
    assert replica.resolved


@pytest.mark.parametrize("batch_window", [None, 0])
def test_replica_less_events_do_not_relay(batch_window):
    """Internal transfer/read events have no user-event replicas; their
    completions must produce zero relay traffic on either side: every
    status a daemon receives across a launch that uploads and a read
    that downloads names a ``UserEvent`` replica registered there (the
    reference path once posted each transfer event's completion to every
    other context server)."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(batch_window=batch_window)
    driver = deployment.driver
    statuses = []
    for daemon in deployment.daemons:
        handler = daemon.gcf._request_handlers[P.SetUserEventStatusRequest]

        def spy(msg, t, sender, daemon=daemon, handler=handler):
            replica = daemon.registry.peek(sender.name, msg.event_id)
            statuses.append((daemon.name, msg.event_id, type(replica).__name__))
            return handler(msg, t, sender)

        daemon.gcf._request_handlers[P.SetUserEventStatusRequest] = spy
    event = api.clEnqueueNDRangeKernel(queue, kernel, (n,))  # uploads buf
    _wait_elsewhere(api, ctx, devices, kernel, event, n)  # a replica that relays
    api.clFinish(queue)
    suppressed_before = driver.stats.relays_suppressed
    data, _ = api.clEnqueueReadBuffer(queue, buf)  # read event: no replicas
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    if batch_window is None:
        assert driver.stats.relays_suppressed > suppressed_before
    # And nothing surfaced as a deferred failure at the next sync point.
    driver.flush_all()
    assert statuses, "the cross-server wait relays one status"
    assert all(kind == "UserEvent" for _name, _id, kind in statuses), statuses


def test_reference_path_relays_synchronously():
    """batch_window=0 is the paper's relay behaviour: one synchronous
    SetUserEventStatusRequest per replica server, nothing deferred."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(
        n_servers=3, batch_window=0
    )
    driver = deployment.driver
    requests_before = driver.stats.requests
    # The launch itself round-trips, so the completion — and with it the
    # relays — lands during the enqueue.
    event = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clWaitForEvents([event])
    assert driver.stats.relays_deferred == 0
    assert driver.stats.relays_suppressed == 0
    assert driver.stats.requests >= requests_before + 2  # sync relays went out
    for dev in devices[1:]:
        daemon = deployment.daemon_on(dev.server.name)
        replica = daemon.registry.get(driver.gcf.name, event.id, UserEvent)
        assert replica.resolved


def test_overflow_relays_cannot_overtake_swapped_out_batches():
    """Regression: while flush_all is mid-dispatch, windows already
    swapped out are not protected by in-window order — a window-overflow
    flush of freshly deferred relays must NOT fire then, or a relay can
    reach the daemon before the swapped-out batch holding its replica's
    CreateUserEventRequest.

    Construction (batch_window=4, 2 servers): four user-event-gated
    kernels, each waited on from the second server — the earlier
    waiters' replica creates already flushed by window overflow, the
    last one's still windowed.  Completing the user event resolves all
    four kernels during the *first* batch of the finish's flush,
    deferring four relays into the second server's fresh window —
    exactly the overflow threshold."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(batch_window=4)
    driver = deployment.driver
    driver.flush_all()
    gate = api.clCreateUserEvent(ctx)
    events = []
    for _ in range(4):
        events.append(api.clEnqueueNDRangeKernel(queue, kernel, (n,), wait_for=[gate]))
        _wait_elsewhere(api, ctx, devices, kernel, events[-1], n)
    api.clSetUserEventStatus(gate, 0)
    api.clFinish(queue)  # must not surface a spurious "no such object"
    assert driver.pending_commands() == 0
    other = deployment.daemon_on(devices[1].server.name)
    for ev in events:
        replica = other.registry.get(driver.gcf.name, ev.id, UserEvent)
        assert replica.resolved
        assert replica.end >= ev.completed_at


def test_deferred_and_reference_relays_agree_on_data():
    """The relay pipeline is a pure communication optimisation: results
    are bit-identical either way."""

    def run(**kwargs):
        deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(**kwargs)
        q1 = api.clCreateCommandQueue(ctx, devices[1])
        ev = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
        api.clEnqueueNDRangeKernel(q1, kernel, (n,), wait_for=[ev])
        api.clFinish(q1)
        data, _ = api.clEnqueueReadBuffer(q1, buf)
        return data.view(np.float32)

    np.testing.assert_array_equal(run(), run(batch_window=0))
