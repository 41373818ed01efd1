"""Objects live where commands use them: buffer copies and event
replicas on demand.

On the pipeline ``clCreateBuffer`` and ``clCreateUserEvent`` validate
client-side and send nothing, and a command's event gets no replicas
when it is created.  Every compound stub keeps one residency record
(``Resident.holders``: which servers hold the object, in what state),
and it decides what a command bound for server S must carry:

* the creation of every buffer it names that S lacks — windowed ahead
  of the command, or carried by a coherence upload's init;
* for every event in its wait list that S neither owns nor holds a
  replica of, the replica, windowed ahead of the command — unless the
  event already resolved at the client, whose id is dropped instead.

Relays, user-event statuses and releases go to the holders only.  The
reference path (``batch_window=0``) keeps the paper's eager compound
objects.
"""

import numpy as np
import pytest

from repro.core.client.resilience import RetryPolicy
from repro.core.daemon.admission import AdmissionPolicy
from repro.core.protocol import messages as P
from repro.hw import WESTMERE_NODE, Host
from repro.hw.cluster import make_desktop_and_gpu_server, make_ib_cpu_cluster
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CLError, NativeAPI
from repro.ocl.constants import CL_DEVICE_TYPE_GPU, CL_MEM_WRITE_ONLY, ErrorCode
from repro.ocl.event import UserEvent
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""

N = 16


def _rig(n_servers=2, **kwargs):
    """A context over every device of an ``n_servers`` CPU cluster, one
    queue per device and a built ``scale`` program."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, device) for device in devices]
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    return deployment, api, ctx, queues, program


def _buffer(cl, ctx, value):
    host = np.full(N, value, dtype=np.float32)
    return cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, host.nbytes, host)


def _launch(cl, program, queue, buf, factor, wait_for=None):
    kernel = cl.clCreateKernel(program, "scale")
    for index, value in enumerate((buf, np.float32(factor), N)):
        cl.clSetKernelArg(kernel, index, value)
    return cl.clEnqueueNDRangeKernel(queue, kernel, (N,), wait_for=wait_for)


def _windowed(deployment, queue, kind):
    return [
        m for m in deployment.driver.window_messages(queue.server.name) if isinstance(m, kind)
    ]


def _user_events(deployment):
    """Server name -> user-event replicas its daemon created."""
    return {d.name: d.registry.census.get("UserEvent", [0, 0])[0] for d in deployment.daemons}


def _cross_queue_program(cl, owner, waiter, ctx, program, before_finish=None):
    """A launch on ``waiter``'s queue waits on one on ``owner``'s;
    returns both buffers' bytes."""
    a, b = _buffer(cl, ctx, 3.0), _buffer(cl, ctx, 4.0)
    e = _launch(cl, program, owner, a, 2.0)
    w = _launch(cl, program, waiter, b, 5.0, wait_for=[e])
    if before_finish is not None:
        before_finish(e, w)
    cl.clFinish(waiter)
    return [bytes(cl.clEnqueueReadBuffer(q, buf)[0]) for q, buf in ((owner, a), (waiter, b))]


def test_a_waiter_creates_the_replica_of_an_unresolved_event_ahead_of_it():
    native = NativeAPI(Host(WESTMERE_NODE))
    device = native.clGetDeviceIDs(native.clGetPlatformIDs()[0])[0]
    nctx = native.clCreateContext([device])
    nprog = native.clCreateProgramWithSource(nctx, SCALE)
    native.clBuildProgram(nprog)
    expected = _cross_queue_program(
        native, *(native.clCreateCommandQueue(nctx, device) for _ in range(2)), nctx, nprog
    )

    deployment, api, ctx, (q0, q1), program = _rig()
    seen = {}

    def inspect(e, w):
        assert not e.resolved
        window = deployment.driver.window_messages(q1.server.name)
        creates = [i for i, m in enumerate(window)
                   if isinstance(m, P.CreateUserEventRequest) and m.event_id == e.id]
        launch = [i for i, m in enumerate(window)
                  if isinstance(m, P.EnqueueKernelRequest) and m.event_id == w.id]
        assert len(creates) == 1 and creates[0] < launch[0]
        assert window[launch[0]].wait_event_ids == [e.id]
        assert list(e.holders) == [q1.server.name]
        seen["event"] = e

    got = _cross_queue_program(api, q0, q1, ctx, program, before_finish=inspect)
    assert got == expected
    e = seen["event"]
    # The completion reached the replica through the client relay.
    assert deployment.driver.stats.relays_deferred == 1
    replica = deployment.daemon_on(q1.server.name).registry.peek(deployment.driver.gcf.name, e.id)
    assert isinstance(replica, UserEvent) and replica.resolved
    assert replica.end >= e.completed_at
    assert _user_events(deployment) == {q0.server.name: 0, q1.server.name: 1}


def test_a_waiter_on_a_resolved_event_ships_nothing():
    """The id of an event the client already saw complete is dropped:
    the launch ships and times exactly as without the wait list, and the
    replica the reference path gates it on would have resolved before
    the waiter started (the relay's floor lies behind its start)."""

    def run(wait):
        deployment, api, ctx, (q0, q1), program = _rig()
        e = _launch(api, program, q0, _buffer(api, ctx, 3.0), 2.0)
        api.clWaitForEvents([e])
        w = _launch(api, program, q1, _buffer(api, ctx, 4.0), 5.0, wait_for=[e] if wait else None)
        shipped = [m.wait_event_ids for m in _windowed(deployment, q1, P.EnqueueKernelRequest)]
        replicas = _windowed(deployment, q1, P.CreateUserEventRequest)
        api.clFinish(q1)
        started = deployment.daemon_on(q1.server.name).registry.peek(
            deployment.driver.gcf.name, w.id
        ).start
        floor = e.completion_arrival + deployment.cluster.network.one_way_latency()
        return (w.completed_at, w.completion_arrival, api.now), shipped, replicas, started >= floor

    timed, shipped, replicas, after_floor = run(wait=True)
    assert shipped == [None] and replicas == []
    assert after_floor
    assert run(wait=False)[0] == timed


def test_a_user_event_reaches_only_its_replicas_holders():
    deployment, api, ctx, queues, program = _rig(n_servers=3)
    driver = deployment.driver
    bufs = [_buffer(api, ctx, 1.0) for _ in queues]
    api.clFinish(queues[0])
    gate = api.clCreateUserEvent(ctx)
    assert driver.pending_commands() == 0  # nothing sent at creation
    _launch(api, program, queues[1], bufs[1], 2.0, wait_for=[gate])
    api.clSetUserEventStatus(gate, 0)
    statuses = {q.server.name: len(_windowed(deployment, q, P.SetUserEventStatusRequest))
                for q in queues}
    assert statuses == {queues[0].server.name: 0, queues[1].server.name: 1, queues[2].server.name: 0}
    # First waited on after its status was set: no replica at all.
    late = api.clCreateUserEvent(ctx)
    api.clSetUserEventStatus(late, 0)
    _launch(api, program, queues[2], bufs[2], 3.0, wait_for=[late])
    assert _windowed(deployment, queues[2], P.CreateUserEventRequest) == []
    assert [m.wait_event_ids for m in _windowed(deployment, queues[2], P.EnqueueKernelRequest)] == [None]
    api.clFinish(queues[0])
    assert _user_events(deployment) == {queues[0].server.name: 0, queues[1].server.name: 1,
                                        queues[2].server.name: 0}
    for queue, buf, value in zip(queues, bufs, (1.0, 2.0, 3.0)):
        np.testing.assert_array_equal(api.clEnqueueReadBuffer(queue, buf)[0].view(np.float32), value)


def test_a_failed_on_demand_allocation_poisons_the_buffer_and_its_command():
    """Device memory exhausted: the copy allocated for the launch that
    first uses the buffer fails with the code the eager path reports at
    ``clCreateBuffer``, and poisons the buffer and the launch."""
    alloc = int(ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE)

    def gpu(batch_window=None):
        deployment = deploy_dopencl(make_desktop_and_gpu_server(), batch_window=batch_window)
        api = deployment.api
        device = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[0]
        ctx = api.clCreateContext([device])
        queue = api.clCreateCommandQueue(ctx, device)
        program = api.clCreateProgramWithSource(ctx, SCALE)
        api.clBuildProgram(program)
        return deployment, api, ctx, queue, program

    deployment, api, ctx, queue, program = gpu(batch_window=0)
    for _ in range(4):
        api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 1 << 30)
    with pytest.raises(CLError) as eager:
        api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 1 << 30)
    assert int(eager.value.code) == alloc

    deployment, api, ctx, queue, program = gpu()
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 1, np.float32(1.0))
    api.clSetKernelArg(kernel, 2, N)

    def launch_on(buf):  # the launch allocates the buffer's copy
        api.clSetKernelArg(kernel, 0, buf)
        return api.clEnqueueNDRangeKernel(queue, kernel, (N,))

    for _ in range(4):
        launch_on(api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 1 << 30))
    bad = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 1 << 30)
    event = launch_on(bad)
    with pytest.raises(CLError) as err:
        api.clFinish(queue)
    assert int(err.value.code) == alloc
    registry, client = deployment.daemons[0].registry, deployment.driver.gcf.name
    assert registry.peek(client, bad.id) is None
    for handle in (bad.id, event.id):
        assert registry.poison_info(client, (handle,))[1] == alloc


def test_a_launch_in_a_context_with_a_crashed_server_fails_at_the_call():
    """The buffer and the launch live on node 0 only, yet the launch
    fails with ``CL_DEVICE_NOT_AVAILABLE`` at the call once node 1 is
    lost: every context server is checked, as the eager fan-out of the
    event's replicas did."""
    deployment, api, ctx, (q0, q1), program = _rig(retry_policy=RetryPolicy())
    buf = _buffer(api, ctx, 1.0)
    _launch(api, program, q0, buf, 2.0)
    api.clFinish(q0)
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan([FaultAction("crash", dst=q1.server.name, tag="CommandBatch")],
                  max_transfers=10_000),
    )
    for daemon in deployment.daemons:
        injector.register_crash_hook(daemon.host.name, daemon.crash)
    with pytest.raises(CLError):
        api.clFlush(q1)
        api.clFinish(q1)  # the loss surfaces
    lost = int(ErrorCode.CL_DEVICE_NOT_AVAILABLE)
    for call in (
        lambda: _launch(api, program, q0, buf, 2.0),
        lambda: api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 64),
        lambda: api.clCreateUserEvent(ctx),
    ):
        with pytest.raises(CLError) as err:
            call()
        assert int(err.value.code) == lost


def test_the_quota_counts_only_the_copies_that_exist():
    """A 4-server context whose buffers are used on one server fits a
    quota the eager compound objects exceed, and releasing a used buffer
    reaches its one holder while an unused one sends nothing."""
    quota = AdmissionPolicy(max_objects_per_client=10)

    def run(batch_window=None):
        deployment, api, ctx, queues, program = _rig(
            n_servers=4, admission=quota, batch_window=batch_window
        )
        bufs = [api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * N) for _ in range(8)]
        for buf in bufs[:2]:
            _launch(api, program, queues[0], buf, 2.0)
        api.clFinish(queues[0])
        return deployment, api, queues, bufs

    with pytest.raises(CLError) as err:
        run(batch_window=0)
    assert err.value.code == ErrorCode.CL_OUT_OF_RESOURCES

    deployment, api, queues, bufs = run()
    assert max(d.registry.count(deployment.driver.gcf.name) for d in deployment.daemons) <= 10
    api.clReleaseMemObject(bufs[0])
    api.clReleaseMemObject(bufs[7])
    releases = {q.server.name: [m.buffer_id for m in _windowed(deployment, q, P.ReleaseBufferRequest)]
                for q in queues}
    assert releases == {q.server.name: [bufs[0].id] if i == 0 else [] for i, q in enumerate(queues)}
    api.clFinish(queues[0])
