"""Host writes ride the send window; a ``clFinish`` with nothing to learn
sends nothing.

On the pipeline ``clEnqueueWriteBuffer`` windows a ``BufferDataUpload``
like a launch, and its payload streams as a *section* behind the batch
that carries it, on the same link, without waiting for a reply; the
daemon applies the section at its arrival.  A non-blocking write takes
its bytes at the call; a blocking one drains its event's closure, so the
application's array leaves inside the call.  ``clFinish`` answers
locally when the drain sent the queue's daemon nothing, the queue is in
order and the client already holds the completion of its last command
(``NetStats.local_finishes``).  Every byte is checked against
``NativeAPI``.
"""

import numpy as np
import pytest

from repro.apps.osem import ListModeOSEM, disk_phantom, generate_events
from repro.core.client.resilience import RetryPolicy
from repro.core.protocol import messages as P
from repro.hw import WESTMERE_NODE, Host
from repro.hw.cluster import make_desktop_and_gpu_server, make_ib_cpu_cluster
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CLError, NativeAPI
from repro.ocl.constants import (
    CL_DEVICE_TYPE_GPU,
    CL_MEM_WRITE_ONLY,
    CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE,
    ErrorCode,
)
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl
from repro.tools import cachestat_text

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""

N = 16


def _rig(n_servers=1, properties=0, **kwargs):
    """A context over every device of an ``n_servers`` CPU cluster, one
    queue per device (``properties`` on each) and a built ``scale``
    program, all settled on the daemons."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, device, properties) for device in devices]
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    for queue in queues:
        api.clFinish(queue)
    return deployment, api, ctx, queues, program


def _native():
    api = NativeAPI(Host(WESTMERE_NODE))
    device = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])[0]
    ctx = api.clCreateContext([device])
    queue = api.clCreateCommandQueue(ctx, device)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    return api, ctx, queue, program


def _launch(cl, program, queue, buf, factor, wait_for=None):
    kernel = cl.clCreateKernel(program, "scale")
    for index, value in enumerate((buf, np.float32(factor), N)):
        cl.clSetKernelArg(kernel, index, value)
    return cl.clEnqueueNDRangeKernel(queue, kernel, (N,), wait_for=wait_for)


def _tags(monkeypatch, deployment):
    """Record the tag of every message leg that crosses the network."""
    network = deployment.cluster.network
    tags = []
    transfer = network.transfer

    def spy(src, dst, ready, nbytes, tag=None):
        tags.append(tag)
        return transfer(src, dst, ready, nbytes, tag=tag)

    monkeypatch.setattr(network, "transfer", spy)
    return tags


def _round_trips(deployment):
    return deployment.driver.stats.round_trips


# ----------------------------------------------------------------------
# the windowed write
# ----------------------------------------------------------------------
def test_a_write_is_windowed_and_its_bytes_follow_the_batch(monkeypatch):
    """A non-blocking write sends nothing at the call; the finish sends
    one batch whose write section streams right behind it, before the
    reply comes back, and the daemon holds the bytes."""
    deployment, api, ctx, (queue,), program = _rig()
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    tags = _tags(monkeypatch, deployment)
    before = _round_trips(deployment)
    host = np.arange(N, dtype=np.float32)
    api.clEnqueueWriteBuffer(queue, buf, False, 0, host)
    assert tags == [] and _round_trips(deployment) == before
    assert [type(m) for m in deployment.driver.window_messages(queue.server.name)] == [
        P.CreateBufferRequest, P.BufferDataUpload,
    ]
    api.clFinish(queue)
    assert tags[:2] == ["CommandBatch", "bulk:BufferDataUpload"]
    assert tags.count("CommandBatchResponse") == 1 and "FinishRequest" not in tags
    assert _round_trips(deployment) - before == 1
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data.view(np.float32), host)


def test_a_blocking_write_streams_inside_the_call_in_one_round_trip():
    deployment, api, ctx, (queue,), program = _rig()
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    before = _round_trips(deployment)
    event = api.clEnqueueWriteBuffer(queue, buf, True, 0, np.ones(N, np.float32))
    assert _round_trips(deployment) - before == 1
    assert deployment.driver.pending_commands() == 0
    assert event.resolved and api.now >= event.completion_arrival


def test_the_daemon_holds_the_bytes_of_the_call():
    """The application reuses its array after a non-blocking write and
    before the next sync point: the write still carries what the array
    held at the call, as on ``NativeAPI``."""
    results = []
    deployment, api, ctx, (queue,), program = _rig()
    native = _native()
    for cl, ctx_, queue_, program_ in ((api, ctx, queue, program), native):
        buf = cl.clCreateBuffer(ctx_, CL_MEM_READ_WRITE, 4 * N)
        host = np.arange(N, dtype=np.float32)
        cl.clEnqueueWriteBuffer(queue_, buf, False, 0, host)
        host[:] = -1.0
        part = np.full(4, 7.0, np.float32)
        cl.clEnqueueWriteBuffer(queue_, buf, False, 8, part)
        part[:] = -1.0
        _launch(cl, program_, queue_, buf, 3.0)
        cl.clFinish(queue_)
        data, _ = cl.clEnqueueReadBuffer(queue_, buf)
        results.append(data.tobytes())
    assert results[0] == results[1]
    expected = np.arange(N, dtype=np.float32)
    expected[2:6] = 7.0
    np.testing.assert_array_equal(np.frombuffer(results[0], np.float32), expected * 3.0)


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_windowed_write_is_seen_from_another_server(protocol):
    """A blocking read on another queue (a download out of the writer's
    server) and a launch there (under MOSI a peer transfer out of it)
    both find the windowed write's bytes."""
    deployment, api, ctx, (q0, q1), program = _rig(2, coherence_protocol=protocol)
    native = _native()
    host = np.arange(N, dtype=np.float32) - 3.0
    outcomes = []
    for cl, ctx_, queues, program_ in (
        (api, ctx, (q0, q1), program),
        (native[0], native[1], (native[2], native[2]), native[3]),
    ):
        a = cl.clCreateBuffer(ctx_, CL_MEM_READ_WRITE, 4 * N)
        b = cl.clCreateBuffer(ctx_, CL_MEM_READ_WRITE, 4 * N)
        cl.clEnqueueWriteBuffer(queues[0], a, False, 0, host)
        cl.clEnqueueWriteBuffer(queues[0], b, False, 0, host * 2)
        read, _ = cl.clEnqueueReadBuffer(queues[1], a)
        _launch(cl, program_, queues[1], b, 0.5)
        cl.clFinish(queues[1])
        moved, _ = cl.clEnqueueReadBuffer(queues[1], b)
        outcomes.append((read.tobytes(), moved.tobytes()))
    assert outcomes[0] == outcomes[1]
    np.testing.assert_array_equal(np.frombuffer(outcomes[0][0], np.float32), host)
    if protocol == "mosi":
        assert deployment.driver.stats.snapshot()["requests"] >= 1  # the peer transfer


def test_a_failed_on_demand_copy_poisons_the_write_its_event_and_a_waiting_launch():
    """Device memory exhausted: the copy windowed ahead of the write
    fails with the code the reference path reports at ``clCreateBuffer``,
    and poisons the buffer, the write's event and a launch waiting on
    it."""
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
    other = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * N)
    _launch(api, program, queue, other, 2.0)
    # Launches allocate their (never-touched) copies until the device's
    # 4 GiB hold exactly ``other`` and these.
    for size in (1 << 30, 1 << 30, 1 << 30, (1 << 30) - 4 * N):
        _launch(api, program, queue, api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, size), 1.0)
    api.clFinish(queue)
    bad = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    write = api.clEnqueueWriteBuffer(queue, bad, False, 0, np.zeros(N, np.float32))
    launch = _launch(api, program, queue, other, 2.0, wait_for=[write])
    with pytest.raises(CLError) as err:
        api.clFinish(queue)
    assert int(err.value.code) == alloc
    registry, client = deployment.daemons[0].registry, deployment.driver.gcf.name
    assert registry.peek(client, bad.id) is None
    for handle in (bad.id, write.id, launch.id):
        assert registry.poison_info(client, (handle,))[1] == alloc


def test_a_write_to_a_lost_daemon_fails_at_the_call():
    """``CL_DEVICE_NOT_AVAILABLE`` at the call, before anything is
    windowed — for a blocking and a non-blocking write alike."""
    deployment, api, ctx, (q0, q1), program = _rig(2, retry_policy=RetryPolicy())
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    api.clEnqueueWriteBuffer(q1, buf, True, 0, np.ones(N, np.float32))
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan([FaultAction("crash", dst=q1.server.name, tag="CommandBatch")],
                  max_transfers=10_000),
    )
    for daemon in deployment.daemons:
        injector.register_crash_hook(daemon.host.name, daemon.crash)
    with pytest.raises(CLError):
        _launch(api, program, q1, buf, 2.0)
        api.clFinish(q1)  # the loss surfaces
    for blocking in (False, True):
        pending = deployment.driver.pending_commands()
        with pytest.raises(CLError) as err:
            api.clEnqueueWriteBuffer(q1, buf, blocking, 0, np.ones(N, np.float32))
        assert err.value.code == ErrorCode.CL_DEVICE_NOT_AVAILABLE
        assert deployment.driver.pending_commands() == pending


@pytest.mark.parametrize("fault", ["bulk:BufferDataUpload", "CommandBatchResponse"])
def test_a_replayed_write_applies_once(fault):
    """Under a retry policy a lost section fails its batch before the
    daemon dispatches it, and a lost reply is answered from the dispatch
    dedupe: either way the replay re-streams the section and the daemon
    applies the write exactly once."""
    deployment, api, ctx, (queue,), program = _rig(retry_policy=RetryPolicy())
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    install_fault_injector(
        deployment.cluster.network,
        FaultPlan([FaultAction("drop", tag=fault)], max_transfers=10_000),
    )
    host = np.arange(N, dtype=np.float32)
    api.clEnqueueWriteBuffer(queue, buf, True, 0, host)
    daemon = deployment.daemons[0]
    assert deployment.driver.stats.replayed_batches == 1
    assert daemon.gcf.stats.commands["BufferDataUpload"][0] == 1
    assert daemon.gcf.stats.deduped_batches == (fault == "CommandBatchResponse")
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data.view(np.float32), host)


# ----------------------------------------------------------------------
# the local clFinish
# ----------------------------------------------------------------------
def test_a_finish_with_nothing_to_learn_costs_no_round_trip(monkeypatch):
    """After a folded finish and a blocking read on the same queue, the
    driver's download is the queue's last command and already complete:
    the next ``clFinish`` sends nothing and resumes at its arrival."""
    deployment, api, ctx, (queue,), program = _rig()
    host = np.arange(N, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, host.nbytes, host)
    _launch(api, program, queue, buf, 2.0)
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data.view(np.float32), host * 2)
    # The tail is the driver's download on this queue, not the launch.
    tail = deployment.driver._events[queue.tail_event_id]
    assert queue.tail_event_id != queue.last_event_id and tail.resolved
    stats = deployment.driver.stats
    before = stats.snapshot()
    tags = _tags(monkeypatch, deployment)
    api.clFinish(queue)
    assert tags == []
    assert stats.round_trips == before["round_trips"]
    assert stats.local_finishes - before["local_finishes"] == 1
    assert api.now >= tail.completion_arrival
    assert f"local_finishes={stats.local_finishes}" in cachestat_text(deployment)


def test_a_finish_whose_last_completion_never_arrived_sends_the_finish(monkeypatch):
    """The launch's completion notification is lost for good (every
    re-send dropped): the client does not hold the completion, so the
    Finish goes out to learn it."""
    deployment, api, ctx, (queue,), program = _rig()
    buf = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * N)  # no upload ahead
    install_fault_injector(
        deployment.cluster.network,
        FaultPlan([FaultAction("drop", tag="EventCompleteNotification")] * 3),
    )
    event = _launch(api, program, queue, buf, 2.0)
    api.clFinish(queue)  # folded into the launch's batch
    assert not event.resolved
    stats = deployment.driver.stats
    before = stats.snapshot()
    tags = _tags(monkeypatch, deployment)
    api.clFinish(queue)
    assert tags == ["FinishRequest", "Ack"]
    assert stats.round_trips - before["round_trips"] == 1
    assert stats.local_finishes == before["local_finishes"]


def test_an_out_of_order_queue_always_sends_the_finish(monkeypatch):
    deployment, api, ctx, (queue,), program = _rig(
        properties=CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE
    )
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    event = _launch(api, program, queue, buf, 2.0)
    api.clFinish(queue)
    assert event.resolved
    tags = _tags(monkeypatch, deployment)
    api.clFinish(queue)
    assert tags == ["FinishRequest", "Ack"]
    assert deployment.driver.stats.local_finishes == 0


# ----------------------------------------------------------------------
# a push staged inside its own launch's overflow flush
# ----------------------------------------------------------------------
def test_a_launch_that_overflows_the_window_keeps_its_push():
    """At ``batch_window=1`` every launch's own defer overflows the
    window, so the kernel completes and its push is staged before the
    launch call returns.  The directory records the kernel's write
    before the defer, so the staged push carries the current epoch and
    is committed, not discarded."""
    deployment = deploy_dopencl(make_desktop_and_gpu_server(), batch_window=1)
    api = deployment.api
    gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    events = generate_events(disk_phantom(24), 3000, seed=7)
    ListModeOSEM(api, gpus, image_size=24, n_subsets=2, n_samples=24).run(events, 2)
    stats = deployment.driver.stats
    assert stats.speculative_pushes > 0
    assert stats.push_commits == stats.speculative_pushes
    assert stats.wasted_pushes == 0
