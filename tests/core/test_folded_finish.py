"""``clFinish`` rides its daemon's batch.

When the drain of a ``clFinish`` sends the queue's daemon a batch, the
``FinishRequest`` closes that batch and the client blocks on the
batch's reply: one round trip instead of a batch plus a Finish.  A
batch whose every command succeeded is answered with no per-command
replies, so the folded reply costs about what the Finish's ``Ack``
did.  These tests pin each behaviour of the fold separately.
"""

import numpy as np
import pytest

from repro.bench.multiclient import MULTI_SOURCE
from repro.core.client.resilience import RetryPolicy
from repro.core.daemon.admission import AdmissionPolicy
from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster, make_multi_client_gpu_server
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CLError
from repro.ocl.constants import CL_DEVICE_TYPE_GPU, CL_MEM_WRITE_ONLY, ErrorCode
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl
from repro.tools import cachestat_text

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""

N = 64


def _rig(n_servers=1, **kwargs):
    """A deployment with a context over every device, one queue per
    device and a built ``scale`` program, all settled on the daemons."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, device) for device in devices]
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    for queue in queues:
        api.clFinish(queue)
    return deployment, api, ctx, queues, program


def _buffer(api, ctx, value=1.0):
    host = np.full(N, value, dtype=np.float32)
    return api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, host.nbytes, host)


def _launch(api, program, queue, buf, factor, wait_for=None):
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(factor))
    api.clSetKernelArg(kernel, 2, N)
    return api.clEnqueueNDRangeKernel(queue, kernel, (N,), wait_for=wait_for)


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


def test_finish_with_pending_work_costs_one_round_trip(monkeypatch):
    deployment, api, ctx, (queue,), program = _rig()
    buf = _buffer(api, ctx)
    _launch(api, program, queue, buf, 2.0)  # uploads buf; the launch stays windowed
    stats = deployment.driver.stats
    before = stats.snapshot()
    tags = _tags(monkeypatch, deployment)
    api.clFinish(queue)
    assert stats.round_trips - before["round_trips"] == 1
    assert stats.batches - before["batches"] == 1 and stats.requests == before["requests"]
    assert stats.folded_finishes - before["folded_finishes"] == 1
    assert "FinishRequest" not in tags  # it crossed inside the CommandBatch
    assert tags.count("CommandBatch") == tags.count("CommandBatchResponse") == 1
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data.view(np.float32), 2.0)


def test_finish_with_an_empty_window_sends_the_finish_alone(monkeypatch):
    deployment, api, ctx, (queue,), program = _rig()
    stats = deployment.driver.stats
    before = stats.snapshot()
    tags = _tags(monkeypatch, deployment)
    api.clFinish(queue)
    assert tags == ["FinishRequest", "Ack"]
    assert stats.round_trips - before["round_trips"] == 1
    assert stats.requests - before["requests"] == 1
    assert stats.folded_finishes == before["folded_finishes"]


def test_reference_path_keeps_one_round_trip_per_call(monkeypatch):
    """``batch_window=0``: every call was its own round trip already, so
    the drain sends nothing and the Finish travels alone."""
    deployment, api, ctx, (queue,), program = _rig(batch_window=0)
    buf = _buffer(api, ctx)
    stats = deployment.driver.stats
    tags = _tags(monkeypatch, deployment)
    _launch(api, program, queue, buf, 2.0)
    launched = len(tags)
    api.clFinish(queue)
    assert tags[launched:] == ["FinishRequest", "Ack"]
    assert stats.batches == 0 and stats.folded_finishes == 0


def test_three_pass_cross_server_chain_folds_without_a_deadlock_error(monkeypatch):
    """A kernel on S1, a waiter on S2, a waiter on S1's queue: the first
    pass's folded Finish on S1 answers "deadlock" (the relay from S2
    arrives only in the third pass) and is superseded by the last."""
    deployment, api, ctx, (q1, q2), program = _rig(n_servers=2)
    bufs = [_buffer(api, ctx) for _ in range(3)]
    e1 = _launch(api, program, q1, bufs[0], 2.0)
    e2 = _launch(api, program, q2, bufs[1], 3.0, wait_for=[e1])
    _launch(api, program, q1, bufs[2], 5.0, wait_for=[e2])
    driver = deployment.driver
    before = driver.stats.snapshot()
    folded = []
    request_batch = driver.gcf.request_batch

    def spy(target, msgs, *args, **kwargs):
        outcome = request_batch(target, msgs, *args, **kwargs)
        if isinstance(msgs[-1], P.FinishRequest):
            folded.append(outcome.responses[-1:])
        return outcome

    monkeypatch.setattr(driver.gcf, "request_batch", spy)
    api.clFinish(q1)
    # Passes: {S1 + Finish, S2 with e1's relay}, {S1: e2's relay + Finish}
    # (no command waits on the last launch, so nothing relays back to
    # S2); a Finish of its own would be a fourth round trip.
    assert driver.stats.round_trips - before["round_trips"] == 3
    assert driver.stats.folded_finishes - before["folded_finishes"] == 1
    (early,), last = folded
    assert early.error and early.detail.startswith("deadlock: ")
    assert last == []  # everything in the last batch succeeded
    for queue, buf, factor in zip((q1, q2, q1), bufs, (2.0, 3.0, 5.0)):
        data, _ = api.clEnqueueReadBuffer(queue, buf)
        np.testing.assert_array_equal(data.view(np.float32), factor)


def test_failed_deferred_creation_in_the_finish_batch_raises_its_own_error():
    """The queue's own creation fails in the batch its Finish closes, so
    both fail: the stashed creation error raises first, as it did before
    the Finish was sent, and the Finish's own error at the next call."""
    deployment = deploy_dopencl(
        make_multi_client_gpu_server(1),
        admission=AdmissionPolicy(max_objects_per_client=1),
    )
    cl = deployment.api
    device = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[0]
    ctx = cl.clCreateContext([device])  # 1 object: at quota
    queue = cl.clCreateCommandQueue(ctx, device)  # over quota, deferred
    quota = "admission control: client 'client@desktop0' holds 1 objects (quota 1)"
    with pytest.raises(CLError) as first:
        cl.clFinish(queue)
    assert first.value.code == ErrorCode.CL_OUT_OF_RESOURCES
    assert str(first.value) == (
        f"CL_OUT_OF_RESOURCES (-5): deferred CreateQueueRequest (handle {queue.id}) "
        f"failed: {quota}"
    )
    with pytest.raises(CLError) as second:  # the Finish travels alone now
        cl.clFinish(queue)
    assert str(second.value) == (
        f"CL_OUT_OF_RESOURCES (-5): ID {queue.id} was poisoned by a failed command: {quota}"
    )


def test_a_dropped_folded_reply_is_re_answered_by_the_dedupe(monkeypatch):
    deployment, api, ctx, (queue,), program = _rig(retry_policy=RetryPolicy())
    buf = _buffer(api, ctx)
    daemon, driver = deployment.daemons[0], deployment.driver
    launches = []
    launch = daemon.gcf._request_handlers[P.EnqueueKernelRequest]

    def counting(msg, t, sender):
        launches.append(msg)
        return launch(msg, t, sender)

    monkeypatch.setitem(daemon.gcf._request_handlers, P.EnqueueKernelRequest, counting)
    outcomes = []
    request_batch = driver.gcf.request_batch

    def spy(*args, **kwargs):
        outcomes.append(request_batch(*args, **kwargs))
        return outcomes[-1]

    _launch(api, program, queue, buf, 2.0)  # uploads buf; the launch stays windowed
    monkeypatch.setattr(driver.gcf, "request_batch", spy)
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan([FaultAction("drop", nth=1, tag="CommandBatchResponse")], max_transfers=10_000),
    )
    api.clFinish(queue)
    assert injector.injected_drops == 1
    assert driver.stats.replayed_batches == 1
    assert daemon.gcf.stats.deduped_batches == 1
    assert len(launches) == 1  # the kernel ran once
    (replayed,) = outcomes  # the dropped attempt never returned
    assert replayed.responses == []
    assert api.now == replayed.reply_arrival
    assert driver.stats.folded_finishes == 2  # this one and _rig's
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data.view(np.float32), 2.0)


def test_a_tenant_loop_counts_one_fold_per_finish():
    """The tenant_steady shape: every round launches and finishes once
    per tenant, so every ``clFinish`` folds exactly once — and
    ``cachestat`` shows the tally per client."""
    tenants, rounds = 3, 4
    deployment = deploy_dopencl(make_multi_client_gpu_server(tenants), n_clients=tenants)
    states = []
    for i, cl in enumerate(deployment.apis):
        gpu = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[i]
        ctx = cl.clCreateContext([gpu])
        queue = cl.clCreateCommandQueue(ctx, gpu)
        program = cl.clCreateProgramWithSource(ctx, MULTI_SOURCE)
        cl.clBuildProgram(program)
        states.append((cl, queue, program, cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 128)))
    for r in range(rounds):
        for cl, queue, program, buf in states:
            kernel = cl.clCreateKernel(program, "fill")
            cl.clSetKernelArg(kernel, 0, buf)
            cl.clSetKernelArg(kernel, 1, np.float32(r))
            cl.clSetKernelArg(kernel, 2, 32)
            cl.clEnqueueNDRangeKernel(queue, kernel, (32,))
        for cl, queue, *_ in states:
            cl.clFinish(queue)
    text = cachestat_text(deployment)
    for driver in deployment.drivers:
        assert driver.stats.folded_finishes == rounds
        assert driver.stats.requests == 1  # the device query, no Finish of its own
        assert f"Client {driver.gcf.name}: " in text
        assert f"folded_finishes={rounds}" in text
