"""``clFinish`` costs at most its drain.

An in-order queue the application still holds, whose last command waits
on no user event left unset, learns its completion from the notification
its daemon sends anyway: the drain carries no ``FinishRequest`` and the
client resumes when both that notification and the reply to the drain's
last batch to the daemon arrived (``local_finishes``).  Any other queue
(out of order, nothing enqueued yet, released, or gated on an unset user
event) has its ``FinishRequest`` close the drain's batch to its daemon
and blocks on that batch's reply (``folded_finishes``): one round trip
instead of a batch plus a Finish.  A batch whose every command succeeded
is answered with no per-command replies.  These tests pin each behaviour
separately.
"""

import numpy as np
import pytest

from repro.bench.multiclient import MULTI_SOURCE
from repro.core.client.resilience import RetryPolicy
from repro.core.daemon.admission import AdmissionPolicy
from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster, make_multi_client_gpu_server
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CLError
from repro.ocl.constants import (
    CL_DEVICE_TYPE_GPU,
    CL_MEM_WRITE_ONLY,
    CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE,
    ErrorCode,
)
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.sim.timeline import Timeline
from repro.testbed import deploy_dopencl
from repro.tools import cachestat_text

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""

N = 64


def _rig(n_servers=1, properties=0, **kwargs):
    """A deployment with a context over every device, one queue per
    device (``properties`` on the first) and a built ``scale`` program,
    all settled on the daemons."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [
        api.clCreateCommandQueue(ctx, device, properties if i == 0 else 0)
        for i, device in enumerate(devices)
    ]
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


def _batches(monkeypatch, driver):
    """Record every batch the driver sends (its messages) and its outcome."""
    sent = []
    request_batch = driver.gcf.request_batch

    def spy(target, msgs, *args, **kwargs):
        outcome = request_batch(target, msgs, *args, **kwargs)
        sent.append((list(msgs), outcome))
        return outcome

    monkeypatch.setattr(driver.gcf, "request_batch", spy)
    return sent


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
    """The drain's batch carries the launch and no Finish; the client
    resumes at the launch's completion notification, which arrives after
    the batch's reply."""
    deployment, api, ctx, (queue,), program = _rig()
    buf = _buffer(api, ctx)
    event = _launch(api, program, queue, buf, 2.0)  # uploads buf; the launch stays windowed
    stats = deployment.driver.stats
    before = stats.snapshot()
    batches = _batches(monkeypatch, deployment.driver)
    tags = _tags(monkeypatch, deployment)
    api.clFinish(queue)
    assert stats.round_trips - before["round_trips"] == 1
    assert stats.batches - before["batches"] == 1 and stats.requests == before["requests"]
    assert stats.local_finishes - before["local_finishes"] == 1
    assert stats.folded_finishes == before["folded_finishes"]
    assert "FinishRequest" not in tags
    assert tags.count("CommandBatch") == tags.count("CommandBatchResponse") == 1
    ((msgs, outcome),) = batches
    assert [type(m).__name__ for m in msgs] == ["EnqueueKernelRequest"]
    assert outcome.reply_arrival < event.completion_arrival == api.now
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
    """A kernel on S1, a waiter on S2, a waiter on S1's out-of-order
    queue: the first pass's folded Finish on S1 answers "deadlock" (the
    relay from S2 arrives only in the third pass) and is superseded by
    the last."""
    deployment, api, ctx, (q1, q2), program = _rig(
        n_servers=2, properties=CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE
    )
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


def test_three_pass_cross_server_chain_on_an_in_order_queue_sends_no_finish(monkeypatch):
    """The same chain on an in-order queue: the three passes carry no
    Finish, so no pass can answer "deadlock"; the last launch's
    notification ends the ``clFinish``."""
    deployment, api, ctx, (q1, q2), program = _rig(n_servers=2)
    bufs = [_buffer(api, ctx) for _ in range(3)]
    e1 = _launch(api, program, q1, bufs[0], 2.0)
    e2 = _launch(api, program, q2, bufs[1], 3.0, wait_for=[e1])
    e3 = _launch(api, program, q1, bufs[2], 5.0, wait_for=[e2])
    driver = deployment.driver
    before = driver.stats.snapshot()
    batches = _batches(monkeypatch, driver)
    api.clFinish(q1)
    assert driver.stats.round_trips - before["round_trips"] == 3
    assert driver.stats.local_finishes - before["local_finishes"] == 1
    assert driver.stats.folded_finishes == before["folded_finishes"]
    assert not any(isinstance(m, P.FinishRequest) for msgs, _ in batches for m in msgs)
    assert all(outcome.responses == [] for _, outcome in batches)  # every command succeeded
    assert api.now == max(e3.completion_arrival, batches[-1][1].reply_arrival)
    for queue, buf, factor in zip((q1, q2, q1), bufs, (2.0, 3.0, 5.0)):
        data, _ = api.clEnqueueReadBuffer(queue, buf)
        np.testing.assert_array_equal(data.view(np.float32), factor)


def test_a_tail_gated_on_an_unset_user_event_folds_its_finish(monkeypatch):
    """The queue's last launch waits (through a launch on another queue)
    on a user event nobody set: its notification cannot come, so the
    Finish rides the drain's batch and its "deadlock" answer costs that
    one round trip; once the event is set the queue finishes locally."""
    deployment, api, ctx, (q1,), program = _rig()
    q2 = api.clCreateCommandQueue(ctx, q1.device)
    user = api.clCreateUserEvent(ctx)
    gate = _launch(api, program, q2, _buffer(api, ctx), 3.0, wait_for=[user])
    _launch(api, program, q1, _buffer(api, ctx), 2.0, wait_for=[gate])
    driver = deployment.driver
    before = driver.stats.snapshot()
    batches = _batches(monkeypatch, driver)
    with pytest.raises(CLError) as err:
        api.clFinish(q1)
    assert str(err.value) == (
        "CL_INVALID_OPERATION (-59): deadlock: clFinish with commands gated on an "
        "incomplete user event"
    )
    assert driver.stats.round_trips - before["round_trips"] == 1
    assert driver.stats.folded_finishes - before["folded_finishes"] == 1
    ((msgs, _outcome),) = batches
    assert isinstance(msgs[-1], P.FinishRequest)
    api.clSetUserEventStatus(user, 0)
    api.clFinish(q1)
    assert driver.stats.local_finishes - before["local_finishes"] == 1


def test_a_released_queue_never_finishes_locally():
    """The queue's last reference is gone and another queue's drain
    delivered the release: the client still holds the tail's completion,
    yet the Finish goes to the daemon, which no longer knows the queue."""
    deployment, api, ctx, (queue,), program = _rig()
    other = api.clCreateCommandQueue(ctx, queue.device)
    _launch(api, program, queue, _buffer(api, ctx), 2.0)
    api.clFinish(queue)
    api.clReleaseCommandQueue(queue)
    api.clFinish(other)  # drains the release
    stats = deployment.driver.stats
    before = stats.snapshot()
    with pytest.raises(CLError) as err:
        api.clFinish(queue)
    assert err.value.code == ErrorCode.CL_INVALID_COMMAND_QUEUE
    assert stats.local_finishes == before["local_finishes"]
    assert stats.round_trips - before["round_trips"] == 1


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


def _dropped_reply_run(monkeypatch, properties):
    """Launch on a fresh rig's queue and ``clFinish`` it with the first
    batch reply dropped under a ``RetryPolicy``; returns the deployment,
    the launch's event, and the batch outcomes the ``clFinish`` received
    and the time it returned, both taken before a read checks the
    kernel ran."""
    deployment, api, ctx, (queue,), program = _rig(
        properties=properties, retry_policy=RetryPolicy()
    )
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

    event = _launch(api, program, queue, buf, 2.0)  # uploads buf; the launch stays windowed
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
    finished, finished_at = list(outcomes), api.now
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data.view(np.float32), 2.0)
    return deployment, event, finished, finished_at


def test_a_dropped_folded_reply_is_re_answered_by_the_dedupe(monkeypatch):
    """An out-of-order queue folds its Finish: the replayed batch's
    reply, the Finish's included, is the dedupe's cached one."""
    deployment, event, outcomes, finished_at = _dropped_reply_run(
        monkeypatch, CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE
    )
    (replayed,) = outcomes  # the dropped attempt never returned
    assert replayed.responses == []
    assert finished_at == replayed.reply_arrival
    assert deployment.driver.stats.folded_finishes == 2  # this one and _rig's


def test_a_dropped_drain_reply_delays_a_local_finish_until_the_replay(monkeypatch):
    """An in-order queue's drain carries no Finish, yet a local finish
    still waits for the reply to the drain's batch: the replay's, which
    arrives after the launch's completion notification."""
    deployment, event, outcomes, finished_at = _dropped_reply_run(monkeypatch, 0)
    (replayed,) = outcomes
    assert replayed.responses == []
    assert finished_at == replayed.reply_arrival > event.completion_arrival
    stats = deployment.driver.stats
    assert stats.local_finishes == 1 and stats.folded_finishes == 1  # _rig's


def _tenant_states(deployment):
    """A context, queue, built ``fill`` program and buffer per tenant,
    tenant ``i`` on GPU ``i``."""
    states = []
    for i, cl in enumerate(deployment.apis):
        gpu = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[i]
        ctx = cl.clCreateContext([gpu])
        queue = cl.clCreateCommandQueue(ctx, gpu)
        program = cl.clCreateProgramWithSource(ctx, MULTI_SOURCE)
        cl.clBuildProgram(program)
        states.append((cl, queue, program, cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 128)))
    return states


def _tenant_round(states, r):
    """Every tenant launches ``fill``, then every tenant finishes."""
    for cl, queue, program, buf in states:
        kernel = cl.clCreateKernel(program, "fill")
        cl.clSetKernelArg(kernel, 0, buf)
        cl.clSetKernelArg(kernel, 1, np.float32(r))
        cl.clSetKernelArg(kernel, 2, 32)
        cl.clEnqueueNDRangeKernel(queue, kernel, (32,))
    for cl, queue, *_ in states:
        cl.clFinish(queue)


def test_a_tenant_rig_is_bound_by_daemon_cpu_holding_one_slice_per_launch(monkeypatch):
    """``Deployment.utilisation`` over steady tenant rounds: the daemon's
    CPU is the busiest timeline, and all it did was receive one batch and
    dispatch one command per launch — no Finish."""
    tenants, rounds = 4, 3
    deployment = deploy_dopencl(make_multi_client_gpu_server(tenants), n_clients=tenants)
    states = _tenant_states(deployment)
    _tenant_round(states, 0)
    cpu = deployment.daemons[0].gcf.cpu
    tags = []
    allocate = Timeline.allocate

    def spy(self, ready, duration, tag=None):
        if self is cpu:
            tags.append(tag)
        return allocate(self, ready, duration, tag)

    start = deployment.mark()
    monkeypatch.setattr(Timeline, "allocate", spy)
    for r in range(1, 1 + rounds):
        _tenant_round(states, r)
    monkeypatch.setattr(Timeline, "allocate", allocate)
    end = deployment.mark()
    rows = deployment.utilisation(start, end)
    (label, share), (_, runner_up) = rows[:2]
    assert label == cpu.name and share > runner_up
    launches = tenants * rounds
    assert sorted(tags) == ["CommandBatch"] * launches + ["EnqueueKernelRequest"] * launches
    spec = deployment.daemons[0].host.spec
    slice_ = spec.request_overhead + spec.batch_command_overhead
    assert share * (end[0] - start[0]) == pytest.approx(launches * slice_)
    assert f"Utilisation (busy share over the run): {cpu.name} " in cachestat_text(deployment)


def test_a_tenant_loop_finishes_every_round_locally():
    """The tenant_steady shape: every round launches and finishes once
    per tenant, so every ``clFinish`` learns its completion from the
    launch's notification, its drain carrying no Finish — and
    ``cachestat`` shows the tally per client."""
    tenants, rounds = 3, 4
    deployment = deploy_dopencl(make_multi_client_gpu_server(tenants), n_clients=tenants)
    states = _tenant_states(deployment)
    for r in range(rounds):
        _tenant_round(states, r)
    text = cachestat_text(deployment)
    for driver in deployment.drivers:
        assert driver.stats.local_finishes == rounds and driver.stats.folded_finishes == 0
        assert driver.stats.round_trips == 1 + rounds  # the device query, one batch a round
        assert driver.stats.requests == 1  # the device query, no Finish of its own
        assert f"Client {driver.gcf.name}: " in text
        assert f"local_finishes={rounds} folded_finishes=0" in text
