"""Window-deferred non-blocking reads: the ISSUE-10 regression suite.

The pre-PR non-blocking read path had four distinct bugs, each pinned
here by a test that fails on the old code:

1. **Stale reads** — ``blocking=False`` skipped the dependency-closure
   drain, so a read racing its producer kernel returned pre-write bytes.
   Now the enqueue records a read-dep on the buffer's writers and the
   fetch rides the next relevant flush, under *every* flag combination.
2. **Eager fetch at enqueue** — the "non-blocking" read synchronously
   downloaded at enqueue.  Now the enqueue costs zero round trips, zero
   wire bytes and no virtual time beyond the call overhead, and the
   ``wait_for`` list becomes event-deps of the deferred fetch.
3. **Fabricated profiling timestamps** — the returned event resolved
   with client-local times.  Now it carries the fetch's daemon-side
   completion time and the data's client arrival, separated by the
   simulated link's latency + wire time.
4. **Validate-after-mutate** — an out-of-range ``offset``/``nbytes``
   raised only after planner/directory state had mutated.  Now both
   read and write enqueues raise ``CL_INVALID_VALUE`` first and leave
   the coherence machinery (and the wire) untouched.

Plus the composition contracts: a PR-9 staged push satisfies a deferred
read without any fetch round trip; a gang of deferred fetches fuses
into one resolution batch; a daemon lost under the
deferred fetch poisons the event deterministically; releasing a buffer
resolves its pending deferred read first; one selector call naming a
wait-list event and a WAR buffer resolves the union.
"""

import itertools

import numpy as np
import pytest

from repro.core.client.resilience import RetryPolicy
from repro.hw.cluster import make_ib_cpu_cluster
from repro.hw.specs import INFINIBAND_QDR
from repro.ocl import (
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_WRITE,
    CLError,
    ErrorCode,
)
from repro.ocl.api import API_CALL_OVERHEAD
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""


def _deployment(n_servers=2, n=64, **kwargs):
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    return deployment, api, devices, ctx, program


def _scaled_buffer(api, ctx, program, device, value=2.0, n=64):
    """A queue + buffer of ones + an enqueued (windowed, undispatched)
    kernel scaling it by ``value``; returns (queue, buffer, kernel_ev)."""
    queue = api.clCreateCommandQueue(ctx, device)
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(value))
    api.clSetKernelArg(kernel, 2, n)
    ev = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    return queue, buf, ev


# ----------------------------------------------------------------------
# bug 1: the stale-read hazard, under every switch combination
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "defer_reads,batch_window,push_transfers",
    list(itertools.product((True, False), (None, 0), (True, False))),
)
def test_nonblocking_read_observes_its_producer(
    defer_reads, batch_window, push_transfers
):
    """A non-blocking read enqueued right behind the (still windowed)
    kernel that writes the buffer must observe the post-kernel bytes —
    the read-dep on the buffer's writers drains the producer before the
    fetch.  The pre-PR path skipped the closure drain and returned the
    stale host copy (all ones)."""
    deployment, api, devices, ctx, program = _deployment(
        defer_reads=defer_reads,
        batch_window=batch_window,
        push_transfers=push_transfers,
    )
    queue, buf, _ = _scaled_buffer(api, ctx, program, devices[0])
    data, ev = api.clEnqueueReadBuffer(queue, buf, blocking=False)
    api.clWaitForEvents([ev])
    np.testing.assert_allclose(data.view(np.float32), 2.0)


# ----------------------------------------------------------------------
# bug 2: the enqueue itself is free (deferred fetch, wait_for as deps)
# ----------------------------------------------------------------------
def test_deferred_enqueue_costs_no_round_trips_and_no_virtual_time():
    deployment, api, devices, ctx, program = _deployment()
    driver = deployment.driver
    queue, buf, kernel_ev = _scaled_buffer(api, ctx, program, devices[0])
    gate = api.clCreateUserEvent(ctx)
    before = driver.stats.snapshot()
    t0 = api.clock.now
    data, ev = api.clEnqueueReadBuffer(
        queue, buf, blocking=False, wait_for=[gate, kernel_ev]
    )
    after = driver.stats.snapshot()
    # Zero synchronous network traffic at enqueue: no requests, no batch
    # dispatch, no bulk fetch, not a byte on the wire.
    assert after["round_trips"] == before["round_trips"]
    assert after["bytes_sent"] == before["bytes_sent"]
    assert after["bytes_received"] == before["bytes_received"]
    # Zero virtual-time advance beyond the API call overhead itself.
    assert api.clock.now == pytest.approx(t0 + API_CALL_OVERHEAD)
    # The wait list became event-deps of the deferred fetch instead of
    # blocking the enqueue: the event is pending and remembers its gates.
    assert not ev.resolved
    assert gate.id in ev.depends_on and kernel_ev.id in ev.depends_on
    # Resolution honours them: completing the gate and waiting delivers
    # the post-kernel bytes.
    api.clSetUserEventStatus(gate, 0)
    api.clWaitForEvents([ev])
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    assert driver.stats.deferred_reads == 1


# ----------------------------------------------------------------------
# bug 3: profiling timestamps come from the fetch, not the client clock
# ----------------------------------------------------------------------
def test_deferred_read_event_carries_real_transfer_timestamps():
    """The resolved event's ``completed_at`` is the fetch's daemon-side
    completion and ``completion_arrival`` the data's client arrival —
    separated by at least the simulated link's one-way latency plus the
    payload's wire time, never two copies of the client clock."""
    n = 16384  # 64 KiB: wire time well above the 2 us IB latency
    deployment, api, devices, ctx, program = _deployment(n=n)
    queue, buf, _ = _scaled_buffer(api, ctx, program, devices[0], n=n)
    data, ev = api.clEnqueueReadBuffer(queue, buf, blocking=False)
    api.clWaitForEvents([ev])
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    assert ev.completed_at is not None and ev.completion_arrival is not None
    gap = ev.completion_arrival - ev.completed_at
    wire_floor = INFINIBAND_QDR.latency + buf.size / INFINIBAND_QDR.bandwidth
    assert gap >= wire_floor
    # Waiting advanced the client clock to the arrival, not past it.
    assert api.clock.now >= ev.completion_arrival


# ----------------------------------------------------------------------
# bug 4: validate before mutate (read AND write enqueues)
# ----------------------------------------------------------------------
def test_out_of_range_read_raises_before_any_mutation():
    deployment, api, devices, ctx, program = _deployment()
    driver = deployment.driver
    queue, buf, _ = _scaled_buffer(api, ctx, program, devices[0])
    before = driver.stats.snapshot()
    for offset, nbytes in ((0, buf.size + 1), (buf.size, 4), (-4, 4), (0, -1)):
        with pytest.raises(CLError) as err:
            api.clEnqueueReadBuffer(
                queue, buf, blocking=False, offset=offset, nbytes=nbytes
            )
        assert err.value.code == ErrorCode.CL_INVALID_VALUE
    after = driver.stats.snapshot()
    # Nothing moved: no deferred read recorded, no traffic, and the
    # coherence planner still sees the client copy as stale.
    assert after == before
    assert not driver._deferred_reads
    assert not buf.planner.is_valid("client")
    # The machinery is intact: a valid read still works.
    data, ev = api.clEnqueueReadBuffer(queue, buf, blocking=False)
    api.clWaitForEvents([ev])
    np.testing.assert_allclose(data.view(np.float32), 2.0)


def test_out_of_range_write_raises_before_any_mutation():
    deployment, api, devices, ctx, program = _deployment()
    driver = deployment.driver
    queue, buf, _ = _scaled_buffer(api, ctx, program, devices[0])
    api.clFinish(queue)
    before = driver.stats.snapshot()
    with pytest.raises(CLError) as err:
        api.clEnqueueWriteBuffer(
            queue, buf, True, buf.size - 2, np.zeros(4, dtype=np.uint8)
        )
    assert err.value.code == ErrorCode.CL_INVALID_VALUE
    # The rejected write neither uploaded nor fetched (no read-modify-
    # write round trip) nor touched the buffer contents.
    assert driver.stats.snapshot() == before
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_allclose(data.view(np.float32), 2.0)


# ----------------------------------------------------------------------
# composition: staged pushes, coalesced gangs, daemon loss, release
# ----------------------------------------------------------------------
def test_staged_push_satisfies_deferred_read_without_a_fetch():
    """With predictive pushes on, the daemon ships the kernel's result
    at completion (once the first epoch's read has taught the predictor
    that the client consumes this buffer); a deferred read whose data
    already arrived resolves from the staged push — no bulk fetch round
    trip — with the push's arrival as both timestamps."""
    deployment, api, devices, ctx, program = _deployment(push_transfers=True)
    driver = deployment.driver
    queue, buf, _ = _scaled_buffer(api, ctx, program, devices[0])
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, 64)
    # Train the predictor: an epoch closes (entering the history) when
    # the *next* kernel launch opens a new one, so the STABLE_EPOCHS=2
    # producer->client edge is visible at the fourth launch.  The first
    # epoch's kernel came from the helper above.
    data, ev = api.clEnqueueReadBuffer(queue, buf, blocking=False)
    api.clWaitForEvents([ev])
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    for expect in (4.0, 8.0):
        api.clEnqueueNDRangeKernel(queue, kernel, (64,))
        data, ev = api.clEnqueueReadBuffer(queue, buf, blocking=False)
        api.clWaitForEvents([ev])
        np.testing.assert_allclose(data.view(np.float32), expect)
    # Fourth launch: the completion notification carries the staged
    # push (hinted at launch — speculative_pushes counts on the client;
    # the daemon-side execution counter lives on the daemon's stats).
    api.clEnqueueNDRangeKernel(queue, kernel, (64,))
    api.clFinish(queue)
    assert driver.stats.speculative_pushes >= 1
    assert deployment.daemon_on(queue.server.name).gcf.stats.daemon_pushes >= 1
    fetches_before = driver.stats.bulk_fetches
    data, ev = api.clEnqueueReadBuffer(queue, buf, blocking=False)
    api.clWaitForEvents([ev])
    np.testing.assert_allclose(data.view(np.float32), 16.0)
    assert driver.stats.bulk_fetches == fetches_before
    assert driver.stats.push_commits == 1
    assert driver.stats.deferred_reads == 4
    assert ev.completed_at == ev.completion_arrival  # the push's arrival


def test_deferred_fetches_fuse_as_a_gang():
    """Two deferred reads stranded on the same daemon resolve in one
    batch whose downloads fuse exactly like a blocking read's gang."""
    deployment, api, devices, ctx, program = _deployment(push_transfers=False)
    driver = deployment.driver
    queue, buf_a, _ = _scaled_buffer(api, ctx, program, devices[0], value=2.0)
    kernel = api.clCreateKernel(program, "scale")
    x = np.ones(64, dtype=np.float32)
    buf_b = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    api.clSetKernelArg(kernel, 0, buf_b)
    api.clSetKernelArg(kernel, 1, np.float32(3.0))
    api.clSetKernelArg(kernel, 2, 64)
    api.clEnqueueNDRangeKernel(queue, kernel, (64,))
    coalesced_before = driver.stats.coalesced_reads
    data_a, _ = api.clEnqueueReadBuffer(queue, buf_a, blocking=False)
    data_b, _ = api.clEnqueueReadBuffer(queue, buf_b, blocking=False)
    api.clFinish(queue)  # one full drain resolves both
    np.testing.assert_allclose(data_a.view(np.float32), 2.0)
    np.testing.assert_allclose(data_b.view(np.float32), 3.0)
    assert driver.stats.deferred_reads == 2
    assert driver.stats.deferred_read_batches == 1
    assert driver.stats.coalesced_reads > coalesced_before


def test_daemon_loss_poisons_the_deferred_read_event():
    """A daemon crashed before the deferred fetch runs can never deliver
    the data: resolution poisons the event with the deterministic
    daemon-loss error instead of deadlocking, and every later wait
    re-raises the same error."""
    deployment, api, devices, ctx, program = _deployment(
        retry_policy=RetryPolicy()
    )
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan(
            actions=[FaultAction("crash", nth=1, tag="bulk:CoalescedBufferDownload")],
            max_transfers=10_000,
        ),
    )
    for daemon in deployment.daemons:
        injector.register_crash_hook(daemon.host.name, daemon.crash)
    queue, buf, _ = _scaled_buffer(api, ctx, program, devices[0])
    data, ev = api.clEnqueueReadBuffer(queue, buf, blocking=False)
    with pytest.raises(CLError) as first:
        api.clWaitForEvents([ev])
    assert ev.poisoned is not None
    with pytest.raises(CLError) as second:
        api.clWaitForEvents([ev])
    assert second.value.code == first.value.code
    assert deployment.driver.stats.dead_daemons == 1


def test_release_resolves_the_pending_deferred_read_first():
    """Releasing a buffer with a deferred read still pending runs the
    fetch before the release forwards (real OpenCL's enqueued read
    retains the mem object until completion)."""
    deployment, api, devices, ctx, program = _deployment()
    queue, buf, _ = _scaled_buffer(api, ctx, program, devices[0])
    data, ev = api.clEnqueueReadBuffer(queue, buf, blocking=False)
    api.clReleaseMemObject(buf)
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    assert ev.resolved
    api.clFinish(queue)  # the deferred remote release replays cleanly


def test_wait_list_event_and_war_buffer_select_the_union():
    """A launch that overwrites a buffer with a pending deferred read
    (WAR) *and* waits on another pending read's event names both in one
    selector call: the two reads — different buffers, different daemons
    — resolve together, before the launch is forwarded, each with its
    pre-launch bytes."""
    deployment, api, devices, ctx, program = _deployment(push_transfers=False)
    driver = deployment.driver
    queue_a, buf_a, _ = _scaled_buffer(api, ctx, program, devices[0], value=2.0)
    queue_b, buf_b, _ = _scaled_buffer(api, ctx, program, devices[1], value=3.0)
    data_a, ev_a = api.clEnqueueReadBuffer(queue_a, buf_a, blocking=False)
    data_b, ev_b = api.clEnqueueReadBuffer(queue_b, buf_b, blocking=False)
    assert not ev_a.resolved and not ev_b.resolved
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf_b)
    api.clSetKernelArg(kernel, 1, np.float32(5.0))
    api.clSetKernelArg(kernel, 2, 64)
    api.clEnqueueNDRangeKernel(queue_b, kernel, (64,), wait_for=[ev_a])
    assert ev_a.resolved and ev_b.resolved
    assert driver.stats.deferred_read_batches == 1
    np.testing.assert_allclose(data_a.view(np.float32), 2.0)
    np.testing.assert_allclose(data_b.view(np.float32), 3.0)
    data, _ = api.clEnqueueReadBuffer(queue_b, buf_b)
    np.testing.assert_allclose(data.view(np.float32), 15.0)
