"""Asynchronous batched call forwarding: send-window semantics.

Covers the driver-level pipeline: deferral of enqueue-class calls,
lazy flush at synchronization points, per-daemon ordering, deferred
error surfacing, and the round-trip accounting the optimisation is
judged by.
"""

import numpy as np
import pytest

from repro.core.client.reference import ReferenceDriver
from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import (
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_WRITE,
    CLError,
)
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
    # Drain the set-up (creations and the windowed build) so the
    # latency splits below isolate the enqueue pipeline.
    api.clFinish(queue)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, n)
    return deployment, api, devices, ctx, queue, buf, kernel, n


def test_enqueue_class_calls_are_windowed_not_round_tripped():
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    driver = deployment.driver
    # clCreateKernel and clSetKernelArg send nothing: the launch carries them.
    assert driver.pending_commands() == 0
    # Settle the first launch (it includes the coherence upload).
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    before = driver.stats.round_trips
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    # Nothing was sent: the launch (and the replica create) are windowed.
    assert driver.stats.round_trips == before
    assert driver.pending_commands(queue.server.name) > 0


def test_flush_at_finish_drains_all_windows_in_batches():
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    driver = deployment.driver
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    batches_before = driver.stats.batches
    api.clFinish(queue)
    assert driver.pending_commands() == 0
    assert driver.stats.batches > batches_before
    # The daemon saw the kernel: the buffer really was scaled.
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_allclose(data.view(np.float32), 2.0)


def test_event_wait_is_a_sync_point():
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    ev = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    assert not ev.resolved  # still in the send window
    api.clWaitForEvents([ev])  # flush hook drains the window
    assert ev.resolved


def test_per_daemon_program_order_is_preserved():
    """Arg updates and launches interleave; the daemon must observe them
    in client program order (scale by 2 then by 3, not 3 then 3)."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clSetKernelArg(kernel, 1, np.float32(3.0))
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_allclose(data.view(np.float32), 6.0)


def test_deferred_errors_surface_at_sync_point():
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    driver = deployment.driver
    # Hand-craft a bogus deferred command (unknown kernel id); the API
    # validates args client-side, so go through the driver directly.
    driver.defer(
        queue.server,
        P.SetKernelArgRequest(kernel_id=999999, index=0, kind="value", value=1),
    )
    with pytest.raises(CLError) as err:
        driver.flush_connection(queue.server)
    assert "deferred SetKernelArgRequest" in err.value.message


def test_handler_context_flush_stashes_error_until_next_sync_point():
    """A flush run with raise_errors=False (the notification-handler
    context) must not raise mid-callback; the failure surfaces at the
    next client-initiated sync point."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    driver = deployment.driver
    driver.defer(
        queue.server,
        P.SetKernelArgRequest(kernel_id=999999, index=0, kind="value", value=1),
    )
    driver.flush_connection(queue.server, raise_errors=False)  # no raise here
    assert driver.pending_commands(queue.server.name) == 0
    with pytest.raises(CLError) as err:
        driver.flush_all()  # empty windows, but the stashed error surfaces
    assert "deferred SetKernelArgRequest" in err.value.message


def test_window_fills_force_a_flush():
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(batch_window=4)
    driver = deployment.driver
    driver.flush_all()
    before = driver.stats.batches
    for _ in range(4):
        api.clSetKernelArg(kernel, 1, np.float32(2.0))
    assert driver.stats.batches == before  # the values stay on the stub
    # The launch weighs 5 calls (itself, the kernel's creation, three
    # argument entries): the window hits the cap.
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    assert driver.stats.batches == before + 1
    assert driver.pending_commands(queue.server.name) == 0


def test_batching_disabled_is_fully_synchronous():
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(batch_window=0)
    driver = deployment.driver
    assert type(driver) is ReferenceDriver
    before = driver.stats.requests
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    assert driver.stats.requests > before  # immediate round trip
    assert driver.stats.batches == 0
    assert driver.pending_commands() == 0
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_allclose(data.view(np.float32), 2.0)


def test_batched_and_sync_runs_agree_bit_exactly():
    def run(**kwargs):
        deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(**kwargs)
        for f in (2.0, 5.0):
            api.clSetKernelArg(kernel, 1, np.float32(f))
            api.clEnqueueNDRangeKernel(queue, kernel, (n,))
        api.clFinish(queue)
        data, _ = api.clEnqueueReadBuffer(queue, buf)
        return data.view(np.float32)

    np.testing.assert_array_equal(run(), run(batch_window=0))


def test_batching_saves_round_trips_and_enqueue_latency():
    def run(**kwargs):
        deployment, api, devices, ctx, queue, buf, kernel, n = _prepared(**kwargs)
        t0 = api.now
        for _ in range(6):
            api.clEnqueueNDRangeKernel(queue, kernel, (n,))
        t_enqueue = api.now - t0
        api.clFinish(queue)
        return deployment.driver.stats.round_trips, t_enqueue, api.now - t0

    rt_batched, enq_batched, total_batched = run()
    rt_sync, enq_sync, total_sync = run(batch_window=0)
    assert rt_batched < rt_sync
    # The client is unblocked far sooner: enqueues don't round-trip.
    assert enq_batched < 0.5 * enq_sync
    # End-to-end time is device-bound here (6 kernels back to back), so
    # batching must not cost more than the deferred launch hand-off plus
    # the relay-drain pass at the finish.  (The unbatched baseline also
    # benefits from relay suppression — legacy relays used to occupy the
    # client NIC at future timestamps — so the bound is a few percent,
    # not fractions of one.)
    assert total_batched <= total_sync * 1.05


def test_bulk_transfers_flush_the_window_first():
    """A blocking read observes every windowed command that precedes it
    (MSI download is ordered after the deferred kernel launch)."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    assert deployment.driver.pending_commands(queue.server.name) > 0
    data, _ = api.clEnqueueReadBuffer(queue, buf)  # no explicit clFinish
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    assert deployment.driver.pending_commands(queue.server.name) == 0


def test_multi_server_chain_with_batching():
    """The MSI ping-pong of test_end_to_end, but asserting window state:
    per-server order plus coherence-driven flushes keep data correct."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    q1 = api.clCreateCommandQueue(ctx, devices[1])
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clEnqueueNDRangeKernel(q1, kernel, (n,))  # forces download+upload
    api.clFinish(q1)
    data, _ = api.clEnqueueReadBuffer(q1, buf)
    np.testing.assert_allclose(data.view(np.float32), 4.0)
