"""Client resilience end-to-end: retries, replay, and daemon-loss degradation."""

import numpy as np
import pytest

from repro.core.client.resilience import RetryPolicy
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CLError, ErrorCode
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""

LOSS_CODES = {
    int(ErrorCode.CL_DEVICE_NOT_AVAILABLE),
    int(ErrorCode.CL_CONNECTION_ERROR_WWU),
}


def run_scale(n_servers=1, plan=None, retry_policy=None, crash_hooks=False):
    """Deploy, optionally arm a fault plan, run the scale kernel, read back.

    The injector is installed *after* deployment so connection setup and
    device listing stay fault-free — faults target the application run.
    """
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), retry_policy=retry_policy)
    injector = None
    if plan is not None:
        injector = install_fault_injector(deployment.cluster.network, plan)
        if crash_hooks:
            for daemon in deployment.daemons:
                injector.register_crash_hook(daemon.host.name, daemon.crash)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    n = 1 << 10
    x = np.arange(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(3.0))
    api.clSetKernelArg(kernel, 2, n)
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    return deployment, injector, data.view(np.float32)


def test_dropped_batch_reply_recovers_transparently():
    """A lost CommandBatchResponse is retried on the wire but applied
    exactly once: the daemon re-answers from its replay cache and the
    program output is bit-identical to the fault-free run."""
    _, _, clean = run_scale(retry_policy=RetryPolicy())
    plan = FaultPlan(
        [FaultAction("drop", nth=1, tag="CommandBatchResponse")],
        max_transfers=100_000,
    )
    deployment, injector, faulted = run_scale(plan=plan, retry_policy=RetryPolicy())
    np.testing.assert_array_equal(faulted, clean)
    stats = deployment.driver.stats
    assert injector.injected_drops == 1
    assert stats.timeouts >= 1
    assert stats.retries >= 1
    assert stats.replayed_batches >= 1
    assert stats.dead_daemons == 0
    # The daemon saw the duplicate and answered from cache.
    assert sum(d.gcf.stats.deduped_batches for d in deployment.daemons) >= 1


def test_dropped_batch_request_recovers_transparently():
    _, _, clean = run_scale(retry_policy=RetryPolicy())
    plan = FaultPlan(
        [FaultAction("drop", nth=2, tag="CommandBatch")],
        max_transfers=100_000,
    )
    deployment, _, faulted = run_scale(plan=plan, retry_policy=RetryPolicy())
    np.testing.assert_array_equal(faulted, clean)
    stats = deployment.driver.stats
    assert stats.retries >= 1
    # The request never reached the daemon, so the resend is a fresh
    # batch there — nothing to dedupe.
    assert stats.dead_daemons == 0


def test_retry_policy_is_zero_cost_without_faults():
    """Arming a retry policy must not change results or burn counters."""
    _, _, plain = run_scale(retry_policy=None)
    deployment, _, armed = run_scale(retry_policy=RetryPolicy())
    np.testing.assert_array_equal(armed, plain)
    stats = deployment.driver.stats
    assert stats.timeouts == 0
    assert stats.retries == 0
    assert stats.replayed_batches == 0
    assert stats.dead_daemons == 0


def test_exhausted_retries_declare_daemon_dead():
    """A permanently severed link exhausts the retry budget: the daemon
    is declared dead and the failure surfaces as a deterministic CL
    error at the next sync point, not a hang."""
    plan = FaultPlan(
        [FaultAction("sever", nth=2, tag="CommandBatch", heal_after=None)],
        max_transfers=100_000,
    )
    with pytest.raises(CLError) as err:
        run_scale(plan=plan, retry_policy=RetryPolicy())
    assert int(err.value.code) in LOSS_CODES


def test_daemon_crash_poisons_its_objects_and_spares_survivors():
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), retry_policy=RetryPolicy())
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, d) for d in devices]
    n = 256
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    api.clFinish(queues[0])
    api.clFinish(queues[1])

    victim = deployment.daemons[1]
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan(
            [FaultAction("crash", nth=1, dst=victim.host.name, host=victim.host.name)],
            max_transfers=100_000,
        ),
    )
    injector.register_crash_hook(victim.host.name, victim.crash)

    # The next exchange with the victim (clFinish always round-trips)
    # trips the crash; the loss is surfaced as a deterministic CL
    # error, not an exception cascade.
    with pytest.raises(CLError) as err:
        api.clFinish(queues[1])
    assert int(err.value.code) in LOSS_CODES
    assert deployment.driver.stats.dead_daemons == 1
    assert injector.crashes == 1

    # Anything homed on the dead daemon now fails fast with the same taxonomy.
    with pytest.raises(CLError) as err2:
        api.clFinish(queues[1])
    assert int(err2.value.code) in LOSS_CODES
    # ... and so does creating objects in a context spanning the dead daemon.
    with pytest.raises(CLError) as err3:
        api.clCreateProgramWithSource(ctx, SCALE)
    assert int(err3.value.code) in LOSS_CODES

    # The client still holds a valid copy of the buffer, so reading it
    # through the surviving daemon's queue works.
    data, _ = api.clEnqueueReadBuffer(queues[0], buf)
    np.testing.assert_allclose(data.view(np.float32), 1.0)

    # The surviving daemon keeps computing in a fresh context.
    ctx2 = api.clCreateContext([devices[0]])
    queue2 = api.clCreateCommandQueue(ctx2, devices[0])
    buf2 = api.clCreateBuffer(ctx2, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx2, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf2)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, n)
    api.clEnqueueNDRangeKernel(queue2, kernel, (n,))
    api.clFinish(queue2)
    data2, _ = api.clEnqueueReadBuffer(queue2, buf2)
    np.testing.assert_allclose(data2.view(np.float32), 2.0)


def test_only_copy_dying_is_reported_then_recoverable_by_overwrite():
    """When the sole valid replica of a buffer dies with its daemon the
    read fails deterministically; a whole-buffer overwrite re-validates
    the handle (fresh data, no stale bytes)."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), retry_policy=RetryPolicy())
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, d) for d in devices]
    n = 256
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(5.0))
    api.clSetKernelArg(kernel, 2, n)
    # Run on the victim so its daemon holds the only modified copy.
    victim_queue = queues[1]
    api.clEnqueueNDRangeKernel(victim_queue, kernel, (n,))
    api.clFinish(victim_queue)

    victim = deployment.daemons[1]
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan(
            [FaultAction("crash", nth=1, dst=victim.host.name, host=victim.host.name)],
            max_transfers=100_000,
        ),
    )
    injector.register_crash_hook(victim.host.name, victim.crash)

    with pytest.raises(CLError) as err:
        api.clEnqueueReadBuffer(queues[0], buf)
    assert int(err.value.code) in LOSS_CODES
    assert buf.coherence.data_lost
    assert deployment.driver.stats.evicted_replicas >= 1

    # Recovery: a whole-buffer write re-validates the handle.
    fresh = np.full(n, 7.0, dtype=np.float32)
    api.clEnqueueWriteBuffer(queues[0], buf, True, 0, fresh)
    api.clFinish(queues[0])
    assert not buf.coherence.data_lost
    data, _ = api.clEnqueueReadBuffer(queues[0], buf)
    np.testing.assert_allclose(data.view(np.float32), 7.0)


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_copy_a_failed_transfer_never_moved_is_not_credited(protocol):
    """A launch on node00 needs the buffer whose only copy is on node01,
    which crashes at the transfer (MSI: the download leg, then the
    upload; MOSI: the direct hop).  The launch fails with the daemon
    loss, and the directory does not credit node00 with the copy that
    never moved: the data is lost, and a read says so instead of
    returning node00's zeros."""
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(2), coherence_protocol=protocol, retry_policy=RetryPolicy()
    )
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, d) for d in devices]
    n = 256
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(5.0))
    api.clSetKernelArg(kernel, 2, n)
    api.clEnqueueNDRangeKernel(queues[1], kernel, (n,))
    api.clFinish(queues[1])
    victim = deployment.daemons[1]
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan(
            [FaultAction("crash", nth=1, dst=victim.host.name, host=victim.host.name)],
            max_transfers=100_000,
        ),
    )
    injector.register_crash_hook(victim.host.name, victim.crash)
    with pytest.raises(CLError) as err:
        api.clEnqueueNDRangeKernel(queues[0], kernel, (n,))
    assert int(err.value.code) in LOSS_CODES
    assert not buf.coherence.is_valid(devices[0].server.name)
    assert buf.coherence.data_lost
    with pytest.raises(CLError) as err:
        api.clEnqueueReadBuffer(queues[0], buf)
    assert int(err.value.code) in LOSS_CODES


def test_command_enqueued_on_a_dead_daemon_is_born_poisoned():
    """Regression (conformance seed 15 x crash / sever-permanent): a
    command enqueued *after* its daemon was declared dead fails with
    the daemon-loss error but still becomes its in-order queue's last
    event.  That event stub postdates the poisoning sweep of the
    declaration, so it must be born poisoned: a later deferred read on
    the same queue depends on it and has to surface
    ``CL_DEVICE_NOT_AVAILABLE`` — not ``EventStub.wait``'s deadlock
    guard (``CL_INVALID_EVENT_WAIT_LIST``)."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), retry_policy=RetryPolicy())
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, d) for d in devices]
    x = np.ones(64, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    for queue in queues:
        api.clFinish(queue)

    victim = deployment.daemons[0]
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan(
            [FaultAction("crash", nth=1, dst=victim.host.name, host=victim.host.name)],
            max_transfers=100_000,
        ),
    )
    injector.register_crash_hook(victim.host.name, victim.crash)
    with pytest.raises(CLError):
        api.clFinish(queues[0])
    assert deployment.driver.stats.dead_daemons == 1

    # The write's event is created after the declaration's sweep.
    with pytest.raises(CLError) as write_err:
        api.clEnqueueWriteBuffer(queues[0], buf, True, 0, x)
    assert write_err.value.code == ErrorCode.CL_DEVICE_NOT_AVAILABLE
    orphan = deployment.driver._events[queues[0].last_event_id]
    assert not orphan.resolved
    assert orphan.poisoned is not None
    assert orphan.poisoned[0] == int(ErrorCode.CL_DEVICE_NOT_AVAILABLE)

    # The deferred read is queued behind it on the in-order queue.
    _data, event = api.clEnqueueReadBuffer(queues[0], buf, blocking=False)
    with pytest.raises(CLError) as read_err:
        api.clWaitForEvents([event])
    assert read_err.value.code == ErrorCode.CL_DEVICE_NOT_AVAILABLE
