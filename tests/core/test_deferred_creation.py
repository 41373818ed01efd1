"""Deferred creation calls (handle promises): error surfacing.

Satellite coverage for the fully deferred creation pipeline: a failing
``clCreateBuffer`` (device memory exhausted) queued behind other work
must raise ``CLError`` at the next sync point *identifying the failing
call*, and must poison its provisional ID daemon-side so dependent
commands are answered with the original error without executing.
"""

import numpy as np
import pytest

from repro.core.protocol import messages as P
from repro.hw.cluster import make_desktop_and_gpu_server, make_ib_cpu_cluster
from repro.ocl import (
    CL_DEVICE_TYPE_GPU,
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_WRITE,
    CL_MEM_WRITE_ONLY,
    CLError,
    ErrorCode,
)
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""


def _gpu_context():
    deployment = deploy_dopencl(make_desktop_and_gpu_server())
    api = deployment.api
    gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    ctx = api.clCreateContext(gpus[:1])
    queue = api.clCreateCommandQueue(ctx, gpus[0])
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    daemon = deployment.daemon_on(gpus[0].server.name)
    return deployment, api, ctx, queue, program, kernel, daemon


def _exhaust_device(api, ctx, chunk=1 << 30):
    """Fill the GPU's 4 GB with four max_alloc buffers (all deferred)."""
    return [api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, chunk) for _ in range(4)]


def test_stubs_usable_before_any_round_trip():
    """The handle-promise property: a whole create-and-launch sequence
    costs zero round trips until the first sync point."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    api = deployment.api
    driver = deployment.driver
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    rt_before = driver.stats.round_trips
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    buf = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 256)
    assert driver.stats.round_trips == rt_before  # nothing sent yet
    assert driver.pending_commands() > 0
    api.clFinish(queue)  # the promises all materialise here
    assert driver.pending_commands() == 0
    daemon = deployment.daemon_on(devices[0].server.name)
    assert daemon.registry.peek(driver.gcf.name, ctx.id) is not None
    assert daemon.registry.peek(driver.gcf.name, buf.id) is not None


def test_failed_creation_surfaces_at_sync_point_naming_the_call():
    deployment, api, ctx, queue, program, kernel, daemon = _gpu_context()
    _kept = _exhaust_device(api, ctx)
    bad = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 30)  # 5th: no room
    assert bad.id > 0  # the stub itself is a valid promise
    with pytest.raises(CLError) as err:
        api.clFinish(queue)
    assert err.value.code == ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE
    assert "CreateBufferRequest" in err.value.message
    assert str(bad.id) in err.value.message  # the failing call is identified


def test_failed_creation_poisons_dependents_without_executing_them():
    """A kernel-arg update referencing the failed buffer, the launch it
    gates, and a second launch waiting on the first's event are all
    answered with the original allocation error — none of them
    executes on the daemon."""
    deployment, api, ctx, queue, program, kernel, daemon = _gpu_context()
    driver = deployment.driver
    _kept = _exhaust_device(api, ctx)
    bad = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 1 << 30)  # fails remotely
    api.clSetKernelArg(kernel, 0, bad)  # direct dependent (reads bad.id)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, 4)
    ev1 = api.clEnqueueNDRangeKernel(queue, kernel, (4,))
    ev2 = api.clEnqueueNDRangeKernel(queue, kernel, (4,), wait_for=[ev1])
    poisoned_before = daemon.gcf.stats.poisoned_commands
    with pytest.raises(CLError) as err:
        api.clFinish(queue)
    # The *first* failure — the creation — is the one reported.
    assert err.value.code == ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE
    assert "CreateBufferRequest" in err.value.message
    # Dependents were short-circuited by the dispatch guard, not run:
    # the SetKernelArg on the bad buffer, and (transitively, through
    # the poisoned first event) the second launch.
    assert daemon.gcf.stats.poisoned_commands > poisoned_before
    client = driver.gcf.name
    assert daemon.registry.peek(client, bad.id) is None  # never materialised
    assert daemon.registry.peek(client, ev2.id) is None  # launch 2 never ran
    # The first launch failed (its arg update was skipped) and poisoned
    # its event, which is exactly what gated launch 2 out.
    assert daemon.registry.poison_info(client, [ev1.id]) is not None
    assert daemon.registry.poison_info(client, [ev2.id]) is not None


def test_skipped_arg_update_poisons_the_kernel_not_just_the_launch():
    """Regression: a guard-skipped SetKernelArg leaves the daemon-side
    kernel with its *previous* binding while the client believes the
    update took — a later launch must therefore be skipped too (the
    kernel is poisoned), never run against the stale binding and
    silently corrupt the previously bound buffer."""
    deployment, api, ctx, queue, program, kernel, daemon = _gpu_context()
    driver = deployment.driver
    n = 16
    good_data = np.full(n, 1.0, dtype=np.float32)
    good = api.clCreateBuffer(
        ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, good_data.nbytes, good_data
    )
    api.clSetKernelArg(kernel, 0, good)
    api.clSetKernelArg(kernel, 1, np.float32(4.0))
    api.clSetKernelArg(kernel, 2, n)
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)  # daemon kernel now bound to `good`, scaled once
    _kept = _exhaust_device(api, ctx, chunk=(1 << 30) - good_data.nbytes)
    bad = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 1 << 30)  # fails remotely
    api.clSetKernelArg(kernel, 0, bad)  # skipped -> kernel poisoned
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))  # must NOT run stale-bound
    with pytest.raises(CLError):
        api.clFinish(queue)
    client = driver.gcf.name
    assert daemon.registry.poison_info(client, [kernel.id]) is not None
    # The daemon's copy of `good` was scaled exactly once — the second
    # launch never executed against the stale binding.
    remote_good = daemon.registry.get(client, good.id)
    np.testing.assert_allclose(remote_good.array.view(np.float32), 4.0)


def test_releasing_a_failed_creation_clears_the_poison():
    """Regression: disposing of the stub of a failed creation must be a
    successful no-op (the object never existed), not a fresh error —
    otherwise normal cleanup re-raises the already-surfaced failure at
    every later sync point, forever."""
    deployment, api, ctx, queue, program, kernel, daemon = _gpu_context()
    driver = deployment.driver
    _kept = _exhaust_device(api, ctx)
    bad = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 30)
    with pytest.raises(CLError):
        api.clFinish(queue)  # the creation failure surfaces once
    api.clReleaseMemObject(bad)  # cleanup: must not resurrect the error
    api.clFinish(queue)  # no second CLError
    assert daemon.registry.poison_info(driver.gcf.name, [bad.id]) is None


def test_blocking_read_of_failed_creation_surfaces_the_error():
    """A blocking read is a data-consuming sync point: the buffer's
    still-windowed creation is in its dependency closure, so a failed
    allocation surfaces at the read — the app can never consume bogus
    zeros from a buffer that never materialised."""
    deployment, api, ctx, queue, program, kernel, daemon = _gpu_context()
    _kept = _exhaust_device(api, ctx)
    bad = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 30)  # fails remotely
    with pytest.raises(CLError) as err:
        api.clEnqueueReadBuffer(queue, bad)
    assert err.value.code == ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE
    assert "CreateBufferRequest" in err.value.message


def test_poisoned_id_rejects_synchronous_streams_with_original_error():
    """Even the synchronous paths (a bulk-stream init) attribute work on
    a poisoned ID to the creation failure that caused it."""
    deployment, api, ctx, queue, program, kernel, daemon = _gpu_context()
    _kept = _exhaust_device(api, ctx)
    bad = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 30)
    with pytest.raises(CLError):
        api.clFinish(queue)  # surfaces (and clears) the stashed failure
    with pytest.raises(CLError) as err:
        api.clEnqueueWriteBuffer(queue, bad, True, 0, np.zeros(1 << 30, dtype=np.uint8))
    assert err.value.code == ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE
    assert "poisoned" in err.value.message


def test_deployment_stays_usable_after_creation_failure():
    deployment, api, ctx, queue, program, kernel, daemon = _gpu_context()
    kept = _exhaust_device(api, ctx)
    api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 30)
    with pytest.raises(CLError):
        api.clFinish(queue)
    api.clReleaseMemObject(kept.pop())  # free a slot
    n = 16
    x = np.full(n, 3.0, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(4.0))
    api.clSetKernelArg(kernel, 2, n)
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_allclose(data.view(np.float32), 12.0)


def test_reference_path_raises_creation_errors_eagerly():
    """batch_window=0 (the synchronous reference path): creation
    failures raise at the call site."""
    deployment = deploy_dopencl(make_desktop_and_gpu_server(), batch_window=0)
    api = deployment.api
    gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    ctx = api.clCreateContext(gpus[:1])
    for _ in range(4):
        api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 30)
    with pytest.raises(CLError) as err:
        api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 30)
    assert err.value.code == ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE
