"""One read path: a blocking ``clEnqueueReadBuffer`` is a non-blocking
read resolved at once.

OpenCL defines a blocking read as the non-blocking read followed by a
wait on its event, so the two must cost the same: the same round trips
and the same virtual time, up to the wait's own call overhead, on the
pipeline and on the reference path, under MSI and MOSI.  Both return
``NativeAPI``'s bytes.  A read's download rides the drain of its closure
whenever its wait list already reached the client.  A non-blocking read
whose download rides its own queue on the daemon it downloads from is
ordered behind its in-order predecessor there, so it need not wait that
predecessor out first; one downloading from another daemon must.  A
blocking read gangs only siblings of its own source.  Released buffers
leave the read gangs' candidate pool at once, and a landed gang sibling
leaves no completion record behind.
"""

import numpy as np
import pytest

from repro.hw import WESTMERE_NODE, Host
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_READ_WRITE, NativeAPI
from repro.ocl.api import API_CALL_OVERHEAD
from repro.testbed import deploy_dopencl

TOUCH = """
__kernel void touch(__global int *x) {
    int i = (int)get_global_id(0);
    x[i] += 1;
}
"""

SPIN = """
__kernel void spin(__global int *x) {
    int i = (int)get_global_id(0);
    int acc = 0;
    for (int k = 0; k < 20000; k++) acc += k ^ i;
    x[i] = acc;
}
"""


NBYTES = 4096
ITEMS = 64
INIT = np.arange(NBYTES // 4, dtype=np.int32)


def _native_bytes():
    """What ``touch`` over ``ITEMS`` work items leaves in ``INIT``."""
    api = NativeAPI(Host(WESTMERE_NODE))
    device = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])[0]
    ctx = api.clCreateContext([device])
    queue = api.clCreateCommandQueue(ctx, device)
    program = api.clCreateProgramWithSource(ctx, TOUCH)
    api.clBuildProgram(program)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, NBYTES)
    api.clEnqueueWriteBuffer(queue, buf, True, 0, INIT)
    kernel = api.clCreateKernel(program, "touch")
    api.clSetKernelArg(kernel, 0, buf)
    api.clEnqueueNDRangeKernel(queue, kernel, (ITEMS,))
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    return data


def _two_servers(protocol, batch_window, source):
    """A 2-server ``make_ib_cpu_cluster`` deployment with a queue per
    server and ``source`` built.  Returns the deployment, the API, the
    context, the queues and the program."""
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(2), coherence_protocol=protocol, batch_window=batch_window
    )
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, device) for device in devices]
    program = api.clCreateProgramWithSource(ctx, source)
    api.clBuildProgram(program)
    return deployment, api, ctx, queues, program


def _launch(api, program, name, queue, buf):
    kernel = api.clCreateKernel(program, name)
    api.clSetKernelArg(kernel, 0, buf)
    return api.clEnqueueNDRangeKernel(queue, kernel, (ITEMS,))


def _launch_then_read(protocol, batch_window, blocking):
    """A 4 KiB buffer written on queue 0 and finished, then ``touch``
    launched on queue 1 of the other server and the buffer read there:
    blocking, or non-blocking plus ``clWaitForEvents``.  Returns the
    round trips and virtual time of the launch and the read, and the
    bytes."""
    deployment, api, ctx, queues, program = _two_servers(protocol, batch_window, TOUCH)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, NBYTES)
    api.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    api.clFinish(queues[0])
    kernel = api.clCreateKernel(program, "touch")
    api.clSetKernelArg(kernel, 0, buf)
    stats = deployment.driver.stats
    round_trips, start = stats.round_trips, api.now
    api.clEnqueueNDRangeKernel(queues[1], kernel, (ITEMS,))
    data, event = api.clEnqueueReadBuffer(queues[1], buf, blocking=blocking)
    if not blocking:
        api.clWaitForEvents([event])
    assert event.resolved
    return stats.round_trips - round_trips, api.now - start, data


@pytest.mark.parametrize("batch_window", [None, 0], ids=["pipeline", "reference"])
@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_nonblocking_read_and_its_wait_cost_what_a_blocking_read_costs(protocol, batch_window):
    blocking = _launch_then_read(protocol, batch_window, blocking=True)
    deferred = _launch_then_read(protocol, batch_window, blocking=False)
    assert deferred[0] == blocking[0]
    # The wait is one more API call: its overhead is the only difference.
    assert 0.0 <= deferred[1] - blocking[1] <= API_CALL_OVERHEAD * (1 + 1e-9)
    expected = _native_bytes()
    np.testing.assert_array_equal(blocking[2], expected)
    np.testing.assert_array_equal(deferred[2], expected)


@pytest.mark.parametrize("batch_window", [None, 0], ids=["pipeline", "reference"])
@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_deferred_read_from_another_daemon_completes_after_its_predecessor(
    protocol, batch_window
):
    """The buffer is dirty on server 0; a long kernel runs on server 1's
    queue, then a non-blocking read of the buffer joins that queue.  Its
    download comes from server 0, which does not order it behind the
    kernel: the read must wait the kernel out, and ``clFinish`` of the
    queue must not return before the kernel's completion arrived."""
    deployment, api, ctx, queues, program = _two_servers(protocol, batch_window, TOUCH + SPIN)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, NBYTES)
    other = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, NBYTES)
    api.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    _launch(api, program, "touch", queues[0], buf)
    api.clFinish(queues[0])
    spin = _launch(api, program, "spin", queues[1], other)
    data, read = api.clEnqueueReadBuffer(queues[1], buf, blocking=False)
    api.clFinish(queues[1])
    assert spin.resolved and read.resolved
    assert api.now >= spin.completion_arrival
    assert read.completed_at >= spin.completed_at
    assert read.completion_arrival >= spin.completion_arrival
    expected = INIT.copy()
    expected[:ITEMS] += 1
    np.testing.assert_array_equal(data.view(np.int32), expected)


@pytest.mark.parametrize("batch_window", [None, 0], ids=["pipeline", "reference"])
def test_a_blocking_read_gangs_only_siblings_of_its_own_source(batch_window):
    """A blocking read of ``y`` (dirty on server 1) waits on a pending
    deferred read of ``x`` (dirty on server 0), so both resolve as one
    group downloading from two daemons.  ``y``'s gang, ``z``, rides the
    download from server 1 only: server 0 holds no copy of it."""
    deployment, api, ctx, queues, program = _two_servers("msi", batch_window, TOUCH)
    x, y, z = (api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, NBYTES) for _ in range(3))
    for _round in range(2):
        _launch(api, program, "touch", queues[0], x)
        _launch(api, program, "touch", queues[1], y)
        _launch(api, program, "touch", queues[1], z)
        for queue in queues:
            api.clFinish(queue)
        if _round == 0:
            for buf in (x, y, z):
                api.clEnqueueReadBuffer(queues[0], buf)
    stats = deployment.driver.stats
    before = stats.coalesced_reads
    _, read_x = api.clEnqueueReadBuffer(queues[0], x, blocking=False)
    data_y, _ = api.clEnqueueReadBuffer(queues[1], y, wait_for=[read_x])
    assert read_x.resolved
    ganged = batch_window is None
    assert stats.coalesced_reads - before == int(ganged)
    assert z.planner.is_valid("client") is ganged
    data_z, _ = api.clEnqueueReadBuffer(queues[1], z)
    expected = np.zeros(NBYTES // 4, dtype=np.int32)
    expected[:ITEMS] = 2
    np.testing.assert_array_equal(data_y.view(np.int32), expected)
    np.testing.assert_array_equal(data_z.view(np.int32), expected)


def _result_buffers(release):
    """Two buffers written by ``touch`` on one daemon, each demand-read
    once, written again; with ``release`` the second is released.
    Returns the deployment, the API, the context, the queue and the
    buffers."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api = deployment.api
    device = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])[0]
    ctx = api.clCreateContext([device])
    queue = api.clCreateCommandQueue(ctx, device)
    program = api.clCreateProgramWithSource(ctx, TOUCH)
    api.clBuildProgram(program)
    bufs = [api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, NBYTES) for _ in range(2)]
    for _round in range(2):
        for buf in bufs:
            kernel = api.clCreateKernel(program, "touch")
            api.clSetKernelArg(kernel, 0, buf)
            api.clEnqueueNDRangeKernel(queue, kernel, (ITEMS,))
        api.clFinish(queue)
        if _round == 0:
            for buf in bufs:
                api.clEnqueueReadBuffer(queue, buf)
    if release:
        api.clReleaseMemObject(bufs[1])
    return deployment, api, ctx, queue, bufs


@pytest.mark.parametrize("release", [False, True], ids=["live", "released"])
def test_a_released_buffer_leaves_the_gang_pool_at_once(release):
    """The read gangs draw on ``context.live_buffers``: a released buffer
    leaves it in ``clReleaseMemObject`` itself, so a later blocking read
    of its sibling gangs it only while it lives."""
    deployment, api, ctx, queue, (a, b) = _result_buffers(release)
    assert (b in ctx.live_buffers) is not release
    before = deployment.driver.stats.coalesced_reads
    data, _ = api.clEnqueueReadBuffer(queue, a)
    assert deployment.driver.stats.coalesced_reads - before == (0 if release else 1)
    assert b.planner.is_valid("client") is not release
    expected = np.zeros(NBYTES // 4, dtype=np.int32)
    expected[:ITEMS] = 2
    np.testing.assert_array_equal(data.view(np.int32), expected)


def test_a_gang_sibling_leaves_no_fetch_completion_behind():
    """A blocking read of ``a`` gangs ``b``: ``b``'s section lands with
    no read of ``b`` pending, so it records no completion, and nothing
    outlives the read or ``clReleaseMemObject(b)``."""
    deployment, api, _ctx, queue, (a, b) = _result_buffers(False)
    before = deployment.driver.stats.coalesced_reads
    api.clEnqueueReadBuffer(queue, a)
    assert deployment.driver.stats.coalesced_reads - before == 1  # b rode a's download
    api.clReleaseMemObject(b)
    assert deployment.driver._fetch_completions == {}
