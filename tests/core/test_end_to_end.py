"""End-to-end dOpenCL tests: the paper's headline property.

The *same application function* runs against the native OpenCL API and
against the dOpenCL client driver — only the ``cl`` object differs (plus a
server configuration file), exactly as in the paper's Section III-B/V-A.
"""

import numpy as np
import pytest

from repro.hw import Host, WESTMERE_NODE
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import (
    CL_DEVICE_TYPE_ALL,
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_ONLY,
    CL_MEM_READ_WRITE,
    CLError,
    ErrorCode,
)
from repro.ocl.constants import CL_COMMAND_NDRANGE_KERNEL, CL_COMPLETE
from repro.testbed import deploy_dopencl, native_api_on

VECADD = """
__kernel void vadd(__global const float *a, __global const float *b,
                   __global float *c, const int n)
{
    int i = get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
"""

SCALE = """
__kernel void scale(__global float *x, const float factor, const int n)
{
    int i = get_global_id(0);
    if (i < n) x[i] = x[i] * factor;
}
"""


def vadd_app(cl, n=512, seed=0):
    """An UNMODIFIED OpenCL application: no distribution awareness at all."""
    platform = cl.clGetPlatformIDs()[0]
    devices = cl.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = cl.clCreateContext(devices[:1])
    queue = cl.clCreateCommandQueue(ctx, devices[0])
    rng = np.random.default_rng(seed)
    a = rng.random(n, dtype=np.float32)
    b = rng.random(n, dtype=np.float32)
    buf_a = cl.clCreateBuffer(ctx, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, a.nbytes, a)
    buf_b = cl.clCreateBuffer(ctx, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, b.nbytes, b)
    buf_c = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, a.nbytes)
    program = cl.clCreateProgramWithSource(ctx, VECADD)
    cl.clBuildProgram(program)
    kernel = cl.clCreateKernel(program, "vadd")
    cl.clSetKernelArg(kernel, 0, buf_a)
    cl.clSetKernelArg(kernel, 1, buf_b)
    cl.clSetKernelArg(kernel, 2, buf_c)
    cl.clSetKernelArg(kernel, 3, n)
    cl.clEnqueueNDRangeKernel(queue, kernel, (n,))
    cl.clFinish(queue)
    data, _ = cl.clEnqueueReadBuffer(queue, buf_c)
    return data.view(np.float32), a + b


@pytest.fixture
def deployment():
    return deploy_dopencl(make_ib_cpu_cluster(4))


def test_unmodified_app_native_vs_dopencl(deployment):
    native = native_api_on(Host(WESTMERE_NODE, name="standalone"))
    got_native, expected = vadd_app(native)
    got_dcl, expected2 = vadd_app(deployment.api)
    np.testing.assert_allclose(got_native, expected)
    np.testing.assert_allclose(got_dcl, expected2)


def test_dopencl_platform_merges_all_servers(deployment):
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    assert platform.name == "dOpenCL"
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    # 4 Westmere servers x 1 CPU device each, merged into one list.
    assert len(devices) == 4
    servers = {d.server.name for d in devices}
    assert len(servers) == 4


def test_device_info_is_cached_client_side(deployment):
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)[0]
    daemon = deployment.daemon_on(dev.server.name)
    before = len(daemon.gcf.cpu)
    name = api.clGetDeviceInfo(dev, "NAME")
    vendor = api.clGetDeviceInfo(dev, "VENDOR")
    assert "X5650" in name and vendor == "Intel"
    # No network requests were made for the info queries.
    assert len(daemon.gcf.cpu) == before


def test_multi_server_context_and_round_robin_kernels(deployment):
    """A context spanning 4 servers; each device scales a shared buffer
    region — exercising compound stubs and MSI coherence."""
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    assert len(devices) == 4
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, d) for d in devices]
    n = 256
    x = np.arange(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 2, n)
    # Each device doubles the data in turn: data moves server->client->server
    # through the MSI protocol between kernels.
    for queue in queues:
        api.clSetKernelArg(kernel, 1, np.float32(2.0))
        api.clEnqueueNDRangeKernel(queue, kernel, (n,))
        api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queues[0], buf)
    np.testing.assert_allclose(data.view(np.float32), x * 16.0)


def test_msi_states_through_kernel_chain(deployment):
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices[:2])
    q0 = api.clCreateCommandQueue(ctx, devices[0])
    q1 = api.clCreateCommandQueue(ctx, devices[1])
    n = 64
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    s0, s1 = devices[0].server.name, devices[1].server.name
    coherence = buf.coherence
    assert coherence.state["client"].value == "S"
    assert coherence.state[s0].value == "I" and coherence.state[s1].value == "I"

    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(3.0))
    api.clSetKernelArg(kernel, 2, n)
    api.clEnqueueNDRangeKernel(q0, kernel, (n,))
    # Kernel wrote on server 0: Modified there, Invalid everywhere else.
    assert coherence.state[s0].value == "M"
    assert coherence.state["client"].value == "I"
    assert coherence.state[s1].value == "I"

    api.clEnqueueNDRangeKernel(q1, kernel, (n,))
    # Server 1 needed a valid copy: client revalidated, then uploaded.
    assert coherence.state[s1].value == "M"
    data, _ = api.clEnqueueReadBuffer(q1, buf)
    np.testing.assert_allclose(data.view(np.float32), x * 9.0)
    assert coherence.state["client"].value == "S"


def test_read_with_valid_client_copy_needs_no_network(deployment):
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices[:1])
    queue = api.clCreateCommandQueue(ctx, devices[0])
    x = np.arange(32, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    t_before = api.now
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data.view(np.float32), x)
    # Client copy was valid: no round trip, only the API call overhead.
    assert api.now - t_before < 1e-4


def test_build_failure_collects_per_server_logs(deployment):
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices[:2])
    program = api.clCreateProgramWithSource(ctx, "__kernel void broken( { }")
    with pytest.raises(CLError) as err:
        api.clBuildProgram(program)
    assert err.value.code == ErrorCode.CL_BUILD_PROGRAM_FAILURE
    log = api.clGetProgramBuildInfo(program, devices[0], "LOG")
    assert log.count("expected") >= 2  # one log per server


def test_kernel_error_codes_forwarded(deployment):
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices[:1])
    queue = api.clCreateCommandQueue(ctx, devices[0])
    program = api.clCreateProgramWithSource(ctx, VECADD)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "vadd")
    with pytest.raises(CLError) as err:
        api.clEnqueueNDRangeKernel(queue, kernel, (64,))
    assert err.value.code == ErrorCode.CL_INVALID_KERNEL_ARGS


def test_events_wait_across_network(deployment):
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices[:1])
    queue = api.clCreateCommandQueue(ctx, devices[0])
    n = 128
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, n)
    ev = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clWaitForEvents([ev])
    assert ev.resolved
    assert api.now >= ev.completion_arrival


def test_event_replicas_created_on_other_servers(deployment):
    """Section III-D: an event's user-event replica exists on every other
    server of the context, and completes when the original does."""
    api = deployment.api
    driver = deployment.driver
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices[:2])
    q0 = api.clCreateCommandQueue(ctx, devices[0])
    n = 32
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, n)
    ev = api.clEnqueueNDRangeKernel(q0, kernel, (n,))
    # Forwarding is asynchronous: the enqueue (and the replica creation)
    # sit in send windows until a synchronization point.
    api.clFinish(q0)
    other_server = devices[1].server.name
    daemon = deployment.daemon_on(other_server)
    from repro.ocl.event import UserEvent

    replica = daemon.registry.get(driver.gcf.name, ev.id, UserEvent)
    assert replica.resolved  # completed via the client's replication


def test_user_events_replicated(deployment):
    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices[:2])
    user = api.clCreateUserEvent(ctx)
    assert not user.resolved
    api.clSetUserEventStatus(user, 0)
    assert user.resolved
    with pytest.raises(CLError):
        api.clSetUserEventStatus(user, 0)


def test_profiling_unimplemented_matches_paper(deployment):
    api = deployment.api
    with pytest.raises(CLError) as err:
        api.clGetEventProfilingInfo(None, 0)
    assert err.value.code == ErrorCode.CL_INVALID_OPERATION
    with pytest.raises(CLError):
        api.clCreateImage2D()
    with pytest.raises(CLError):
        api.clEnqueueMapBuffer()


def test_write_only_buffer_partial_write_preserves_contents(deployment):
    """CL_MEM_WRITE_ONLY restricts *kernel* access only: host-initialised
    data outside a partial kernel write must survive (the pristine-skip
    optimisation may only elide uploads of never-written buffers)."""
    from repro.ocl import CL_MEM_WRITE_ONLY

    api = deployment.api
    platform = api.clGetPlatformIDs()[0]
    devices = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)
    ctx = api.clCreateContext(devices[:2])
    queue = api.clCreateCommandQueue(ctx, devices[0])
    n = 64
    x = np.full(n, 3.0, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(
        ctx,
        """
        __kernel void head(__global float *x, const int limit) {
            int i = (int)get_global_id(0);
            if (i < limit) x[i] = 7.0f;
        }
        """,
    )
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "head")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, 16)  # only elements [0, 16) written
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    out = data.view(np.float32)
    np.testing.assert_allclose(out[:16], 7.0)
    np.testing.assert_allclose(out[16:], 3.0)  # host data preserved


def test_dopencl_has_network_overhead_vs_native():
    """Fig. 4's message: dOpenCL adds a moderate init/transfer overhead."""
    cluster = make_ib_cpu_cluster(1)
    deployment = deploy_dopencl(cluster)
    native = native_api_on(Host(WESTMERE_NODE, name="standalone"))
    _, _ = vadd_app(native, n=4096)
    t_native = native.now
    _, _ = vadd_app(deployment.api, n=4096)
    t_dcl = deployment.api.now
    assert t_dcl > t_native  # forwarding costs something
    # ... but not catastrophically (compute still dominates at scale).
    assert t_dcl < t_native + 0.5


@pytest.mark.parametrize("batch_window", [0, None])
def test_release_retain_and_event_query_surface(batch_window):
    """API surface no other tier-1 test executes (function-call census):
    ``clReleaseContext`` / ``clRetainCommandQueue`` /
    ``clReleaseCommandQueue`` down to the daemon's ``release_context`` /
    ``release_queue`` handlers, ``clGetEventInfo``,
    ``clSetEventCallback`` and ``clCreateKernelsInProgram`` — with the
    use-after-release error codes, on the reference path and the
    pipeline alike."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), batch_window=batch_window)
    cl = deployment.api
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])
    ctx = cl.clCreateContext(devices)
    queue = cl.clCreateCommandQueue(ctx, devices[0])
    other = cl.clCreateCommandQueue(ctx, devices[1])
    program = cl.clCreateProgramWithSource(ctx, SCALE)
    cl.clBuildProgram(program)
    with pytest.raises(CLError) as err:
        cl.clCreateKernelsInProgram(program)
    assert err.value.code == ErrorCode.CL_INVALID_OPERATION
    kernel = cl.clCreateKernel(program, "scale")
    x = np.arange(64, dtype=np.float32)
    buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    cl.clSetKernelArg(kernel, 0, buf)
    cl.clSetKernelArg(kernel, 1, np.float32(2.0))
    cl.clSetKernelArg(kernel, 2, 64)

    # Event queries: answered from the stub, before and after the wait.
    event = cl.clEnqueueNDRangeKernel(queue, kernel, (64,))
    assert cl.clGetEventInfo(event, "COMMAND_TYPE") == CL_COMMAND_NDRANGE_KERNEL
    if not event.resolved:  # the pipeline: the launch is still windowed
        assert cl.clGetEventInfo(event) != CL_COMPLETE
        with pytest.raises(CLError) as err:
            cl.clSetEventCallback(event, lambda *args: None)
        assert err.value.code == ErrorCode.CL_INVALID_OPERATION
    cl.clWaitForEvents([event])
    assert cl.clGetEventInfo(event) == CL_COMPLETE
    fired = []
    cl.clSetEventCallback(event, lambda ev, status, t: fired.append((ev, status, t)))
    assert fired == [(event, CL_COMPLETE, event.completion_arrival)]
    for call in (
        lambda: cl.clSetEventCallback(event, lambda *args: None, status=1),
        lambda: cl.clGetEventInfo(event, "NO_SUCH_KEY"),
    ):
        with pytest.raises(CLError) as err:
            call()
        assert err.value.code == ErrorCode.CL_INVALID_VALUE

    # Queue release: a retained queue survives one release (used to
    # crash — QueueStub had no retain/release); the last release drops
    # the daemon-side object, and any later use is CL_INVALID_COMMAND_QUEUE.
    daemon = deployment.daemon_on(queue.server.name)
    client = deployment.driver.gcf.name
    cl.clRetainCommandQueue(queue)
    cl.clReleaseCommandQueue(queue)
    cl.clFinish(queue)
    assert daemon.registry.peek(client, queue.id) is not None
    cl.clReleaseCommandQueue(queue)
    with pytest.raises(CLError) as err:
        cl.clFinish(queue)
    assert err.value.code == ErrorCode.CL_INVALID_COMMAND_QUEUE
    assert daemon.registry.peek(client, queue.id) is None
    with pytest.raises(CLError) as err:
        cl.clEnqueueNDRangeKernel(queue, kernel, (64,))
        cl.clFinish(other)
    assert err.value.code == ErrorCode.CL_INVALID_COMMAND_QUEUE

    # Context release: retained once, so the first release forwards
    # nothing; the last drops the object on every server of the context.
    cl.clRetainContext(ctx)
    cl.clReleaseContext(ctx)
    cl.clFinish(other)
    assert all(d.registry.peek(client, ctx.id) is not None for d in deployment.daemons)
    cl.clReleaseContext(ctx)
    with pytest.raises(CLError) as err:
        cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 64)
        cl.clFinish(other)
    assert err.value.code == ErrorCode.CL_INVALID_CONTEXT
    assert all(d.registry.peek(client, ctx.id) is None for d in deployment.daemons)
