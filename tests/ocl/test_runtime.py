"""OpenCL runtime object-model and timing tests."""

import numpy as np
import pytest

from repro.hw import DESKTOP_PC, GPU_SERVER, Host, WESTMERE_NODE
from repro.ocl import (
    CL_DEVICE_TYPE_ALL,
    CL_DEVICE_TYPE_CPU,
    CL_DEVICE_TYPE_GPU,
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_ONLY,
    CL_MEM_READ_WRITE,
    CLError,
    ErrorCode,
    NativeAPI,
)

VECADD = """
__kernel void vadd(__global const float *a, __global const float *b,
                   __global float *c, const int n)
{
    int i = get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
"""


@pytest.fixture
def api():
    return NativeAPI(Host(GPU_SERVER))


@pytest.fixture
def cpu_api():
    return NativeAPI(Host(WESTMERE_NODE))


def test_platform_and_device_discovery(api):
    platforms = api.clGetPlatformIDs()
    assert len(platforms) == 1
    devices = api.clGetDeviceIDs(platforms[0], CL_DEVICE_TYPE_ALL)
    assert len(devices) == 5  # CPU + 4 GPUs
    gpus = api.clGetDeviceIDs(platforms[0], CL_DEVICE_TYPE_GPU)
    assert len(gpus) == 4
    cpus = api.clGetDeviceIDs(platforms[0], CL_DEVICE_TYPE_CPU)
    assert len(cpus) == 1
    assert api.clGetDeviceInfo(gpus[0], "TYPE") == CL_DEVICE_TYPE_GPU
    assert "Tesla" in api.clGetDeviceInfo(gpus[0], "NAME")


def test_device_not_found(api):
    platform = api.clGetPlatformIDs()[0]
    with pytest.raises(CLError) as err:
        api.clGetDeviceIDs(platform, 1 << 3)  # ACCELERATOR
    assert err.value.code == ErrorCode.CL_DEVICE_NOT_FOUND


def test_full_vadd_pipeline(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    n = 1024
    rng = np.random.default_rng(0)
    a = rng.random(n, dtype=np.float32)
    b = rng.random(n, dtype=np.float32)
    buf_a = api.clCreateBuffer(ctx, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, a.nbytes, a)
    buf_b = api.clCreateBuffer(ctx, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, b.nbytes, b)
    buf_c = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, a.nbytes)
    program = api.clCreateProgramWithSource(ctx, VECADD)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "vadd")
    api.clSetKernelArg(kernel, 0, buf_a)
    api.clSetKernelArg(kernel, 1, buf_b)
    api.clSetKernelArg(kernel, 2, buf_c)
    api.clSetKernelArg(kernel, 3, n)
    ev = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    data, _ = api.clEnqueueReadBuffer(queue, buf_c, blocking=True, wait_for=[ev])
    np.testing.assert_allclose(data.view(np.float32), a + b, rtol=1e-6)
    assert api.now > 0.0


def test_clock_advances_through_pipeline(api):
    t0 = api.now
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 100 << 20)
    data = np.zeros(100 << 20, dtype=np.uint8)
    t1 = api.now
    api.clEnqueueWriteBuffer(queue, buf, True, 0, data)
    t2 = api.now
    # 100 MB over PCIe at 5.3 GB/s ~= 19.8 ms
    assert 0.015 < (t2 - t1) < 0.03
    api.clEnqueueReadBuffer(queue, buf, blocking=True)
    t3 = api.now
    # Reads are ~15x slower (355 MB/s) ~= 295 ms
    assert 0.2 < (t3 - t2) < 0.4


def test_nonblocking_write_overlaps(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 100 << 20)
    data = np.zeros(100 << 20, dtype=np.uint8)
    t1 = api.now
    ev = api.clEnqueueWriteBuffer(queue, buf, False, 0, data)
    t2 = api.now
    assert (t2 - t1) < 1e-4  # returned immediately
    api.clWaitForEvents([ev])
    assert api.now >= ev.end


def test_in_order_queue_serialises_commands(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 10 << 20)
    data = np.zeros(10 << 20, dtype=np.uint8)
    e1 = api.clEnqueueWriteBuffer(queue, buf, False, 0, data)
    e2 = api.clEnqueueWriteBuffer(queue, buf, False, 0, data)
    e3 = api.clEnqueueWriteBuffer(queue, buf, False, 0, data)
    api.clFinish(queue)
    assert e1.end <= e2.start and e2.end <= e3.start


def test_two_queues_contend_for_one_device(cpu_api):
    api = cpu_api
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_CPU)[0]
    ctx = api.clCreateContext([dev])
    q1 = api.clCreateCommandQueue(ctx, dev)
    q2 = api.clCreateCommandQueue(ctx, dev)
    program = api.clCreateProgramWithSource(ctx, VECADD)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "vadd")
    n = 4096
    a = np.zeros(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, a.nbytes)
    for arg, val in ((0, buf), (1, buf), (2, buf), (3, n)):
        api.clSetKernelArg(kernel, arg, val)
    e1 = api.clEnqueueNDRangeKernel(q1, kernel, (n,))
    e2 = api.clEnqueueNDRangeKernel(q2, kernel, (n,))
    # Same device: the second kernel cannot overlap the first.
    assert e2.start >= e1.end


def test_build_failure_reports_log(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)[0]
    ctx = api.clCreateContext([dev])
    program = api.clCreateProgramWithSource(ctx, "__kernel void broken( { }")
    with pytest.raises(CLError) as err:
        api.clBuildProgram(program)
    assert err.value.code == ErrorCode.CL_BUILD_PROGRAM_FAILURE
    log = api.clGetProgramBuildInfo(program, dev, "LOG")
    assert "expected" in log
    assert api.clGetProgramBuildInfo(program, dev, "STATUS") == "ERROR"


def test_kernel_from_unbuilt_program_rejected(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)[0]
    ctx = api.clCreateContext([dev])
    program = api.clCreateProgramWithSource(ctx, VECADD)
    with pytest.raises(CLError) as err:
        api.clCreateKernel(program, "vadd")
    assert err.value.code == ErrorCode.CL_INVALID_PROGRAM_EXECUTABLE


def test_unknown_kernel_name(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)[0]
    ctx = api.clCreateContext([dev])
    program = api.clCreateProgramWithSource(ctx, VECADD)
    api.clBuildProgram(program)
    with pytest.raises(CLError) as err:
        api.clCreateKernel(program, "nope")
    assert err.value.code == ErrorCode.CL_INVALID_KERNEL_NAME


def test_unset_kernel_arg_rejected(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    program = api.clCreateProgramWithSource(ctx, VECADD)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "vadd")
    with pytest.raises(CLError) as err:
        api.clEnqueueNDRangeKernel(queue, kernel, (64,))
    assert err.value.code == ErrorCode.CL_INVALID_KERNEL_ARGS


def test_wrong_arg_kind_rejected(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)[0]
    ctx = api.clCreateContext([dev])
    program = api.clCreateProgramWithSource(ctx, VECADD)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "vadd")
    with pytest.raises(CLError) as err:
        api.clSetKernelArg(kernel, 0, 42)  # buffer arg given a scalar
    assert err.value.code == ErrorCode.CL_INVALID_ARG_VALUE
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 64)
    with pytest.raises(CLError) as err:
        api.clSetKernelArg(kernel, 3, buf)  # scalar arg given a buffer
    assert err.value.code == ErrorCode.CL_INVALID_ARG_VALUE


def test_buffer_validation(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)[0]
    ctx = api.clCreateContext([dev])
    with pytest.raises(CLError) as err:
        api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 0)
    assert err.value.code == ErrorCode.CL_INVALID_BUFFER_SIZE
    with pytest.raises(CLError) as err:
        api.clCreateBuffer(ctx, CL_MEM_COPY_HOST_PTR, 64)  # missing host data
    assert err.value.code == ErrorCode.CL_INVALID_HOST_PTR


def test_buffer_release_frees_device_memory(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    before = dev.hw.allocated_bytes
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 20)
    assert dev.hw.allocated_bytes == before + (1 << 20)
    api.clReleaseMemObject(buf)
    assert dev.hw.allocated_bytes == before
    with pytest.raises(CLError):
        buf.view(0, 4)


def test_profiling_info(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 20)
    ev = api.clEnqueueWriteBuffer(queue, buf, True, 0, np.zeros(1 << 20, dtype=np.uint8))
    from repro.ocl.constants import CL_PROFILING_COMMAND_END, CL_PROFILING_COMMAND_START

    start = api.clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_START)
    end = api.clGetEventProfilingInfo(ev, CL_PROFILING_COMMAND_END)
    assert end > start


def test_user_event_gates_command(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1024)
    user = api.clCreateUserEvent(ctx)
    ev = api.clEnqueueWriteBuffer(
        queue, buf, False, 0, np.zeros(1024, dtype=np.uint8), wait_for=[user]
    )
    assert not ev.resolved
    # Completing the user event at t=5 releases the gated command.
    api.clSetUserEventStatus(user, 0)
    assert ev.resolved
    assert ev.start >= user.end


def test_wait_on_gated_event_deadlocks(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1024)
    user = api.clCreateUserEvent(ctx)
    ev = api.clEnqueueWriteBuffer(
        queue, buf, False, 0, np.zeros(1024, dtype=np.uint8), wait_for=[user]
    )
    with pytest.raises(CLError):
        api.clWaitForEvents([ev])


def test_event_callback_fires_with_completion_time(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1 << 20)
    seen = []
    ev = api.clEnqueueWriteBuffer(queue, buf, False, 0, np.zeros(1 << 20, dtype=np.uint8))
    api.clSetEventCallback(ev, lambda e, status, t: seen.append((status, t)))
    assert seen and seen[0][0] == 0
    assert seen[0][1] == ev.end


def test_copy_buffer(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    src_data = np.arange(256, dtype=np.uint8)
    src = api.clCreateBuffer(ctx, CL_MEM_COPY_HOST_PTR, 256, src_data)
    dst = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 256)
    api.clEnqueueCopyBuffer(queue, src, dst)
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, dst)
    np.testing.assert_array_equal(data, src_data)


def test_overlapping_self_copy_rejected(api):
    platform = api.clGetPlatformIDs()[0]
    dev = api.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)[0]
    ctx = api.clCreateContext([dev])
    queue = api.clCreateCommandQueue(ctx, dev)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 256)
    with pytest.raises(CLError) as err:
        api.clEnqueueCopyBuffer(queue, buf, buf, 0, 16, 64)
    assert err.value.code == ErrorCode.CL_MEM_COPY_OVERLAP


def test_images_and_samplers_unimplemented(api):
    with pytest.raises(CLError) as err:
        api.clCreateImage2D()
    assert err.value.code == ErrorCode.CL_INVALID_OPERATION
    with pytest.raises(CLError):
        api.clCreateSampler()
    with pytest.raises(CLError):
        api.clEnqueueMapBuffer()


def test_context_cannot_span_hosts():
    api1 = NativeAPI(Host(DESKTOP_PC, name="h1"))
    api2 = NativeAPI(Host(DESKTOP_PC, name="h2"))
    d1 = api1.clGetDeviceIDs(api1.clGetPlatformIDs()[0], CL_DEVICE_TYPE_ALL)[0]
    d2 = api2.clGetDeviceIDs(api2.clGetPlatformIDs()[0], CL_DEVICE_TYPE_ALL)[0]
    with pytest.raises(CLError) as err:
        api1.clCreateContext([d1, d2])
    assert err.value.code == ErrorCode.CL_INVALID_DEVICE


def test_cpu_device_faster_than_lowend_gpu_for_same_kernel():
    """Timing sanity: a Westmere node outruns the NVS 3100M on our model."""
    fast = NativeAPI(Host(WESTMERE_NODE))
    slow = NativeAPI(Host(DESKTOP_PC))

    def run(api, device_type):
        platform = api.clGetPlatformIDs()[0]
        dev = api.clGetDeviceIDs(platform, device_type)[0]
        ctx = api.clCreateContext([dev])
        queue = api.clCreateCommandQueue(ctx, dev)
        program = api.clCreateProgramWithSource(ctx, VECADD)
        api.clBuildProgram(program)
        kernel = api.clCreateKernel(program, "vadd")
        n = 1 << 20
        buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, n * 4)
        for idx, val in ((0, buf), (1, buf), (2, buf), (3, n)):
            api.clSetKernelArg(kernel, idx, val)
        ev = api.clEnqueueNDRangeKernel(queue, kernel, (n,))
        api.clWaitForEvents([ev])
        # Compare pure compute rate (net of launch overhead).
        return ev.end - ev.start - dev.hw.spec.launch_overhead

    assert run(fast, CL_DEVICE_TYPE_CPU) < run(slow, CL_DEVICE_TYPE_GPU)
