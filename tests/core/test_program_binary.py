"""The program-binary round trip: ``clGetProgramInfo(BINARIES)`` ->
``clCreateProgramWithBinary`` -> ``clBuildProgram``.

README.md advertises the snippet; this suite runs it end to end on the
full pipeline, on the synchronous reference path (``batch_window=0``)
and with the build cache off: the clone computes bit-identical output
without another compile, malformed blobs are rejected before anything
ships, and the query goes through the resilience layer (a dead first
server no longer answers for the survivors).
"""

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
__kernel void shift(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] + f;
}
"""

CONFIGS = [
    pytest.param({}, id="default"),
    pytest.param({"batch_window": 0}, id="reference"),
    pytest.param({"program_cache": False}, id="cache_off"),
]


def _built(**flags):
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), **flags)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    return deployment, api, ctx, queue, program


def _run_scale(api, ctx, queue, program, n=64):
    x = np.arange(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(2.5))
    api.clSetKernelArg(kernel, 2, n)
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    return data.tobytes()


def _programs_built(deployment):
    return sum(d.gcf.stats.programs_built for d in deployment.daemons)


@pytest.mark.parametrize("flags", CONFIGS)
def test_binary_clone_matches_the_source_build_without_recompiling(flags):
    deployment, api, ctx, queue, program = _built(**flags)
    expected = _run_scale(api, ctx, queue, program)
    binaries = api.clGetProgramInfo(program, "BINARIES")
    assert len(binaries) == 2 and binaries[0] == binaries[1]
    built_before = _programs_built(deployment)
    clone = api.clCreateProgramWithBinary(ctx, binaries[0])
    api.clBuildProgram(clone)
    assert _run_scale(api, ctx, queue, clone) == expected
    assert _programs_built(deployment) == built_before
    assert api.clGetProgramInfo(clone, "SOURCE") == SCALE
    assert api.clGetProgramInfo(clone, "BINARIES")[0] == binaries[0]


@pytest.mark.parametrize("flags", CONFIGS)
@pytest.mark.parametrize("damage", ["corrupt", "truncated", "empty"])
def test_malformed_binary_is_rejected_before_anything_ships(flags, damage):
    deployment, api, ctx, queue, program = _built(**flags)
    blob = api.clGetProgramInfo(program, "BINARIES")[0]
    bad = {
        "corrupt": bytes(b ^ 0xFF for b in blob[:16]) + blob[16:],
        "truncated": blob[: len(blob) // 2],
        "empty": b"",
    }[damage]
    driver = deployment.driver
    round_trips, pending = driver.stats.round_trips, driver.pending_commands()
    with pytest.raises(CLError) as err:
        api.clCreateProgramWithBinary(ctx, bad)
    assert err.value.code == ErrorCode.CL_INVALID_BINARY
    assert driver.stats.round_trips == round_trips
    assert driver.pending_commands() == pending


@pytest.mark.parametrize("flags", CONFIGS)
def test_program_info_keys(flags):
    deployment, api, ctx, queue, program = _built(**flags)
    assert api.clGetProgramInfo(program, "SOURCE") == SCALE
    assert api.clGetProgramInfo(program, "KERNEL_NAMES") == ["scale", "shift"]
    with pytest.raises(CLError) as err:
        api.clGetProgramInfo(program, "NO_SUCH_KEY")
    assert err.value.code == ErrorCode.CL_INVALID_VALUE
    unbuilt = api.clCreateProgramWithSource(ctx, SCALE)
    for key in ("KERNEL_NAMES", "BINARIES"):
        with pytest.raises(CLError) as err:
            api.clGetProgramInfo(unbuilt, key)
        assert err.value.code == ErrorCode.CL_INVALID_PROGRAM_EXECUTABLE


def _crash_on_next_exchange(deployment, victim):
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan(
            [FaultAction("crash", nth=1, dst=victim.host.name, host=victim.host.name)],
            max_transfers=100_000,
        ),
    )
    injector.register_crash_hook(victim.host.name, victim.crash)


def test_binaries_query_skips_a_dead_first_server():
    """Regression: the query used to go raw to ``unique_servers[0]`` —
    after that daemon died it answered ``CL_INVALID_PROGRAM`` although
    the survivor holds the identical binary."""
    deployment, api, ctx, queue, program = _built(retry_policy=RetryPolicy())
    api.clFinish(queue)
    expected = api.clGetProgramInfo(program, "BINARIES")
    _crash_on_next_exchange(deployment, deployment.daemons[0])
    with pytest.raises(CLError) as err:
        api.clFinish(queue)  # queue lives on node00: trips the crash
    assert err.value.code == ErrorCode.CL_DEVICE_NOT_AVAILABLE
    assert deployment.driver.stats.dead_daemons == 1
    assert api.clGetProgramInfo(program, "BINARIES") == expected


def test_binaries_query_with_every_server_dead_reports_the_loss():
    deployment, api, ctx, queue, program = _built(retry_policy=RetryPolicy())
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    queues = [queue, api.clCreateCommandQueue(ctx, devices[1])]
    for q in queues:
        api.clFinish(q)
    for q, victim in zip(queues, deployment.daemons):
        _crash_on_next_exchange(deployment, victim)
        with pytest.raises(CLError):
            api.clFinish(q)
    assert deployment.driver.stats.dead_daemons == 2
    with pytest.raises(CLError) as err:
        api.clGetProgramInfo(program, "BINARIES")
    assert err.value.code == ErrorCode.CL_DEVICE_NOT_AVAILABLE
