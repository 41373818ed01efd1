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


# ----------------------------------------------------------------------
# malformed and stale binaries: CL_INVALID_BINARY, never a raw exception
# ----------------------------------------------------------------------
def _doc_damage(name):
    """A right-magic (or, for ``stale_magic``, previous-ABI) blob that
    ``json.loads`` accepts and whose contents are wrong in one way."""
    import json

    from repro.clc.driver import compile_program, serialize_program

    doc = json.loads(serialize_program(compile_program(SCALE)))
    if name == "missing_key":
        del doc["python_source"]
    elif name == "source_does_not_compile":
        doc["python_source"] = "def _fn_scale(:"
    elif name == "source_raises_on_import":
        doc["python_source"] = "raise RuntimeError('boom')"
    elif name == "kernel_absent_from_module":
        doc["kernels"][0]["name"] = "no_such_kernel"
    elif name == "kernels_not_a_list":
        doc["kernels"] = 7
    elif name == "garbage_params_entry":
        doc["kernels"][0]["params"] = [3]
    elif name == "stale_magic":
        doc["magic"] = "CLCB1"
    return json.dumps(doc, sort_keys=True).encode()


DAMAGED_DOCS = [
    "missing_key", "source_does_not_compile", "source_raises_on_import",
    "kernel_absent_from_module", "kernels_not_a_list", "garbage_params_entry", "stale_magic",
]


@pytest.mark.parametrize("damage", DAMAGED_DOCS)
def test_damaged_binary_document_is_a_compile_error(damage):
    from repro.clc import CLCompileError
    from repro.clc.driver import deserialize_program

    with pytest.raises(CLCompileError, match="invalid program binary"):
        deserialize_program(_doc_damage(damage))


@pytest.mark.parametrize("damage", DAMAGED_DOCS)
def test_damaged_binary_document_is_invalid_binary_at_the_api(damage):
    deployment, api, ctx, queue, program = _built()
    api.clFinish(queue)  # the deferred source build lands in the daemons' caches
    driver = deployment.driver
    round_trips, pending = driver.stats.round_trips, driver.pending_commands()
    cached = [len(d.buildcache) for d in deployment.daemons]
    with pytest.raises(CLError) as err:
        api.clCreateProgramWithBinary(ctx, _doc_damage(damage))
    assert err.value.code == ErrorCode.CL_INVALID_BINARY
    assert driver.stats.round_trips == round_trips and driver.pending_commands() == pending
    assert [len(d.buildcache) for d in deployment.daemons] == cached


@pytest.mark.parametrize("cache", [True, False], ids=["build_cache", "no_build_cache"])
@pytest.mark.parametrize("damage", DAMAGED_DOCS)
def test_damaged_binary_document_is_invalid_binary_at_the_daemon(damage, cache):
    """A client that skips its own validation: the daemon answers
    ``CL_INVALID_BINARY``, registers no program and caches nothing."""
    from repro.core.daemon import Daemon
    from repro.core.protocol import messages as P
    from repro.hw import Host
    from repro.hw.specs import GIGABIT_ETHERNET, GPU_SERVER, WESTMERE_NODE
    from repro.net import GCFProcess, Network

    net = Network(GIGABIT_ETHERNET)
    daemon = Daemon(net.add_host(Host(GPU_SERVER, name="srv")), net, program_cache=cache)
    client = GCFProcess("client", net.add_host(Host(WESTMERE_NODE, name="cli")), net)
    client.request(daemon.gcf, P.CreateContextRequest(context_id=1, device_ids=[0]), 0.0)
    registered = daemon.registry.count("client")
    out = client.request(
        daemon.gcf,
        P.CreateProgramWithBinaryRequest(program_id=3, context_id=1, binary=_doc_damage(damage)),
        0.0,
    )
    assert out.response.error == ErrorCode.CL_INVALID_BINARY.value
    assert daemon.registry.count("client") == registered
    assert daemon.buildcache is None or len(daemon.buildcache) == 0
