"""Unit tests for the daemon's content-addressed program build cache.

The cluster-wide sharing semantics (one compile per unique ``(source,
options)`` pair, binary shipping, bit-identical negative replays) are
locked down end-to-end by the conformance suite and the benchmarks;
this file pins the cache data structure itself (LRU bounding with an
eviction counter, key composition, sibling-entry adoption, the crash
lifetime) and the one build path on each side of the ``batch_window``
switch, eviction included.
"""

import numpy as np
import pytest

from repro.clc.driver import compile_program, program_digest, serialize_program
from repro.core.daemon.buildcache import DEFAULT_CAPACITY, ProgramBuildCache
from repro.hw import Host
from repro.hw.cluster import make_ib_cpu_cluster
from repro.hw.specs import GPU_SERVER
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CLError, NativeAPI
from repro.testbed import deploy_dopencl


def _source(i: int) -> str:
    return f"""
__kernel void k{i}(__global float *x, const int n) {{
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] + {i}.0f;
}}
"""


def _compiled(i: int, options: str = ""):
    return compile_program(_source(i), options)


def test_lru_bound_and_eviction_counter():
    cache = ProgramBuildCache(capacity=4)
    entries = [cache.store_success(_compiled(i)) for i in range(6)]
    assert len(cache) == 4
    assert cache.evictions == 2
    # The two least-recently-used entries are gone, the rest remain.
    assert cache.lookup(entries[0].digest, "") is None
    assert cache.lookup(entries[1].digest, "") is None
    assert cache.lookup(entries[5].digest, "") is entries[5]


def test_lookup_refreshes_lru_order():
    cache = ProgramBuildCache(capacity=2)
    first = cache.store_success(_compiled(0))
    cache.store_success(_compiled(1))
    # Touch the older entry, then overflow: the *untouched* one goes.
    assert cache.lookup(first.digest, "") is first
    cache.store_success(_compiled(2))
    assert cache.lookup(first.digest, "") is first
    assert cache.lookup(program_digest(_source(1)), "") is None


def test_options_are_part_of_the_key():
    cache = ProgramBuildCache()
    plain = cache.store_success(_compiled(0))
    defined = cache.store_success(_compiled(0, "-DBIAS=2.0f"))
    assert plain is not defined
    assert plain.digest == defined.digest  # same source...
    assert len(cache) == 2  # ...distinct outcomes
    assert cache.lookup(plain.digest, "") is plain
    assert cache.lookup(plain.digest, "-DBIAS=2.0f") is defined


def test_negative_entries_replay_the_stored_failure():
    cache = ProgramBuildCache()
    entry = cache.store_failure(
        "__kernel void broken(", "", "syntax error: line 1", -11, "missing ')'"
    )
    hit = cache.lookup(entry.digest, "")
    assert hit is entry
    assert hit.kind == "negative"
    assert (hit.log, hit.error, hit.detail) == (
        "syntax error: line 1", -11, "missing ')'"
    )
    # Idempotent: a racing second failure keeps the original entry.
    assert cache.store_failure("__kernel void broken(", "", "other log", -11) is entry


def test_install_binary_dedupes():
    cache = ProgramBuildCache()
    blob = serialize_program(_compiled(3))
    entry, installed = cache.install_binary(blob)
    assert installed and entry.kind == "binary"
    again, installed_again = cache.install_binary(blob)
    assert again is entry and not installed_again
    assert len(cache) == 1


def test_install_entry_copies_sibling_entries_including_negatives():
    builder, sibling = ProgramBuildCache(), ProgramBuildCache()
    binary = builder.store_success(_compiled(0))
    negative = builder.store_failure("__kernel void broken(", "", "log", -11)
    assert sibling.install_entry(binary)
    assert sibling.install_entry(negative)
    assert not sibling.install_entry(binary)  # already adopted
    adopted = sibling.lookup(binary.digest, "")
    assert adopted is not binary and adopted.blob == binary.blob
    # Per-cache hit counters stay independent (the lookup above touched
    # only the sibling's copy).
    assert adopted.hits == 1 and binary.hits == 0
    assert sibling.lookup(negative.digest, "").kind == "negative"


def test_default_capacity_is_generous_but_bounded():
    cache = ProgramBuildCache()
    assert cache.capacity == DEFAULT_CAPACITY >= 64
    assert ProgramBuildCache(capacity=0).capacity == 1  # never unbounded-below


def test_daemon_crash_drops_the_build_cache():
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    program = api.clCreateProgramWithSource(ctx, _source(0))
    api.clBuildProgram(program)
    api.clFinish(queue)
    daemon = deployment.daemons[0]
    assert len(daemon.buildcache) == 1
    before = daemon.buildcache
    daemon.crash()
    # A fresh, empty cache: binaries are volatile in-memory state.
    assert daemon.buildcache is not before
    assert len(daemon.buildcache) == 0


def test_daemon_restart_rehydrates_the_build_cache_from_a_sibling():
    """ISSUE-9 satellite: the cluster binary registry outlives any one
    daemon.  A build lands an entry on every sibling (binary shipping);
    after a crash wipes one daemon's cache, ``restart()`` pulls the
    entries back over the s2s mesh, counted in
    ``NetStats.cache_entries_rehydrated``, and a lookup on the adopted
    entry works."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(3))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    program = api.clCreateProgramWithSource(ctx, _source(0))
    api.clBuildProgram(program)
    api.clFinish(queue)
    victim = deployment.daemons[1]
    assert len(victim.buildcache) == 1  # shipped by the building daemon
    victim.crash()
    assert len(victim.buildcache) == 0
    victim.restart()
    assert len(victim.buildcache) == 1
    assert victim.gcf.stats.cache_entries_rehydrated == 1
    adopted = victim.buildcache.lookup(program_digest(_source(0)), "")
    assert adopted is not None and adopted.kind == "binary"
    # A second crash/restart cycle rehydrates again — the counter is
    # cumulative across incarnations.
    victim.crash()
    victim.restart()
    assert victim.gcf.stats.cache_entries_rehydrated == 2


# ----------------------------------------------------------------------
# the client front-end: once per (digest, options) per process
# ----------------------------------------------------------------------
def _counting_front_end(monkeypatch):
    from repro.clc import driver as clc_driver

    runs = []
    real = clc_driver.compile_program
    monkeypatch.setattr(
        clc_driver, "compile_program", lambda *args: (runs.append(args), real(*args))[1]
    )
    return runs


def _build_on_every_tenant(deployment, source, options=""):
    programs = []
    for api in deployment.apis:
        devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
        ctx = api.clCreateContext(devices[:1])
        program = api.clCreateProgramWithSource(ctx, source)
        try:
            api.clBuildProgram(program, options)
        except CLError as exc:
            program.failure = str(exc)
        programs.append(program)
    return programs


def test_two_drivers_share_one_front_end_run(monkeypatch):
    """Two tenants (two client drivers in this process) build one source:
    the front-end runs once, both stubs get equal metadata, neither can
    see the other mutate its copy, and each driver keeps its own record
    with its own hit count."""
    from repro.hw.cluster import make_multi_client_gpu_server

    runs = _counting_front_end(monkeypatch)
    source = _source(7101)  # a digest no other test builds
    deployment = deploy_dopencl(make_multi_client_gpu_server(2), n_clients=2)
    first, second = _build_on_every_tenant(deployment, source)
    client_runs = [args for args in runs if args[0] == source]
    assert len(client_runs) == 1
    assert first.kernel_meta == second.kernel_meta and first.kernel_meta["k7101"]["num_args"] == 2
    first.kernel_meta["k7101"]["arg_kinds"].append("mutated")
    first.kernel_meta["extra"] = {}
    assert "extra" not in second.kernel_meta
    assert second.kernel_meta["k7101"]["arg_kinds"] == ["buffer", "value"]
    digest = program_digest(source)
    for driver in deployment.drivers:
        assert driver.build_record(digest, "").hits == 0  # each driver's first sighting
        assert driver.stats.build_cache_hits == 0
    # A rebuild on one tenant is that driver's hit, nobody else's, and
    # no front-end run at all.
    third = _build_on_every_tenant(deployment, source)[0]
    assert third.kernel_meta["k7101"]["arg_kinds"] == ["buffer", "value"]
    assert [d.build_record(digest, "").hits for d in deployment.drivers] == [1, 1]
    assert len([args for args in runs if args[0] == source]) == 1
    # Other options are another outcome.
    _build_on_every_tenant(deployment, source, "-DX=1")
    assert len([args for args in runs if args[0] == source]) == 2


def test_a_failed_build_replays_the_identical_log_across_drivers(monkeypatch):
    from repro.hw.cluster import make_multi_client_gpu_server

    runs = _counting_front_end(monkeypatch)
    source = "__kernel void broken7102(__global float *x) { x[0] = undeclared; }"
    deployment = deploy_dopencl(make_multi_client_gpu_server(2), n_clients=2)
    first, second = _build_on_every_tenant(deployment, source)
    assert len([args for args in runs if args[0] == source]) == 1
    assert first.failure == second.failure and "undeclared" in first.failure
    assert first.build_status == second.build_status == "ERROR"
    assert list(first.build_logs.values()) == list(second.build_logs.values())
    for driver in deployment.drivers:
        assert driver.stats.negative_build_hits == 0
    again = _build_on_every_tenant(deployment, source)
    assert [p.failure for p in again] == [first.failure] * 2
    assert [d.stats.negative_build_hits for d in deployment.drivers] == [1, 1]


def test_front_end_memo_is_bounded(monkeypatch):
    from collections import OrderedDict

    from repro.clc import driver as clc_driver

    memo = OrderedDict()
    monkeypatch.setattr(clc_driver, "_FRONT_END_OUTCOMES", memo)
    monkeypatch.setattr(clc_driver, "_FRONT_END_OUTCOMES_MAX", 2)
    for i in (7103, 7104, 7103, 7105):  # 7104 is the least recently used
        meta, log = clc_driver.front_end_outcome(_source(i))
        assert log == "" and list(meta) == [f"k{i}"]
    assert [key[0] for key in memo] == [program_digest(_source(i)) for i in (7103, 7105)]


# ----------------------------------------------------------------------
# one program path per side of the switch
# ----------------------------------------------------------------------
N = 16


def _create_build_and_run(cl, ctx, queue, source, name):
    """Create and build ``source``, launch ``name`` (``x[i] += c``) on
    ``arange(N)`` and read the buffer back."""
    program = cl.clCreateProgramWithSource(ctx, source)
    cl.clBuildProgram(program)
    x = np.arange(N, dtype=np.float32)
    buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    kernel = cl.clCreateKernel(program, name)
    cl.clSetKernelArg(kernel, 0, buf)
    cl.clSetKernelArg(kernel, 1, N)
    cl.clEnqueueNDRangeKernel(queue, kernel, (N,))
    data, _ = cl.clEnqueueReadBuffer(queue, buf)
    cl.clFinish(queue)
    return bytes(data)


def _native_bytes(source, name):
    native = NativeAPI(Host(GPU_SERVER))
    device = native.clGetDeviceIDs(native.clGetPlatformIDs()[0])[0]
    ctx = native.clCreateContext([device])
    queue = native.clCreateCommandQueue(ctx, device)
    return _create_build_and_run(native, ctx, queue, source, name)


def _tenant(api):
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices[:1])
    return ctx, api.clCreateCommandQueue(ctx, devices[0])


def _build_only(api, ctx, queue, sources):
    for source in sources:
        api.clBuildProgram(api.clCreateProgramWithSource(ctx, source))
    api.clFinish(queue)


def test_a_recreated_source_runs_after_its_cache_entry_was_evicted():
    """65 distinct builds overflow the daemon's 64-entry cache; creating
    and building the first source again still computes what
    ``NativeAPI`` computes (a creation by digest failed here)."""
    sources = [_source(i) for i in range(7201, 7201 + DEFAULT_CAPACITY + 1)]
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    ctx, queue = _tenant(deployment.api)
    _build_only(deployment.api, ctx, queue, sources)
    assert deployment.daemons[0].buildcache.evictions == 1
    got = _create_build_and_run(deployment.api, ctx, queue, sources[0], "k7201")
    assert got == _native_bytes(sources[0], "k7201")


def test_another_tenants_builds_cannot_evict_a_tenants_program():
    """Tenant B's 64 builds evict tenant A's entry from the shared
    daemon cache; A's re-created program still builds, runs and reads
    back ``NativeAPI``'s bytes."""
    from repro.hw.cluster import make_multi_client_gpu_server

    source = _source(7300)
    deployment = deploy_dopencl(make_multi_client_gpu_server(2), n_clients=2)
    a, b = deployment.apis
    ctx_a, queue_a = _tenant(a)
    _build_only(a, ctx_a, queue_a, [source])
    ctx_b, queue_b = _tenant(b)
    _build_only(b, ctx_b, queue_b, [_source(i) for i in range(7301, 7301 + DEFAULT_CAPACITY)])
    cache = deployment.daemons[0].buildcache
    assert cache.lookup(program_digest(source), "") is None
    got = _create_build_and_run(a, ctx_a, queue_a, source, "k7300")
    assert got == _native_bytes(source, "k7300")


def _request_tags(deployment):
    tags = []
    network = deployment.cluster.network
    real = network.transfer

    def spy(src, dst, ready, nbytes, tag=None):
        tags.append(tag)
        return real(src, dst, ready, nbytes, tag)

    network.transfer = spy
    return tags


@pytest.mark.parametrize("batch_window", [0, None])
def test_each_side_of_the_switch_has_one_build_path(batch_window):
    """With default options the reference path compiles on every server
    through ``BuildProgramRequest`` and its daemon caches stay empty;
    the pipeline never sends a ``BuildProgramRequest``, compiles once
    and ships the binary to the sibling."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), batch_window=batch_window)
    tags = _request_tags(deployment)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    _build_only(api, ctx, queue, [_source(7400), _source(7400)])
    stats = deployment.daemon_stats()
    if batch_window == 0:
        assert tags.count("BuildProgramRequest") == 4
        assert [len(d.buildcache) for d in deployment.daemons] == [0, 0]
        assert (stats["programs_built"], stats["build_cache_hits"]) == (4, 0)
        assert stats["binaries_shipped"] == 0
    else:
        assert "BuildProgramRequest" not in tags
        assert [len(d.buildcache) for d in deployment.daemons] == [1, 1]
        assert (stats["programs_built"], stats["build_cache_hits"]) == (1, 3)
        assert stats["binaries_shipped"] == 1


def test_a_sibling_that_holds_the_key_gets_no_transfer():
    """node00 (cache capacity 1) builds X, Y, X: the second compile of X
    finds node01 already holding it, so only two ``s2s-binary``
    transfers cross the mesh — one per ``binaries_shipped``."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    deployment.daemons[0].buildcache.capacity = 1
    tags = _request_tags(deployment)
    ctx, queue = _tenant(deployment.api)
    for i in (7500, 7501, 7500):
        _build_only(deployment.api, ctx, queue, [_source(i)])
    stats = deployment.daemons[0].gcf.stats
    assert stats.programs_built == 3
    assert tags.count("s2s-binary") == stats.binaries_shipped == 2
