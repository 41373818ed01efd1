"""Operator-tool tests: clinfo (all three API flavours) and cachestat."""

import pytest

from repro.hw import GPU_SERVER, Host
from repro.hw.cluster import make_desktop_and_gpu_server, make_ib_cpu_cluster
from repro.ocl import ICDLoader, NativeAPI
from repro.ocl.errors import CLError
from repro.testbed import deploy_dopencl
from repro.tools import cachestat_text, clinfo_text


def test_clinfo_native():
    text = clinfo_text(NativeAPI(Host(GPU_SERVER)))
    assert "Number of platforms: 1" in text
    assert "repro-ocl" in text
    assert "Tesla" in text
    assert text.count("Device #") == 5
    assert "4096 MiB" in text or "4 GiB" in text


def test_clinfo_dopencl_shows_servers():
    deployment = deploy_dopencl(make_ib_cpu_cluster(3))
    text = clinfo_text(deployment.api)
    assert "dOpenCL" in text
    assert text.count("Device #") == 3
    assert "dOpenCL server:  node00" in text
    assert "dOpenCL server:  node02" in text


def test_clinfo_icd_combined():
    cluster = make_desktop_and_gpu_server()
    deployment = deploy_dopencl(cluster)
    native = NativeAPI(cluster.client, clock=deployment.api.clock)
    loader = ICDLoader([native, deployment.api])
    text = clinfo_text(loader)
    assert "Number of platforms: 2" in text
    assert "NVS" in text  # the desktop's own GPU via the native platform
    assert "Tesla" in text  # the remote GPUs via dOpenCL


_GOOD_SOURCE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""

_BROKEN_SOURCE = """
__kernel void broken(__global float *x, const int n) {
    int i = (int)get_global_id(0)
    if (i < n) x[i] = 0.0f;
}
"""


def _build_on(api, source, options=""):
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    program = api.clCreateProgramWithSource(ctx, source)
    api.clBuildProgram(program, options)
    api.clFinish(queue)


def test_cachestat_shows_cluster_build_cache_state():
    deployment = deploy_dopencl(make_ib_cpu_cluster(2, n_clients=2), n_clients=2)
    for api in deployment.apis:
        _build_on(api, _GOOD_SOURCE)
    with pytest.raises(CLError):
        _build_on(deployment.apis[0], _BROKEN_SOURCE)
    text = cachestat_text(deployment)
    # One section per daemon, every daemon holds both entry kinds (the
    # binary and the negative outcome ship to siblings).
    for daemon in deployment.daemons:
        assert f"Daemon {daemon.name}:" in text
    assert text.count("binary") == 2
    assert text.count("negative") >= 1
    assert "compiled=1" in text  # exactly one daemon compiled the source
    assert "binaries_shipped=1" in text
    # The second tenant's resolutions were answered from the cache.
    assert "cache_hits=" in text and "hit ratio:" in text
    total_hits = sum(d.gcf.stats.build_cache_hits for d in deployment.daemons)
    assert total_hits > 0
    assert "entries (LRU -> MRU):" in text


def test_daemon_stats_is_the_key_wise_sum_over_daemons():
    """``Deployment.daemon_stats()`` — the one aggregator the benches,
    the conformance invariants and cachestat pick their keys from —
    equals the per-daemon sums on a two-server run."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2, n_clients=2), n_clients=2)
    for api in deployment.apis:
        _build_on(api, _GOOD_SOURCE)
    snapshots = [daemon.gcf.stats.snapshot() for daemon in deployment.daemons]
    total = deployment.daemon_stats()
    assert set(total) == set(snapshots[0])
    for key in total:
        assert total[key] == snapshots[0][key] + snapshots[1][key], key
    # The run really moved counters on both daemons, unevenly.
    assert total["programs_built"] == 1
    assert total["binaries_shipped"] == 1
    assert all(snapshot["batched_commands_received"] > 0 for snapshot in snapshots)


def test_cachestat_reports_disabled_cache():
    deployment = deploy_dopencl(make_ib_cpu_cluster(1), program_cache=False)
    _build_on(deployment.api, _GOOD_SOURCE)
    text = cachestat_text(deployment)
    assert "disabled (program_cache=False)" in text
    assert "entries" not in text


def test_cachestat_reports_replica_residency_and_push_ratios():
    """PR-9 additions: per-daemon replica residency from the coherence
    directories and the deployment-wide push hit/waste summary."""
    import numpy as np

    from repro.bench.conformance import BUFFER_ELEMS, PROGRAM_SOURCE
    from repro.ocl.constants import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE
    from repro.tools.cachestat import push_summary, replica_residency

    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    cl = deployment.api
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])
    ctx = cl.clCreateContext(devices)
    queue = cl.clCreateCommandQueue(ctx, devices[0])
    program = cl.clCreateProgramWithSource(ctx, PROGRAM_SOURCE)
    cl.clBuildProgram(program)
    seed = np.zeros(BUFFER_ELEMS, dtype=np.float32)
    buf = cl.clCreateBuffer(
        ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, seed.nbytes, seed
    )
    # Producer->demand-read rounds: round 4's launch is hinted, its push
    # is consumed by the round-4 read (a committed speculation).
    for r in range(4):
        kernel = cl.clCreateKernel(program, "fill")
        cl.clSetKernelArg(kernel, 0, buf)
        cl.clSetKernelArg(kernel, 1, 1.0 + r)
        cl.clSetKernelArg(kernel, 2, BUFFER_ELEMS)
        cl.clEnqueueNDRangeKernel(queue, kernel, (BUFFER_ELEMS,))
        cl.clEnqueueReadBuffer(queue, buf)
    daemon = deployment.daemons[0]
    text = cachestat_text(deployment)
    assert "replicas:" in text
    assert "Client replicas:" in text
    assert f"pushes: executed={daemon.gcf.stats.daemon_pushes}" in text
    assert "Push summary:" in text and "hit_ratio=1.00" in text
    # The structured accessors agree with the rendered text.
    summary = push_summary(deployment)
    assert summary["push_commits"] == summary["speculative_pushes"] > 0
    assert summary["wasted_pushes"] == 0 and summary["waste_ratio"] == 0.0
    residency = replica_residency(deployment)
    assert sum(residency["client"].values()) == 1  # one live buffer
    assert sum(residency[daemon.name].values()) == 1


def test_clcdump_prints_decisions_and_run_report(capsys):
    from repro.clc import vecrt
    from repro.tools import clcdump

    merge, compact = vecrt.merge, vecrt.compact
    clcdump._main(["--app", "mandelbrot", "--run", "96"])
    text = capsys.readouterr().out
    assert "# merge elided: zr_" in text and "# merge kept: iter_" in text
    assert "# loop 2: compactable" in text
    report = text[text.index("run: kernel 'mandelbrot', 96 work-items"):]
    assert "vector ops=" in report and "interp ops=" in report
    assert "merges executed=" in report and "compactions fired=0" in report
    assert "buffers identical on both backends: yes" in report
    assert (vecrt.merge, vecrt.compact) == (merge, compact)  # counters removed again


def test_clcdump_reads_a_file_and_reports_a_backend_failure(tmp_path, capsys):
    from repro.tools import clcdump

    source = tmp_path / "k.cl"
    source.write_text(
        "__kernel void k(__global int *out, const int n) {\n"
        "    int g = (int)get_global_id(0);\n"
        "    for (int i = 0; i < 2; i++) barrier(CLK_LOCAL_MEM_FENCE);\n"
        "    out[g] = n;\n"
        "}\n"
    )
    clcdump._main([str(source), "--run", "8"])
    text = capsys.readouterr().out
    assert "# loop 1: masked (barrier)" in text
    assert "vector ops=" in text and "interp failed: barrier()" in text


# ----------------------------------------------------------------------
# perfpair: the statistics, with a stubbed benchmark runner
# ----------------------------------------------------------------------
def _stub_run(wall_s, virtual_s=0.5, correct=True):
    return {
        "correct": correct,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "virtual_s": {"value": virtual_s, "unit": "sim_s"},
        },
    }


def test_perfpair_statistics():
    from repro.tools import perfpair

    parent = [10.0, 12.0, 11.0, 13.0, 10.0]
    change = [8.0, 9.0, 11.0, 14.0, 7.0]  # 3 wins, 1 tie, 1 loss
    pairs = [(_stub_run(p), _stub_run(c)) for p, c in zip(parent, change)]
    wall, virtual = perfpair.summarise(pairs)
    assert (wall["metric"], wall["unit"]) == ("wall_s", "s")
    assert (wall["parent_median"], wall["change_median"]) == (11.0, 9.0)
    assert wall["parent_iqr"] == pytest.approx(2.0)  # inclusive quartiles 10 and 12
    assert wall["change_iqr"] == pytest.approx(3.0)  # 8 and 11
    assert wall["ratio"] == pytest.approx(9.0 / 11.0)
    assert wall["wins"] == 3 and wall["equal_per_seed"] is None
    assert virtual["equal_per_seed"] is True and virtual["wins"] == 0
    pairs[2] = (_stub_run(11.0, virtual_s=0.5), _stub_run(11.0, virtual_s=0.25))
    assert perfpair.summarise(pairs)[1]["equal_per_seed"] is False
    assert "DIFFERS PER SEED" in perfpair.format_table(perfpair.summarise(pairs), 5)


def test_perfpair_alternates_order_and_flags_incorrect_runs(capsys):
    from repro.tools import perfpair

    calls = []

    def runner(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        is_parent = root == "/parent"
        return _stub_run(10.0 if is_parent else 7.0, correct=is_parent or seed != 2)

    argv = ["--parent", "/parent", "--workload", "tenant_steady", "--pairs", "4", "--seconds", "2"]
    assert perfpair.main(argv, runner=runner) == 1  # the change's seed-2 run was incorrect
    assert [seed for _, _, seed, _ in calls] == [0, 0, 1, 1, 2, 2, 3, 3]
    assert [root == "/parent" for root, *_ in calls] == [True, False, False, True] * 2
    assert all(call[1:] == ("tenant_steady", call[2], 2.0) for call in calls)
    out, err = capsys.readouterr()
    assert "wall_s" in out and "0.700" in out and "  4/4 " in out
    assert "pair 2 change" in err
    assert perfpair.main(argv, runner=lambda *a: _stub_run(1.0)) == 0
