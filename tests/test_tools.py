"""Operator-tool tests: clinfo (all three API flavours) and cachestat."""

import numpy as np
import pytest

from repro.hw import GPU_SERVER, Host
from repro.hw.cluster import make_desktop_and_gpu_server, make_ib_cpu_cluster
from repro.ocl import CL_MEM_READ_WRITE, ICDLoader, NativeAPI
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


def test_cachestat_cli_builds_on_two_servers_and_prints_both(capsys):
    from repro.tools import cachestat

    cachestat._main()
    text = capsys.readouterr().out
    assert text.count("Daemon ") == 2 and text.count("binary") == 2
    assert "compiled=1" in text and "binaries_shipped=1" in text


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


def test_cachestat_prints_one_timeline_line_per_host(monkeypatch):
    from repro.sim import timeline

    monkeypatch.setattr(timeline, "PRUNE_AT", 0)  # prune at every allocation
    deployment = deploy_dopencl(make_ib_cpu_cluster(2, n_clients=2), n_clients=2)
    for api in deployment.apis:
        _build_on(api, _GOOD_SOURCE)
    lines = [line for line in cachestat_text(deployment).splitlines() if line.startswith("Timelines ")]
    by_host = deployment.timelines()
    assert len(lines) == len(by_host) == len(deployment.cluster.hosts)
    for line, (host, timelines) in zip(lines, by_host.items()):
        live = sum(len(tl) for tl in timelines)
        pruned = sum(tl.pruned for tl in timelines)
        horizon = max(tl.horizon for tl in timelines)
        assert line == f"Timelines {host}: live={live} horizon={horizon:.6f}s pruned={pruned}"
    assert sum(tl.pruned for tls in by_host.values() for tl in tls) > 0
    # A deployment nothing pruned on says so.
    idle = cachestat_text(deploy_dopencl(make_ib_cpu_cluster(1)))
    assert "live=0 horizon=none pruned=0" in idle


def test_clcdump_prints_decisions_and_run_report(capsys):
    from repro.clc import vecrt
    from repro.tools import clcdump

    merge, compact = vecrt.merge, vecrt.compact
    clcdump._main(["--app", "mandelbrot", "--run", "96"])
    text = capsys.readouterr().out
    assert "# merge elided: zr_" in text and "# merge in place: iter_" in text
    assert "# loop 2: compactable" in text and "# lanes retired: if 1 returns them for good" in text
    report = text[text.index("run: kernel 'mandelbrot', 96 work-items"):]
    assert "vector ops=" in report and "interp ops=" in report
    assert "merges executed=0" in report and "compactions fired=0" in report
    assert "lanes retired=0" in report  # every pixel of the row is inside the image
    assert "buffers identical on both backends: yes" in report
    assert (vecrt.merge, vecrt.compact) == (merge, compact)  # counters removed again


def test_clcdump_prints_each_kernels_access_summaries(capsys):
    from repro.tools import clcdump

    clcdump._main(["--app", "osem"])
    text = capsys.readouterr().out
    assert "#   forward_project.x1: read 4·[gid0]; write -" in text
    assert "#   back_project.corr: read whole; write whole" in text
    assert "#   update.image: read 4·[gid0]; write 4·[gid0]; covers its buffer" in text


def test_cachestat_prints_each_buffers_segment_count():
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), coherence_protocol="mosi")
    cl = deployment.api
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:2]
    ctx = cl.clCreateContext(devices)
    queues = [cl.clCreateCommandQueue(ctx, d) for d in devices]
    program = cl.clCreateProgramWithSource(
        ctx, "__kernel void t(__global int *x) { int i = (int)get_global_id(0); x[i] = x[i] + 1; }"
    )
    cl.clBuildProgram(program)
    whole, split = (cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1024) for _ in range(2))
    kernel = cl.clCreateKernel(program, "t")
    cl.clSetKernelArg(kernel, 0, split)
    cl.clEnqueueWriteBuffer(queues[0], split, True, 0, np.zeros(256, np.int32))
    cl.clEnqueueNDRangeKernel(queues[1], kernel, (16,))
    cl.clFinish(queues[1])
    assert f"  segments: #{whole.id}=1 #{split.id}=2" in cachestat_text(deployment)


def test_cachestat_prints_a_client_copy_held_in_pieces():
    """A read assembled from two daemons keeps their sections as two
    pieces of the client copy: a ``pieces:`` line beside ``segments:``,
    naming only copies held in more than one piece, and the client's
    ``storage:`` line counting the copy as lent."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), coherence_protocol="mosi")
    cl = deployment.api
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:2]
    ctx = cl.clCreateContext(devices)
    queues = [cl.clCreateCommandQueue(ctx, d) for d in devices]
    program = cl.clCreateProgramWithSource(
        ctx, "__kernel void t(__global int *x) { int i = (int)get_global_id(0); x[i] = x[i] + 1; }"
    )
    cl.clBuildProgram(program)
    whole, split = (cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 1024) for _ in range(2))
    kernel = cl.clCreateKernel(program, "t")
    cl.clSetKernelArg(kernel, 0, split)
    for buffer in (whole, split):
        cl.clEnqueueWriteBuffer(queues[0], buffer, True, 0, np.arange(256, dtype=np.int32))
    cl.clEnqueueNDRangeKernel(queues[1], kernel, (16,))
    assert "pieces:" not in cachestat_text(deployment)
    for buffer in (whole, split):
        cl.clEnqueueReadBuffer(queues[1], buffer)
    lines = cachestat_text(deployment).splitlines()
    at = lines.index(f"  segments: #{whole.id}=1 #{split.id}=2")
    assert lines[at - 1] == "  storage: lent=2 cow_copies=0"
    assert lines[at + 1] == f"  pieces: #{split.id}=2"


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

    # The verdicts, against the bounds BENCHMARK.json declares (0.25 for
    # wall_s, lower is better); a metric it does not bound gets none.
    bounds = perfpair.read_bounds()
    assert bounds["wall_s"] == (0.25, "lower") and bounds["virtual_s"] == (0.02, "lower")
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]  # median 10.05, IQR 0.2

    def verdict(change, parent=parent, metric="wall_s"):
        rows = perfpair.summarise([(_stub_run(p), _stub_run(c)) for p, c in zip(parent, change)], bounds)
        return {row["metric"]: row["verdict"] for row in rows}[metric]

    assert verdict([8.0] * 9 + [10.5]) == "gain"  # 9 of 10 won, medians 2.05 apart
    assert verdict([8.0] * 8 + [10.5] * 2) == "same"  # only 8 of 10 won
    assert verdict([9.95] * 10) == "same"  # every pair won, but within the parent's IQR
    assert verdict([13.0] * 10) == "worse"  # 29 % above the parent's median
    assert verdict([12.0] * 10) == "same"  # 19 %: within the bound
    wide = [6.0, 14.0, 7.0, 13.0, 10.0, 10.0, 6.5, 13.5, 10.0, 10.0]  # IQR 4.5 > 0.25 x 10
    assert verdict([9.0] * 9 + [15.0], parent=wide) == "unresolved"
    assert verdict([5.9] * 10, parent=wide) == "same"  # every run better, yet not by the IQR
    assert verdict([0.5] * 10, metric="virtual_s") == "same"  # equal per seed
    assert perfpair.summarise(pairs, bounds={})[0]["verdict"] is None
    assert "gain" in perfpair.format_table(
        perfpair.summarise([(_stub_run(p), _stub_run(8.0)) for p in parent], bounds), 10
    )


def test_perfpair_warns_when_bytecode_is_not_cached(monkeypatch, capsys):
    from repro.tools import perfpair

    argv = ["--parent", "/parent", "--workload", "tenant_steady", "--pairs", "1"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    perfpair.main(argv, runner=lambda *a: _stub_run(1.0))
    assert "PYTHONDONTWRITEBYTECODE is set" in capsys.readouterr().err
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    perfpair.main(argv, runner=lambda *a: _stub_run(1.0))
    assert "PYTHONDONTWRITEBYTECODE" not in capsys.readouterr().err


def _stub_root(tmp_path, body):
    """A checkout whose ``benchmarks/perf/run.py`` is ``body``."""
    script = tmp_path / "benchmarks" / "perf" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text(body)
    return str(tmp_path)


def test_perfpair_runs_a_checkouts_benchmark_and_reads_its_last_line(tmp_path):
    from repro.tools import perfpair

    root = _stub_root(
        tmp_path,
        "import json, sys\n"
        "print('warming up')\n"
        "print(json.dumps({'correct': True, 'argv': sys.argv[1:], 'metrics': {}}))\n",
    )
    run = perfpair.run_benchmark(root, "stream_zoom", 3, 0.5)
    assert run == {
        "correct": True,
        "metrics": {},
        "argv": ["--workload", "stream_zoom", "--seed", "3", "--seconds", "0.5"],
    }


def test_perfpair_stops_when_a_run_prints_no_result(tmp_path):
    from repro.tools import perfpair

    root = _stub_root(tmp_path, "import sys\nprint('crashed before the result')\nsys.exit(3)\n")
    with pytest.raises(SystemExit) as stop:
        perfpair.run_benchmark(root, "tenant_steady", 0, 1.0)
    assert "printed no result (exit code 3)" in str(stop.value)


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
