"""Tier-1 smoke test of the benchmark itself (a few seconds).

Runs every workload in-process at about 1/50 of its size — same code
paths, smaller ops and fewer of them — and checks what later issues rely
on: every end-to-end metric is produced under its declared name, no op
fails its oracle, the virtual-clock metrics repeat exactly, the tracer
still reaches every layer, and ``BENCHMARK.json`` restates
``metrics.py``.
"""

import json
import os
from collections import Counter

import pytest

from repro.apps.mandelbrot import MandelbrotConfig

from perf import harness, metrics, trace, workloads

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


class SmallStream(workloads.StreamZoom):
    config = MandelbrotConfig(width=64, height=48, max_iter=100)


class SmallOsem(workloads.OsemOffload):
    image_size, n_events, n_samples = 24, 2000, 24


class SmallTenants(workloads.TenantSteady):
    tenants = 8


class SmallBulk(workloads.BulkPingPong):
    nbytes = 1 << 20


SMALL = {
    "stream_zoom": SmallStream,
    "osem_offload": SmallOsem,
    "tenant_steady": SmallTenants,
    "bulk_pingpong": SmallBulk,
}


def small_run(name, tracer=None, counts=None):
    ops = max(1, metrics.op_count(name, 10) // 50)
    return harness.run_workload(SMALL[name], 7, ops, tracer, counts)


@pytest.mark.parametrize("name", metrics.WORKLOAD_NAMES)
def test_workload_reports_every_metric_and_repeats_exactly(name):
    first, second = small_run(name), small_run(name)
    assert set(first["metrics"]) | {"setup_s"} == set(metrics.END_TO_END)
    assert first["failed"] == 0 and second["failed"] == 0
    assert all(first["metrics"][key] > 0 for key in first["metrics"])
    for key in metrics.DETERMINISTIC:
        assert first["metrics"][key] == second["metrics"][key], key


def test_tracer_reaches_every_layer_and_restores_the_modules():
    from repro.net import codec

    original = codec.encode
    counts = Counter()
    tracer = trace.Tracer(taps=harness.make_taps(counts))
    tracer.install()
    try:
        result = small_run("tenant_steady", tracer, counts)
    finally:
        tracer.uninstall()
    assert codec.encode is original
    assert result["problems"] == [] and result["failed"] == 0
    assert set(result["metrics"]) | {"harness.trace_overhead"} | {
        key for key in metrics.PER_LAYER if key.startswith("iso.")
    } == set(metrics.PER_LAYER)
    assert tuple(tracer.layer_names[:-1]) == metrics.LAYER_NAMES
    # Self times partition the traced wall: every moment has one layer.
    named_ms = sum(v for k, v in result["metrics"].items() if k.endswith(".self_ms"))
    other_ms = result["metrics"]["harness.unattributed_share"] * result["wall_s"] * 1e3
    assert named_ms + other_ms == pytest.approx(result["wall_s"] * 1e3, rel=1e-6)


def test_benchmark_json_restates_the_schema():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == metrics.PER_LAYER
    assert declared["paths"] == ["benchmarks/perf"]
