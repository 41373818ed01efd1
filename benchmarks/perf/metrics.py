"""The benchmark's schema: workloads, op counts, metric names and units.

Imports nothing heavy, so the parent process of ``run.py`` (which must
not warm any cache the children measure) can use it.  ``BENCHMARK.json``
at the repository root restates these tables for the driver;
``test_perf_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

WORKLOAD_NAMES = ("stream_zoom", "osem_offload", "tenant_steady", "bulk_pingpong")

#: Timed ops per requested second of run length, sized on the commit
#: that added the benchmark so that a 10 s run times about 10 s of host
#: work per workload on the 2-core reference box.  Op counts are fixed
#: work, never deadline-driven: a faster simulator finishes the same
#: ops sooner, and the virtual clock and counters stay comparable.
OPS_PER_SECOND = {
    "stream_zoom": 5.2,
    "osem_offload": 5.6,
    "tenant_steady": 25.0,
    "bulk_pingpong": 47.0,
}


def op_count(workload: str, seconds: float) -> int:
    """Timed ops for a run of ``seconds`` (at least one)."""
    return max(1, round(OPS_PER_SECOND[workload] * seconds))


#: End-to-end metric -> unit.  ``sim_s``/``sim_ms`` are seconds and
#: milliseconds on the deterministic virtual clock, named apart from
#: host ``s``/``ms`` so the two clocks cannot be confused.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MiB",
    "virtual_s": "sim_s",
    "virtual_op_ms_p99": "sim_ms",
    "round_trips": "count",
    "wire_bytes": "bytes",
}

#: The end-to-end metrics of the virtual clock: equal, to the last
#: digit, whenever seed, op count and modelled behaviour are equal.
DETERMINISTIC = ("virtual_s", "virtual_op_ms_p99", "round_trips", "wire_bytes")

#: Layers in the order a command travels (``trace.LAYERS`` maps each to
#: its modules); every one reports ``self_ms`` and ``calls``.
LAYER_NAMES = (
    "harness", "api", "driver", "coherence", "wire", "gcf", "timeline",
    "daemon", "ocl", "clc_front", "clc_exec",
)

PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in LAYER_NAMES},
    **{f"{layer}.calls": "count" for layer in LAYER_NAMES},
    "wire.encodes": "count",
    "wire.decodes": "count",
    "wire.size_calls": "count",
    "wire.bytes_encoded": "bytes",
    "wire.us_per_message": "us",
    "wire.encode_cache_hit_ratio": "ratio",
    "wire.decode_cache_hit_ratio": "ratio",
    "wire.reply_cache_hit_ratio": "ratio",
    "gcf.batches": "count",
    "gcf.commands_per_batch": "ratio",
    "gcf.notifications": "count",
    "gcf.bulk_bytes": "bytes",
    "gcf.retries": "count",
    "gcf.link_busy_virtual_s": "sim_s",
    "timeline.allocs": "count",
    "timeline.us_per_alloc": "us",
    "timeline.live_intervals": "count",
    "driver.flushes": "count",
    "driver.deferred_reads": "count",
    "driver.coalesced_reads": "count",
    "driver.push_commits": "count",
    "driver.wasted_pushes": "count",
    "driver.push_hit_ratio": "ratio",
    "coherence.acquires": "count",
    "coherence.transfers_planned": "count",
    "daemon.commands": "count",
    "daemon.programs_built": "count",
    "daemon.build_cache_hits": "count",
    "daemon.cpu_busy_virtual_s": "sim_s",
    "daemon.device_busy_virtual_s": "sim_s",
    "ocl.enqueues": "count",
    "ocl.copy_bytes": "bytes",
    "ocl.copies_per_payload_byte": "ratio",
    "clc_front.compiles": "count",
    "clc_front.ms_per_compile": "ms",
    "clc_exec.launches": "count",
    "clc_exec.work_items": "count",
    "clc_exec.charged_ops": "count",
    "clc_exec.vecrt_calls": "count",
    "clc_exec.merge_calls": "count",
    "clc_exec.lane_occupancy": "ratio",
    "clc_exec.ns_per_work_item": "ns",
    "harness.share": "ratio",
    "harness.unattributed_share": "ratio",
    "harness.trace_overhead": "ratio",
    "harness.op_ms_p90": "ms",
    "harness.op_ms_p99": "ms",
    "harness.verify_s": "s",
    "iso.wire.encode_us": "us",
    "iso.wire.decode_us": "us",
    "iso.clc_front.compile_ms.mandelbrot": "ms",
    "iso.clc_front.compile_ms.osem": "ms",
    "iso.clc_exec.ns_per_work_item.mandelbrot": "ns",
    "iso.clc_exec.ns_per_work_item.osem_forward": "ns",
    "iso.timeline.alloc_us_at_10k": "us",
}

#: Per-layer metrics where more is better (useful outcomes per attempt,
#: work amortised per round trip); for every other metric, and every
#: end-to-end one, lower is better.
HIGHER_IS_BETTER = (
    "wire.encode_cache_hit_ratio",
    "wire.decode_cache_hit_ratio",
    "wire.reply_cache_hit_ratio",
    "gcf.commands_per_batch",
    "driver.deferred_reads",
    "driver.coalesced_reads",
    "driver.push_commits",
    "driver.push_hit_ratio",
    "daemon.build_cache_hits",
    "clc_exec.lane_occupancy",
)
