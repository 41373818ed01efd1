"""Run one workload in this process and turn what happened into metrics.

Two clocks, kept apart: *host* time is what the simulator costs
(``time.perf_counter`` around each op, verification excluded); *virtual*
time and the ``NetStats`` counters are what the modelled dOpenCL costs,
and repeat exactly for a given seed and op count.

``run_workload`` returns the end-to-end metrics of an untraced run, or —
handed a :class:`~perf.trace.Tracer` — the per-layer metrics of a traced
one.  Oracles run between and after the op spans and are timed
separately as ``harness.verify_s``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.timeline import Timeline

from perf import trace

#: Layers that must record calls during the timed ops of every workload
#: (the front-end runs during set-up only and is checked through
#: ``clc_front.compiles``).
EXPECTED_LAYERS = (
    "api", "driver", "coherence", "wire", "gcf", "timeline", "daemon", "ocl", "clc_exec",
)

MAX_UNATTRIBUTED_SHARE = 0.10

_BULK_TAGS = ("bulk:", "s2s-buffer", "s2s-push")


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..1] of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def _client_totals(workload) -> Tuple[int, int]:
    round_trips = wire_bytes = 0
    for driver in workload.drivers:
        stats = driver.stats
        round_trips += stats.round_trips
        wire_bytes += stats.bytes_sent + stats.bytes_received
    return round_trips, wire_bytes


def _model_counters(workload) -> Counter:
    """What the modelled system has done so far: every ``NetStats``
    slot summed over the clients (``client.*``) and over the daemons
    (``daemon.*``), plus the virtual seconds reserved on the NIC
    transmit, daemon CPU and device timelines (``busy.*``)."""
    total: Counter = Counter()
    for side, processes in (
        ("client", [driver.stats for driver in workload.drivers]),
        ("daemon", [daemon.gcf.stats for daemon in workload.daemons]),
    ):
        for stats in processes:
            for slot, value in stats.snapshot().items():
                total[f"{side}.{slot}"] += value
    servers = [daemon.host for daemon in workload.daemons]
    total["busy.link"] = sum(h.nic.tx.busy_time() for h in workload.deployment.cluster.hosts)
    total["busy.cpu"] = sum(daemon.gcf.cpu.busy_time() for daemon in workload.daemons)
    total["busy.device"] = sum(d.timeline.busy_time() for h in servers for d in h.devices)
    return total


def make_taps(counts: Counter) -> Dict[Tuple[str, str], object]:
    """Taps for the counts no ``NetStats`` slot or call count gives."""

    def encoded(args, kwargs, result):
        counts["bytes_encoded"] += len(result)

    def merged(args, kwargs, result):
        # Every 16th merge: a popcount per call would cost a tenth of
        # the kernels it measures; the sample is as deterministic.
        counts["merges"] += 1
        if not counts["merges"] & 15:
            mask = args[0]
            counts["merge_lanes"] += mask.size
            counts["merge_active"] += int(np.count_nonzero(mask))

    def executed(args, kwargs, stats):
        counts["work_items"] += stats.work_items
        counts["charged_ops"] += stats.ops

    def transferred(args, kwargs, result):
        # Callers pass (self, src, dst, ready, nbytes) and tag= by keyword.
        tag = kwargs.get("tag")
        if isinstance(tag, str) and (tag == "stream" or tag.startswith(_BULK_TAGS)):
            counts["bulk_bytes"] += args[4]

    def planned(args, kwargs, plan):
        counts["transfers_planned"] += len(plan)

    def buffer_read(args, kwargs, result):
        counts["copy_bytes"] += result.nbytes

    def buffer_written(args, kwargs, nbytes):
        counts["copy_bytes"] += nbytes

    def host_write(args, kwargs, result):
        counts["payload_bytes"] += np.asarray(args[5]).nbytes  # (self, q, buf, blocking, offset, data)

    def host_read(args, kwargs, result):
        counts["payload_bytes"] += result[0].nbytes

    return {
        ("repro.net.codec", "encode"): encoded,
        ("repro.clc.vecrt", "merge"): merged,
        ("repro.clc.runtime", "execute_kernel"): executed,
        ("repro.net.network", "Network.transfer"): transferred,
        ("repro.core.coherence.planner", "TransferPlanner.acquire_read"): planned,
        ("repro.ocl.memory", "Buffer.read"): buffer_read,
        ("repro.ocl.memory", "Buffer.write"): buffer_written,
        ("repro.core.client.api", "DOpenCLAPI.clEnqueueWriteBuffer"): host_write,
        ("repro.core.client.api", "DOpenCLAPI.clEnqueueReadBuffer"): host_read,
    }


def run_workload(
    workload_cls,
    seed: int,
    ops: int,
    tracer: Optional[trace.Tracer] = None,
    tap_counts: Optional[Counter] = None,
) -> dict:
    """Set up one workload, time ``ops`` operations, verify, report.

    Returns ``{"ops", "failed", "setup_end", "wall_s", "op_ms_p50",
    "metrics", "info", "problems"}``: ``metrics`` holds the end-to-end
    metrics (all but ``setup_s``) when ``tracer`` is ``None`` and the
    per-layer metrics otherwise; ``info`` the ungated extras printed
    beside them; ``setup_end`` the ``perf_counter`` reading at the
    first timed op; ``problems`` what the traced run's self-checks
    found (a layer without calls, too much unattributed time).
    ``tracer`` must be installed already, with ``tap_counts`` the
    counter its taps (:func:`make_taps`) fill.
    """
    workload = workload_cls(seed)
    workload.setup()
    if tracer is not None:
        compiles = _compile_spans(tracer)
        model_before = _model_counters(workload)
        tracer.reset()  # after the snapshot: it walks wrapped timelines
        tap_counts.clear()
    trips_before, bytes_before = _client_totals(workload)
    virtual_before = workload.now()
    spans: List[float] = []
    trips_per_op: List[int] = []
    failed = set()
    verify_s = 0.0
    last_trips = trips_before
    setup_end = time.perf_counter()
    for i in range(ops):
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            workload.op(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed.add(i)
        spans.append(time.perf_counter() - start)
        if tracer is not None:
            spans[-1] = tracer.end_op() / 1e9
        start = time.perf_counter()
        trips = _client_totals(workload)[0]
        trips_per_op.append(trips - last_trips)
        last_trips = trips
        if i not in failed and not workload.check(i):
            failed.add(i)
        verify_s += time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = sum(spans)
    spans_ms = [s * 1e3 for s in spans]
    op_ms_p50 = statistics.median(spans_ms)
    problems: List[str] = []
    if tracer is not None:
        # Before anything else calls into a layer: the oracle's reads
        # and the counter walk below would be counted as traced work.
        metrics = _layer_metrics(tracer, tap_counts, wall_s)
        model = _model_counters(workload)
        model.subtract(model_before)
        metrics.update(_model_metrics(model, metrics, compiles))
        problems = _trace_problems(metrics, compiles)
    trips_after, bytes_after = _client_totals(workload)
    virtual_s = workload.now() - virtual_before
    start = time.perf_counter()
    failed.update(i for i in workload.verify() if 0 <= i < ops)
    verify_s += time.perf_counter() - start

    info = {
        "ops": ops,
        "harness.op_ms_p90": nearest_rank(spans_ms, 0.90),
        "harness.op_ms_p99": nearest_rank(spans_ms, 0.99),
        "harness.verify_s": verify_s,
        "round_trips_per_op_min": min(trips_per_op),
        "round_trips_per_op_max": max(trips_per_op),
        "virtual_s_per_op": virtual_s / ops,
        "wire_bytes_per_op": (bytes_after - bytes_before) / ops,
    }
    if tracer is None:
        metrics = {
            "wall_s": wall_s,
            "op_ms_p50": op_ms_p50,
            "peak_rss_mb": peak_rss_mb,
            "virtual_s": virtual_s,
            "virtual_op_ms_p99": nearest_rank(workload.virtual_latencies, 0.99) * 1e3,
            "round_trips": trips_after - trips_before,
            "wire_bytes": bytes_after - bytes_before,
        }
    else:
        for key in ("harness.op_ms_p90", "harness.op_ms_p99", "harness.verify_s"):
            metrics[key] = info[key]
    return {
        "ops": ops,
        "failed": len(failed),
        "setup_end": setup_end,
        "wall_s": wall_s,
        "op_ms_p50": op_ms_p50,
        "metrics": metrics,
        "info": info,
        "problems": problems,
    }


def _trace_problems(metrics: Dict[str, float], compiles: Tuple[int, float]) -> List[str]:
    """Why a traced run cannot be trusted (empty when it can)."""
    problems = [
        f"layer {layer!r} recorded no call during the timed ops"
        for layer in EXPECTED_LAYERS
        if not metrics[f"{layer}.calls"]
    ]
    if not compiles[0]:
        problems.append("layer 'clc_front' recorded no compile during set-up")
    if metrics["harness.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        problems.append(
            f"{metrics['harness.unattributed_share']:.1%} of the traced wall ran in "
            "repro modules no layer names"
        )
    return problems


def _compile_spans(tracer: trace.Tracer) -> Tuple[int, float]:
    """(count, total ms) of the ``compile_program`` spans recorded so far."""
    name = tracer.names.index("repro.clc.driver.compile_program")
    durations = [span[6] - span[5] for span in tracer.spans if span[4] == name]
    return len(durations), sum(durations) / 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(tracer: trace.Tracer, taps: Counter, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics the tracer's sums, counts and taps give."""
    layers = tracer.layer_table()
    metrics: Dict[str, float] = {}
    for layer, row in layers.items():
        if layer != trace.OTHER:
            metrics[f"{layer}.self_ms"] = row["self_ms"]
            metrics[f"{layer}.calls"] = row["calls"]
    calls = tracer.calls_of
    wall_ms = wall_s * 1e3
    allocs = calls("repro.sim.timeline", "Timeline.allocate") + calls(
        "repro.sim.timeline", "Timeline.reserve"
    )
    metrics.update({
        "wire.encodes": calls("repro.net.codec", "encode"),
        "wire.decodes": calls("repro.net.codec", "decode"),
        "wire.size_calls": calls("repro.net.codec", "encoded_size"),
        "wire.bytes_encoded": taps["bytes_encoded"],
        "gcf.bulk_bytes": taps["bulk_bytes"],
        "timeline.allocs": allocs,
        "timeline.us_per_alloc": _ratio(layers["timeline"]["self_ms"] * 1e3, allocs),
        "driver.flushes": calls("repro.core.client.driver", "DOpenCLDriver.flush_connections")
        + calls("repro.core.client.driver", "DOpenCLDriver.flush_for_handles"),
        "coherence.acquires": calls(
            "repro.core.coherence.planner", "TransferPlanner.acquire_read"
        ),
        "coherence.transfers_planned": taps["transfers_planned"],
        "ocl.enqueues": sum(
            calls("repro.ocl.queue", f"CommandQueue.enqueue_{kind}")
            for kind in (
                "write_buffer", "read_buffer", "copy_buffer", "nd_range_kernel", "marker", "barrier",
            )
        ),
        "ocl.copy_bytes": taps["copy_bytes"],
        "ocl.copies_per_payload_byte": _ratio(taps["copy_bytes"], taps["payload_bytes"]),
        "clc_exec.launches": calls("repro.clc.runtime", "execute_kernel"),
        "clc_exec.work_items": taps["work_items"],
        "clc_exec.charged_ops": taps["charged_ops"],
        "clc_exec.vecrt_calls": tracer.calls_in("repro.clc.vecrt"),
        "clc_exec.merge_calls": calls("repro.clc.vecrt", "merge"),
        "clc_exec.lane_occupancy": _ratio(taps["merge_active"], taps["merge_lanes"]),
        "clc_exec.ns_per_work_item": _ratio(
            layers["clc_exec"]["self_ms"] * 1e6, taps["work_items"]
        ),
        "harness.share": _ratio(layers[trace.HARNESS]["self_ms"], wall_ms),
        "harness.unattributed_share": _ratio(layers[trace.OTHER]["self_ms"], wall_ms),
    })
    return metrics


def _model_metrics(
    model: Counter, traced: Dict[str, float], compiles: Tuple[int, float]
) -> Dict[str, float]:
    """The per-layer metrics the modelled system's own counters give
    (``model``: :func:`_model_counters` over the timed ops)."""

    def client(slot: str) -> float:
        return model[f"client.{slot}"]

    def daemon(slot: str) -> float:
        return model[f"daemon.{slot}"]

    def everyone(slot: str) -> float:
        return client(slot) + daemon(slot)

    messages = everyone("requests") + everyone("batched_commands") + everyone("notifications")
    received = daemon("batched_commands_received")
    return {
        "wire.us_per_message": _ratio(traced["wire.self_ms"] * 1e3, messages),
        "wire.encode_cache_hit_ratio": _ratio(
            client("encode_cache_hits"), client("batched_commands")
        ),
        "wire.decode_cache_hit_ratio": _ratio(daemon("decode_cache_hits"), received),
        "wire.reply_cache_hit_ratio": _ratio(daemon("reply_cache_hits"), received),
        "gcf.batches": everyone("batches"),
        "gcf.commands_per_batch": _ratio(everyone("batched_commands"), everyone("batches")),
        "gcf.notifications": everyone("notifications"),
        "gcf.retries": everyone("retries"),
        "gcf.link_busy_virtual_s": model["busy.link"],
        "timeline.live_intervals": sum(
            len(o) for o in gc.get_objects() if isinstance(o, Timeline)
        ),
        "driver.deferred_reads": client("deferred_reads"),
        "driver.coalesced_reads": client("coalesced_reads"),
        "driver.push_commits": client("push_commits"),
        "driver.wasted_pushes": client("wasted_pushes"),
        "driver.push_hit_ratio": _ratio(
            client("push_commits"), client("push_commits") + client("wasted_pushes")
        ),
        "daemon.commands": received + everyone("requests"),
        "daemon.programs_built": daemon("programs_built"),
        "daemon.build_cache_hits": daemon("build_cache_hits"),
        "daemon.cpu_busy_virtual_s": model["busy.cpu"],
        "daemon.device_busy_virtual_s": model["busy.device"],
        "clc_front.compiles": compiles[0],
        "clc_front.ms_per_compile": _ratio(compiles[1], compiles[0]),
    }
