"""Fast perf smoke: round-trip and wire-byte counters on a mini Fig. 4.

Runs the unmodified Mandelbrot application twice through dOpenCL on a
reduced workload that completes in tier-1 time budget:

* ``sync`` — the paper's synchronous reference path (``batch_window=0``):
  one round trip per forwarded call, synchronous creation fan-outs,
  builds and relays, one stream per transfer;
* ``batched`` — the full pipeline (fully deferred creation calls /
  handle promises, dependency-tracked windows with prefix flushing,
  deferred relays, window-aware transfer coalescing, encode cache).

The workload runs on :data:`SMOKE_DEVICES` servers.  No command waits
on another server's event, so the pipeline creates no user-event
replica and relays no completion (the reference path replicates every
event on the ``SMOKE_DEVICES - 1`` other servers and relays to each).

A second, *gathered* mini Fig. 4 then exercises the transfer directions
the plain workload never hits (:func:`render_gathered`): every device
renders two row-interleaved half tiles and a final gather kernel on the
first server composes the image on-device, so validating the gather's
remote tile arguments moves **two buffers per (remote daemon, target)
pair** in one launch.  Under MSI that is two coherence *downloads* per
source daemon (fused into one ``CoalescedBufferDownload`` fetch each);
under MOSI it is two *server-to-server hops* per daemon pair (fused
into one ``BufferPeerTransferBatch`` round trip each).  The gate
requires the fused machinery to fire per protocol and the identical
image; the round-trip floors are exact-gated by
``repro.tools.benchdiff`` against ``BENCH_smoke.json``.

A third, *readback* mini Fig. 4 (:func:`render_readback`) exercises the
result-gather tail: the same tiles are composed on the **client**, each
queue is ``clFlush``-ed (submission barriers ride the windows — zero
round trips), and the client reads every tile back to back.  The two
finished tiles per daemon fuse onto one ``CoalescedBufferDownload``
fetch, so the readback costs one round trip per daemon instead of one
per buffer.

The counters are the regression tripwire: the batched run must cut at
least :data:`MIN_ROUND_TRIP_REDUCTION` of the synchronous run's round
trips, stay at or below the :data:`MAX_BATCHED_ROUND_TRIPS` absolute
ceiling (creation calls may no longer force synchronous fan-outs), with
no more wire bytes and the identical image.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.mandelbrot import MANDELBROT_KERNEL, MandelbrotConfig, render_dopencl
from repro.bench.harness import ExperimentRecord
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl.constants import CL_MEM_WRITE_ONLY
from repro.testbed import deploy_dopencl

#: Tiny stand-in for the Fig. 4 workload (same call pattern, ~1000x less
#: compute) so the smoke target stays inside the tier-1 time budget.
SMOKE_CONFIG = MandelbrotConfig(width=96, height=64, max_iter=24)
SMOKE_DEVICES = 4

#: Acceptance floor: batching must remove at least this fraction of the
#: synchronous run's round trips.
MIN_ROUND_TRIP_REDUCTION = 0.40

#: Absolute ceiling on the batched variant's round trips (PR 3): with
#: creation calls fully deferred the mini Fig. 4 must stay at or below
#: this — the pre-deferral pipeline needed 68.
MAX_BATCHED_ROUND_TRIPS = 48

#: Deployment flags per benchmark variant (see module docstring):
#: ``sync`` is the reference path (one synchronous build round trip per
#: server), ``batched`` the full current pipeline.
VARIANTS = {
    "sync": dict(batch_window=0),
    "batched": {},
}

#: The gathered-workload variants: the same mini Fig. 4 composed
#: on-device (see :func:`render_gathered`), per coherence protocol.
GATHER_VARIANTS = {
    "gather": dict(coherence_protocol="msi"),
    "mosi": dict(coherence_protocol="mosi"),
}

#: The gathered-*readback* variants: the mini Fig. 4 composed on the
#: **client** (see :func:`render_readback`) — every device renders two
#: row-interleaved tiles, each queue is ``clFlush``-ed (submission
#: barriers ride the windows), and the client reads all tiles back to
#: back — per coherence protocol.
READBACK_VARIANTS = {
    "readback": dict(coherence_protocol="msi"),
    "readback_mosi": dict(coherence_protocol="mosi"),
}


def gather_kernel_source(n_tiles: int) -> str:
    """OpenCL C for a gather kernel composing ``n_tiles`` row-interleaved
    tile buffers into one full image buffer (tile ``j`` holds rows
    ``j, j + n_tiles, j + 2*n_tiles, ...``)."""
    args = ", ".join(f"__global const int *t{j}" for j in range(n_tiles))
    picks = "\n".join(
        f"    if (tile == {j}) v = t{j}[local_row * width + gx];"
        for j in range(n_tiles)
    )
    return f"""
__kernel void gather(__global int *out, {args},
                     const int width, const int height, const int n_tiles)
{{
    int gx = (int)get_global_id(0);
    int gy = (int)get_global_id(1);
    if (gx >= width || gy >= height) return;
    int tile = gy % n_tiles;
    int local_row = gy / n_tiles;
    int v = 0;
{picks}
    out[gy * width + gx] = v;
}}
"""


def render_gathered(cl, config: MandelbrotConfig) -> np.ndarray:
    """The mini Fig. 4 with on-device composition: each device renders
    *two* row-interleaved half tiles, then one gather kernel on the
    first server's device assembles the full image on-device and the
    client reads only the composed buffer.

    The shape is what exercises transfer coalescing: the gather launch
    needs every remote tile valid on its server, and with two tiles per
    remote daemon the coherence plans move two buffers along each
    (source daemon, target) pair between the same two sync points —
    MSI fuses the per-source downloads, MOSI the per-pair
    server-to-server hops."""
    platform = cl.clGetPlatformIDs()[0]
    devices = cl.clGetDeviceIDs(platform)
    ctx = cl.clCreateContext(devices)
    queues = [cl.clCreateCommandQueue(ctx, d) for d in devices]
    n_tiles = 2 * len(devices)
    program = cl.clCreateProgramWithSource(
        ctx, MANDELBROT_KERNEL + gather_kernel_source(n_tiles)
    )
    cl.clBuildProgram(program)
    tiles = []
    for j in range(n_tiles):
        rows = np.arange(j, config.height, n_tiles)
        buf = cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, int(rows.size) * config.width * 4)
        kernel = cl.clCreateKernel(program, "mandelbrot")
        for i, value in enumerate(
            [
                buf,
                config.width,
                config.height,
                j,
                n_tiles,
                np.float32(config.x0),
                np.float32(config.y0),
                np.float32(config.dx),
                np.float32(config.dy),
                config.max_iter,
            ]
        ):
            cl.clSetKernelArg(kernel, i, value)
        cl.clEnqueueNDRangeKernel(queues[j % len(devices)], kernel, (config.width, int(rows.size)))
        tiles.append(buf)
    out = cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, config.height * config.width * 4)
    gather = cl.clCreateKernel(program, "gather")
    for i, value in enumerate([out, *tiles, config.width, config.height, n_tiles]):
        cl.clSetKernelArg(gather, i, value)
    cl.clEnqueueNDRangeKernel(queues[0], gather, (config.width, config.height))
    cl.clFinish(queues[0])
    data, _ = cl.clEnqueueReadBuffer(queues[0], out)
    return data.view(np.int32).reshape(config.height, config.width)


def render_readback(cl, config: MandelbrotConfig) -> np.ndarray:
    """The mini Fig. 4 with **client-side** composition — the readback
    mirror of :func:`render_gathered`: each device renders two
    row-interleaved tiles, every queue is ``clFlush``-ed (the submission
    barriers ride the send windows, costing no round trips), and after
    one ``clFinish`` the client reads *every tile back to back* and
    composes the image on the host.

    The back-to-back blocking reads are what exercises read
    coalescing: with two finished tiles per daemon, the first read of a
    daemon's tile gang-revalidates the second onto the same
    ``CoalescedBufferDownload`` fetch, so the readback tail costs one
    round trip per daemon instead of one per buffer — the HDArray-style
    per-node result gather."""
    platform = cl.clGetPlatformIDs()[0]
    devices = cl.clGetDeviceIDs(platform)
    ctx = cl.clCreateContext(devices)
    queues = [cl.clCreateCommandQueue(ctx, d) for d in devices]
    n_tiles = 2 * len(devices)
    program = cl.clCreateProgramWithSource(ctx, MANDELBROT_KERNEL)
    cl.clBuildProgram(program)
    tiles, tile_rows = [], []
    for j in range(n_tiles):
        rows = np.arange(j, config.height, n_tiles)
        buf = cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, int(rows.size) * config.width * 4)
        kernel = cl.clCreateKernel(program, "mandelbrot")
        for i, value in enumerate(
            [
                buf,
                config.width,
                config.height,
                j,
                n_tiles,
                np.float32(config.x0),
                np.float32(config.y0),
                np.float32(config.dx),
                np.float32(config.dy),
                config.max_iter,
            ]
        ):
            cl.clSetKernelArg(kernel, i, value)
        cl.clEnqueueNDRangeKernel(queues[j % len(devices)], kernel, (config.width, int(rows.size)))
        tiles.append(buf)
        tile_rows.append(rows)
    for queue in queues:
        cl.clFlush(queue)  # submission barriers; no dispatch, no round trip
    cl.clFinish(queues[0])
    image = np.zeros((config.height, config.width), dtype=np.int32)
    for buf, rows in zip(tiles, tile_rows):
        data, _ = cl.clEnqueueReadBuffer(queues[0], buf)
        image[rows] = data.view(np.int32).reshape(rows.size, config.width)
    return image


def bench_smoke(n_devices: int = SMOKE_DEVICES, config: MandelbrotConfig = SMOKE_CONFIG) -> ExperimentRecord:
    """Run the mini Fig. 4 workload sync vs fully batched, plus the
    gathered and readback workloads per coherence protocol.

    Row per variant: the client driver's round-trip/batch/byte counters,
    the virtual-time total, the reduction ratios against the sync
    baseline, and the pipeline counters (deferred/suppressed relays,
    encode-cache hits, coalesced transfers per direction).
    """
    record = ExperimentRecord(
        experiment="bench_smoke",
        title="Call-forwarding smoke: sync vs batched round trips (mini Fig. 4)",
        columns=[
            "variant",
            "round_trips",
            "batches",
            "batched_commands",
            "bytes_sent",
            "bytes_received",
            "total_time",
            "rt_reduction",
            "byte_reduction",
            "relays_deferred",
            "relays_suppressed",
            "encode_cache_hits",
            "coalesced_downloads",
            "coalesced_peer_transfers",
            "coalesced_reads",
            "coalesced_read_sections",
            "flush_barriers",
            "prefix_flushes",
        ],
        notes=(
            f"{config.width}x{config.height}/{config.max_iter}-iter Mandelbrot on "
            f"{n_devices} servers (no command waits on another server's event); "
            f"acceptance: >= {MIN_ROUND_TRIP_REDUCTION:.0%} fewer round trips than sync, "
            "bytes no worse, image identical; gathered MSI/MOSI variants must fuse "
            "downloads / peer transfers, readback variants must fuse result reads"
        ),
    )
    images = {}
    counters: Dict[str, Dict[str, int]] = {}
    totals: Dict[str, float] = {}
    census = {}
    for variant, flags in VARIANTS.items():
        deployment = deploy_dopencl(make_ib_cpu_cluster(n_devices), **flags)
        result = render_dopencl(deployment.api, config)
        images[variant] = result.image
        counters[variant] = deployment.driver.stats.snapshot()
        totals[variant] = result.timings.total
        census[variant] = dict(deployment.census(), sent=dict(deployment.driver.stats.commands))
    for variant, flags in GATHER_VARIANTS.items():
        deployment = deploy_dopencl(make_ib_cpu_cluster(n_devices), **flags)
        images[variant] = render_gathered(deployment.api, config)
        counters[variant] = deployment.driver.stats.snapshot()
        totals[variant] = deployment.api.now
    for variant, flags in READBACK_VARIANTS.items():
        deployment = deploy_dopencl(make_ib_cpu_cluster(n_devices), **flags)
        images[variant] = render_readback(deployment.api, config)
        counters[variant] = deployment.driver.stats.snapshot()
        totals[variant] = deployment.api.now
    sync = counters["sync"]
    for variant in [*VARIANTS, *GATHER_VARIANTS, *READBACK_VARIANTS]:
        c = counters[variant]
        plain = variant in VARIANTS
        record.add(
            variant=variant,
            round_trips=c["round_trips"],
            batches=c["batches"],
            batched_commands=c["batched_commands"],
            bytes_sent=c["bytes_sent"],
            bytes_received=c["bytes_received"],
            total_time=totals[variant],
            rt_reduction=(
                1.0 - c["round_trips"] / sync["round_trips"]
                if plain and variant != "sync"
                else 0.0
            ),
            byte_reduction=(
                1.0 - c["bytes_sent"] / sync["bytes_sent"]
                if plain and variant != "sync"
                else 0.0
            ),
            relays_deferred=c["relays_deferred"],
            relays_suppressed=c["relays_suppressed"],
            encode_cache_hits=c["encode_cache_hits"],
            coalesced_downloads=c["coalesced_downloads"],
            coalesced_peer_transfers=c["coalesced_peer_transfers"],
            coalesced_reads=c["coalesced_reads"],
            coalesced_read_sections=c["coalesced_read_sections"],
            flush_barriers=c["flush_barriers"],
            prefix_flushes=c["prefix_flushes"],
            **census.get(variant, {}),
        )
    for variant in ("batched", *GATHER_VARIANTS, *READBACK_VARIANTS):
        if not (images["sync"] == images[variant]).all():
            raise AssertionError(f"{variant} forwarding changed the rendered image")
    return record


def assert_smoke_record(record: ExperimentRecord) -> None:
    """The smoke gate, shared by the tier-1 test and the benchmark
    target so the two cannot drift.

    The full pipeline must cut >= 40% of the synchronous run's round
    trips and stay at or below the absolute
    :data:`MAX_BATCHED_ROUND_TRIPS` ceiling, genuinely coalesce
    commands, exercise the relay-deferral and encode-cache paths, cost no
    extra wire bytes, and cost no virtual time beyond the deferred
    launch hand-off.  The gathered variants must show the right
    coalescing machinery firing per protocol (MSI: fused downloads;
    MOSI: fused server-to-server batches); the readback variants must
    fuse result reads per protocol, with ``clFlush`` submission
    barriers recorded.  (The exact round-trip floors of these variants
    are gated by ``repro.tools.benchdiff``.)"""
    rows = {row["variant"]: row for row in record.rows}
    sync, batched = rows["sync"], rows["batched"]
    assert sync["batches"] == 0  # the baseline ran genuinely unbatched
    assert sync["relays_deferred"] == 0
    assert batched["round_trips"] <= (1 - MIN_ROUND_TRIP_REDUCTION) * sync["round_trips"]
    # PR 3: creation calls no longer force synchronous fan-outs.
    assert batched["round_trips"] <= MAX_BATCHED_ROUND_TRIPS
    assert batched["batches"] > 0
    assert batched["batched_commands"] / batched["batches"] > 2.0
    # Replicated commands were encoded once, and a completion is relayed
    # only to a replica some command waited on: no server of the mini
    # Fig. 4 waits on another's event, so every relay was skipped.
    assert batched["relays_deferred"] == 0
    assert batched["relays_suppressed"] > 0
    assert batched["encode_cache_hits"] > 0
    assert batched["bytes_sent"] <= sync["bytes_sent"]
    assert batched["bytes_received"] <= sync["bytes_received"]
    assert batched["total_time"] <= sync["total_time"] * 1.001
    # The right machinery fired per protocol — MSI's client-mediated
    # revalidations fuse into merged downloads, MOSI's direct exchanges
    # into peer-transfer batches.
    assert rows["gather"]["coalesced_downloads"] > 0
    assert rows["mosi"]["coalesced_peer_transfers"] > 0
    # The readback variants: result reads fuse under both protocols,
    # and clFlush rode the windows as recorded barriers.
    for key in READBACK_VARIANTS:
        assert rows[key]["coalesced_reads"] > 0
        assert rows[key]["flush_barriers"] > 0


def smoke_payload(record: ExperimentRecord) -> dict:
    """The headline counters of a smoke run as the flat dict committed
    to ``BENCH_smoke.json`` — the ``payload`` column of
    ``repro.tools.benchdiff.SNAPSHOTS``, so the recorded snapshot and
    the comparison can never drift apart."""
    rows = {row["variant"]: row for row in record.rows}
    objects = rows["batched"]["objects"]
    return {
        "experiment": record.experiment,
        "n_servers": SMOKE_DEVICES,
        "round_trips_sync": rows["sync"]["round_trips"],
        "round_trips_batched": rows["batched"]["round_trips"],
        "rt_reduction": rows["batched"]["rt_reduction"],
        "bytes_sent_sync": rows["sync"]["bytes_sent"],
        "bytes_sent_batched": rows["batched"]["bytes_sent"],
        "byte_reduction": rows["batched"]["byte_reduction"],
        "relays_deferred": rows["batched"]["relays_deferred"],
        "relays_suppressed": rows["batched"]["relays_suppressed"],
        "round_trips_gather": rows["gather"]["round_trips"],
        "round_trips_mosi": rows["mosi"]["round_trips"],
        "round_trips_readback": rows["readback"]["round_trips"],
        "round_trips_readback_mosi": rows["readback_mosi"]["round_trips"],
        "coalesced_downloads": rows["gather"]["coalesced_downloads"],
        "coalesced_peer_transfers": rows["mosi"]["coalesced_peer_transfers"],
        "coalesced_reads": rows["readback"]["coalesced_reads"],
        "coalesced_read_sections": rows["readback"]["coalesced_read_sections"],
        "flush_barriers": rows["readback"]["flush_barriers"],
        "batched_commands_batched": rows["batched"]["batched_commands"],
        "buffers_created_batched": objects.get("Buffer", [0, 0])[0],
        "replicas_created_batched": objects.get("UserEvent", [0, 0])[0],
        "commands_batched": {
            name: count for name, (count, _nbytes) in sorted(rows["batched"]["sent"].items())
        },
        "objects_batched": dict(sorted(objects.items())),
        "min_rt_reduction": MIN_ROUND_TRIP_REDUCTION,
        "max_batched_round_trips": MAX_BATCHED_ROUND_TRIPS,
    }
