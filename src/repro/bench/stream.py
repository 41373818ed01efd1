"""Double-buffered streaming bench: deferred reads overlap readback
with compute (the workload the non-blocking read path exists for).

A Mandelbrot *zoom* renders :data:`STREAM_FRAMES` frames of the same
size, each a tighter viewport around a fixed point.  Two device buffers
alternate (classic double buffering): while the daemon computes frame
``i`` into one buffer, the client reads frame ``i - 1`` back out of the
other.  Three cells:

* ``pipelined`` — ``defer_reads=True`` (the default pipeline): each
  frame's readback is a non-blocking ``clEnqueueReadBuffer`` whose
  deferred fetch rides the next ``clFinish``'s window flush, so the
  transfer overlaps the *next* frame's kernel in virtual time.  The
  steady-state frame period collapses to ``max(C_i, T)`` — and the
  workload is sized compute-bound (``T < C_i`` for every steady
  frame), so the readback vanishes entirely under the kernel.
* ``serial`` — ``defer_reads=False``: the identical program, but the
  ablated driver fetches eagerly at enqueue time.  The client stalls
  for the transfer *before* the flush dispatches the next kernel, so
  every frame pays ``C_i + T`` — the serial sum the broken
  non-blocking read path used to force.
* ``compute_only`` — the same zoom with no readbacks at all: the
  per-frame kernel cost ``C_i`` the other two cells are decomposed
  against (``T`` then falls out of the serial cell as the per-frame
  surplus ``serial_i - C_i``, which must be constant — the frames are
  all the same size).

The zoom deepens per frame, so ``C_i`` *grows* through the sequence —
which is exactly why the gate (:func:`assert_stream_record`) checks the
model per frame rather than against one scalar: for every steady frame,
the pipelined period must sit within :data:`MAX_BOUND_ERROR` of the
``max(C_i, T)`` bound and the serial period within the same band of the
``C_i + T`` sum.  On top of the model fit, the pipelined cell must
spend at most :data:`MAX_PIPELINED_RATIO` of the serial cell's steady
time, every frame of both cells must be bit-identical to the host
reference, and the deferred-read counters must prove the mechanism
(``pipelined`` deferred every frame and resolved each on a flush;
``serial`` deferred none).

The cells pin ``push_transfers=False``: a daemon-initiated predictive
push would satisfy the deferred read without any fetch (that
composition has its own tests and bench), and here it would blur the
single-variable ablation — ``pipelined`` vs ``serial`` must differ in
*when the client fetches*, nothing else.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

import numpy as np

from repro.apps.mandelbrot import (
    MANDELBROT_KERNEL,
    MandelbrotConfig,
    mandelbrot_reference,
)
from repro.bench.harness import ExperimentRecord
from repro.hw.cluster import make_ib_cpu_cluster
from repro.hw.specs import GIGABIT_ETHERNET
from repro.ocl.constants import CL_MEM_WRITE_ONLY
from repro.testbed import deploy_dopencl

#: Frames in the zoom.  The first marks carry build/first-dispatch
#: noise, so the steady-state checks run over ``periods[2:]`` (see
#: :func:`steady_periods`).
STREAM_FRAMES = 12

#: Frame size and iteration ceiling.  Sized *compute-bound* on the
#: Gigabit testbed: the per-frame readback (~2.2 ms for a 192 KiB
#: frame) stays below the cheapest frame's kernel (~3 ms), so a
#: correctly overlapped pipeline hides the transfer completely while
#: the eager ablation pays it in full — the widest honest gap between
#: the two cells.
STREAM_CONFIG = MandelbrotConfig(width=256, height=192, max_iter=400)

#: Zoom target (a point on the main cardioid's boundary, so frames keep
#: real structure at every depth) and the per-frame viewport shrink.
ZOOM_CENTER = (-0.7436, 0.1318)
ZOOM_FACTOR = 0.80

#: Relative error allowed between a measured steady-state frame period
#: and its model bound (``max(C_i, T)`` pipelined, ``C_i + T`` serial).
MAX_BOUND_ERROR = 0.10

#: Ceiling on pipelined / serial steady-state time.  With the workload
#: compute-bound the true ratio is ``C / (C + T)`` ~ 0.7; this gate
#: requires the overlap to be *substantial*, not merely nonzero.
MAX_PIPELINED_RATIO = 0.85

#: Cell flags.  ``serial`` is the ablation ISSUE 10 demands: the same
#: double-buffered program under the eager-fetch driver.  Pushes are
#: off in every cell (single-variable ablation; see module docstring).
VARIANTS = {
    "pipelined": dict(defer_reads=True, push_transfers=False),
    "serial": dict(defer_reads=False, push_transfers=False),
    "compute_only": dict(defer_reads=True, push_transfers=False),
}


def frame_config(i: int, base: MandelbrotConfig = STREAM_CONFIG) -> MandelbrotConfig:
    """Viewport of zoom frame ``i``: the base frame's span shrunk by
    ``ZOOM_FACTOR ** i`` around :data:`ZOOM_CENTER` (same raster size
    and ``max_iter``, so the readback stays constant while the kernel
    deepens with the zoom)."""
    cx, cy = ZOOM_CENTER
    half_w = (base.x1 - base.x0) / 2.0 * (ZOOM_FACTOR ** i)
    half_h = (base.y1 - base.y0) / 2.0 * (ZOOM_FACTOR ** i)
    return MandelbrotConfig(
        width=base.width,
        height=base.height,
        x0=cx - half_w,
        y0=cy - half_h,
        x1=cx + half_w,
        y1=cy + half_h,
        max_iter=base.max_iter,
    )


def stream_zoom(
    cl,
    n_frames: int = STREAM_FRAMES,
    base: MandelbrotConfig = STREAM_CONFIG,
    readback: bool = True,
) -> Dict[str, object]:
    """Run the double-buffered zoom and return frames plus timing marks.

    Per frame ``i``: launch the kernel for frame ``i`` into buffer
    ``i % 2`` on the compute queue, enqueue a *non-blocking* read of
    frame ``i - 1`` from the other buffer on a dedicated read queue,
    then ``clFinish`` the compute queue.  The finish's window flush
    dispatches kernel ``i`` and (under ``defer_reads``) resolves the
    deferred fetch of frame ``i - 1`` — transfer and compute overlap.
    The read rides its own queue because an in-order queue would
    (correctly) serialise the read behind kernel ``i``; two queues is
    how real OpenCL double-buffers too.

    Returns ``{"frames": [np.ndarray], "marks": [float]}`` where
    ``marks[i]`` is the client's virtual time after frame ``i``'s
    finish — successive differences are the frame periods.
    """
    platform = cl.clGetPlatformIDs()[0]
    device = cl.clGetDeviceIDs(platform)[0]
    ctx = cl.clCreateContext([device])
    compute_q = cl.clCreateCommandQueue(ctx, device)
    read_q = cl.clCreateCommandQueue(ctx, device)
    program = cl.clCreateProgramWithSource(ctx, MANDELBROT_KERNEL)
    cl.clBuildProgram(program)
    frame_bytes = base.height * base.width * 4
    bufs = [
        cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, frame_bytes) for _ in range(2)
    ]
    outs: List[Optional[np.ndarray]] = [None] * n_frames
    read_events = {}
    marks: List[float] = []
    for i in range(n_frames):
        cfg = frame_config(i, base)
        kernel = cl.clCreateKernel(program, "mandelbrot")
        for ai, value in enumerate(
            [
                bufs[i % 2],
                cfg.width,
                cfg.height,
                0,
                1,
                np.float32(cfg.x0),
                np.float32(cfg.y0),
                np.float32(cfg.dx),
                np.float32(cfg.dy),
                cfg.max_iter,
            ]
        ):
            cl.clSetKernelArg(kernel, ai, value)
        cl.clEnqueueNDRangeKernel(compute_q, kernel, (cfg.width, cfg.height))
        if readback and i > 0:
            outs[i - 1], read_events[i - 1] = cl.clEnqueueReadBuffer(
                read_q, bufs[(i - 1) % 2], blocking=False
            )
        cl.clFinish(compute_q)
        marks.append(cl.now)
    if readback:
        outs[n_frames - 1], read_events[n_frames - 1] = cl.clEnqueueReadBuffer(
            read_q, bufs[(n_frames - 1) % 2], blocking=False
        )
        cl.clWaitForEvents([read_events[n_frames - 1]])
        # Earlier frames' fetches already resolved at the finishes; the
        # waits below are bookkeeping (and the correctness assertion
        # that every event did complete).
        cl.clWaitForEvents(list(read_events.values()))
    frames = [
        None if data is None else data.view(np.int32).reshape(base.height, base.width)
        for data in outs
    ]
    return {"frames": frames, "marks": marks}


def frame_periods(marks: List[float]) -> List[float]:
    """Successive frame periods from a run's timing marks."""
    return [b - a for a, b in zip(marks, marks[1:])]


def steady_periods(marks: List[float]) -> List[float]:
    """The steady-state tail of :func:`frame_periods` (the first two
    periods carry build/first-dispatch/pipeline-fill noise)."""
    return frame_periods(marks)[2:]


def bench_stream(
    n_frames: int = STREAM_FRAMES, base: MandelbrotConfig = STREAM_CONFIG
) -> ExperimentRecord:
    """Run the three stream cells and tabulate per-frame periods,
    makespans, and the deferred-read counters."""
    record = ExperimentRecord(
        experiment="bench_stream",
        title="Double-buffered streaming: deferred reads overlap readback with compute",
        columns=[
            "variant",
            "makespan",
            "steady_period",
            "periods",
            "round_trips",
            "bytes_received",
            "deferred_reads",
            "deferred_read_batches",
            "coalesced_reads",
        ],
        notes=(
            f"{base.width}x{base.height}/{base.max_iter}-iter Mandelbrot zoom, "
            f"{n_frames} frames, double-buffered on one Gigabit daemon; "
            f"acceptance: per steady frame, pipelined period within "
            f"{MAX_BOUND_ERROR:.0%} of max(C_i, T) and serial within "
            f"{MAX_BOUND_ERROR:.0%} of C_i + T; pipelined/serial <= "
            f"{MAX_PIPELINED_RATIO:.0%}; frames bit-identical to the host "
            "reference"
        ),
    )
    runs: Dict[str, Dict[str, object]] = {}
    for variant, flags in VARIANTS.items():
        deployment = deploy_dopencl(
            make_ib_cpu_cluster(1, link=GIGABIT_ETHERNET), **flags
        )
        result = stream_zoom(
            deployment.api, n_frames, base, readback=variant != "compute_only"
        )
        runs[variant] = result
        counters = deployment.driver.stats.snapshot()
        marks = result["marks"]
        record.add(
            variant=variant,
            makespan=marks[-1] - marks[0],
            steady_period=statistics.median(steady_periods(marks)),
            periods=frame_periods(marks),
            round_trips=counters["round_trips"],
            bytes_received=counters["bytes_received"],
            deferred_reads=counters["deferred_reads"],
            deferred_read_batches=counters["deferred_read_batches"],
            coalesced_reads=counters["coalesced_reads"],
        )
    for i in range(n_frames):
        expected = mandelbrot_reference(frame_config(i, base))
        for variant in ("pipelined", "serial"):
            if not (runs[variant]["frames"][i] == expected).all():
                raise AssertionError(
                    f"{variant} frame {i} diverged from the host reference"
                )
    return record


def assert_stream_record(record: ExperimentRecord) -> None:
    """The stream gate, shared by the tier-1 test and the benchmark
    target so the two cannot drift.

    Decomposes the measured periods against the double-buffering model,
    *per frame* (the zoom deepens, so compute grows through the run):
    ``C_i`` is the compute-only cell's period for frame ``i``, ``T``
    the median per-frame surplus of the serial cell over it.  Every
    steady pipelined period must sit at the ``max(C_i, T)`` bound
    (within :data:`MAX_BOUND_ERROR`), every steady serial period at the
    ``C_i + T`` sum — together they pin both that the overlap happens
    *and* that the ablation flag really removes it.  The counters prove
    the mechanism: the pipelined run deferred one read per frame and
    resolved each on a flush; the serial run deferred nothing.
    """
    rows = {row["variant"]: row for row in record.rows}
    pipelined, serial = rows["pipelined"], rows["serial"]
    compute = rows["compute_only"]
    c = compute["periods"]
    surpluses = [s - ci for s, ci in zip(serial["periods"][2:], c[2:])]
    t = statistics.median(surpluses)
    assert t > 0, "serial cell shows no transfer cost at all"
    steady = range(2, len(c))
    for i in steady:
        bound = max(c[i], t)
        assert abs(pipelined["periods"][i] - bound) <= MAX_BOUND_ERROR * bound, (
            f"pipelined frame {i + 1} period {pipelined['periods'][i]:.6f}s is "
            f"not the max(C_i, T) bound {bound:.6f}s (C_i={c[i]:.6f}s, "
            f"T={t:.6f}s)"
        )
        assert abs(serial["periods"][i] - (c[i] + t)) <= MAX_BOUND_ERROR * (
            c[i] + t
        ), (
            f"serial frame {i + 1} period {serial['periods'][i]:.6f}s is not "
            f"the C_i + T sum {c[i] + t:.6f}s"
        )
    pipe_total = sum(pipelined["periods"][i] for i in steady)
    serial_total = sum(serial["periods"][i] for i in steady)
    assert pipe_total <= MAX_PIPELINED_RATIO * serial_total, (
        f"pipelining saved too little: {pipe_total:.6f}s vs serial "
        f"{serial_total:.6f}s over the steady frames"
    )
    assert pipelined["makespan"] < serial["makespan"]
    # The mechanism, not just the effect: every frame's read deferred
    # and each fetch resolved on a window flush (one batch per frame);
    # the ablation really fetched eagerly (zero deferrals); the
    # compute-only cell never read at all.
    assert pipelined["deferred_reads"] == STREAM_FRAMES
    assert pipelined["deferred_read_batches"] == STREAM_FRAMES
    assert serial["deferred_reads"] == 0
    assert compute["deferred_reads"] == 0
    assert compute["bytes_received"] < serial["bytes_received"]
    # Readback moves the same frame bytes either way — deferral shifts
    # *when* the fetch happens, never how much it moves.  Both cells
    # must have pulled all 12 frames; the slack covers sub-KiB framing
    # differences (notification/response headers), never payload.
    frame_bytes = STREAM_CONFIG.height * STREAM_CONFIG.width * 4
    assert pipelined["bytes_received"] >= STREAM_FRAMES * frame_bytes
    assert serial["bytes_received"] >= STREAM_FRAMES * frame_bytes
    assert abs(pipelined["bytes_received"] - serial["bytes_received"]) < 2048


def stream_payload(record: ExperimentRecord) -> dict:
    """The headline numbers of a stream run as the flat dict committed
    to ``BENCH_stream.json`` — the ``payload`` column of
    ``repro.tools.benchdiff.SNAPSHOTS``."""
    rows = {row["variant"]: row for row in record.rows}
    c = rows["compute_only"]["periods"]
    t = statistics.median(
        s - ci for s, ci in zip(rows["serial"]["periods"][2:], c[2:])
    )
    steady = range(2, len(c))
    pipe_total = sum(rows["pipelined"]["periods"][i] for i in steady)
    serial_total = sum(rows["serial"]["periods"][i] for i in steady)
    return {
        "experiment": record.experiment,
        "n_frames": STREAM_FRAMES,
        "frame_bytes": STREAM_CONFIG.height * STREAM_CONFIG.width * 4,
        "steady_period_pipelined": rows["pipelined"]["steady_period"],
        "steady_period_serial": rows["serial"]["steady_period"],
        "steady_period_compute_only": rows["compute_only"]["steady_period"],
        "transfer_period": t,
        "makespan_pipelined": rows["pipelined"]["makespan"],
        "makespan_serial": rows["serial"]["makespan"],
        "pipelined_ratio": pipe_total / serial_total,
        "round_trips_pipelined": rows["pipelined"]["round_trips"],
        "round_trips_serial": rows["serial"]["round_trips"],
        "deferred_reads": rows["pipelined"]["deferred_reads"],
        "deferred_read_batches": rows["pipelined"]["deferred_read_batches"],
        "max_bound_error": MAX_BOUND_ERROR,
        "max_pipelined_ratio": MAX_PIPELINED_RATIO,
    }
