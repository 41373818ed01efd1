"""Isolated layer mode: four hot layers replayed alone, no pipeline around.

Each replay feeds one layer the inputs the workloads feed it — the
messages a small ``tenant_steady`` puts on the wire, the two programs
the workloads build, ``stream_zoom``'s first viewport, one
``osem_offload`` event chunk — and times only that layer's entry point.
A change to one layer can be checked here in seconds before the long
end-to-end runs; the end-to-end metrics stay the judge.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

import numpy as np

from repro.apps.mandelbrot import MANDELBROT_KERNEL
from repro.apps.osem.kernels import OSEM_PROGRAM
from repro.bench import figures
from repro.clc.driver import compile_program
from repro.clc.runtime import execute_kernel
from repro.net.messages import Message
from repro.sim.timeline import Timeline

from perf.workloads import OsemOffload, StreamZoom, TenantSteady

#: Intervals already on the timeline when ``alloc_us_at_10k`` is timed.
TIMELINE_FILL = 10_000


def _median_seconds(fn: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class _SmallTenants(TenantSteady):
    """Four tenants are enough to see every message kind of a round."""

    tenants = 4


def captured_messages(seed: int) -> List[Message]:
    """Every message a small ``tenant_steady`` run encodes, in order."""
    captured: List[Message] = []
    original = Message.to_wire

    def recording(self):
        captured.append(self)
        return original(self)

    Message.to_wire = recording
    try:
        workload = _SmallTenants(seed)
        workload.setup()
        for i in range(3):
            workload.op(i)
    finally:
        Message.to_wire = original
    return captured


def wire_metrics(seed: int) -> Dict[str, float]:
    """Encode and decode cost per captured message."""
    messages = captured_messages(seed)
    wires = [message.to_wire() for message in messages]
    encode = _median_seconds(lambda: [m.to_wire() for m in messages], 7)
    decode = _median_seconds(lambda: [Message.from_wire(w) for w in wires], 7)
    return {
        "iso.wire.encode_us": encode / len(messages) * 1e6,
        "iso.wire.decode_us": decode / len(wires) * 1e6,
    }


def clc_metrics(seed: int) -> Dict[str, float]:
    """Front-end cost per program and execution cost per work-item."""
    metrics = {
        "iso.clc_front.compile_ms.mandelbrot": _median_seconds(
            lambda: compile_program(MANDELBROT_KERNEL), 5
        ) * 1e3,
        "iso.clc_front.compile_ms.osem": _median_seconds(
            lambda: compile_program(OSEM_PROGRAM), 5
        ) * 1e3,
    }
    cfg = StreamZoom(seed).viewport(0)
    mandelbrot = compile_program(MANDELBROT_KERNEL).kernel("mandelbrot")
    frame = np.zeros(cfg.width * cfg.height, dtype=np.int32)
    args = [
        frame, cfg.width, cfg.height, 0, 1,
        np.float32(cfg.x0), np.float32(cfg.y0), np.float32(cfg.dx), np.float32(cfg.dy),
        cfg.max_iter,
    ]
    seconds = _median_seconds(
        lambda: execute_kernel(mandelbrot, (cfg.width, cfg.height), args), 3
    )
    metrics["iso.clc_exec.ns_per_work_item.mandelbrot"] = seconds / frame.size * 1e9

    osem = OsemOffload(seed)
    chunk = osem.events.subset(0, figures.OSEM_SUBSETS).chunk(0, 4)  # one GPU's share
    forward = compile_program(OSEM_PROGRAM).kernel("forward_project")
    n = osem.image_size
    lanes = ((chunk.count + 63) // 64) * 64
    args = [
        chunk.x1, chunk.y1, chunk.x2, chunk.y2,
        np.ones(n * n, dtype=np.float32), np.zeros(chunk.count, dtype=np.float32),
        chunk.count, n, osem.n_samples,
    ]
    seconds = _median_seconds(lambda: execute_kernel(forward, (lanes,), args), 9)
    metrics["iso.clc_exec.ns_per_work_item.osem_forward"] = seconds / lanes * 1e9
    return metrics


def timeline_metrics(seed: int) -> Dict[str, float]:
    """First-fit allocation cost on a timeline already holding
    :data:`TIMELINE_FILL` intervals: half the requests arrive at the
    end (an in-order device queue), half at a seed-drawn earlier time
    and must walk to a gap (a tenant whose clock lags the others)."""
    rng = np.random.default_rng(seed)
    timeline = Timeline("iso")
    for i in range(TIMELINE_FILL):
        timeline.allocate(i * 1.0, 0.75)
    early = rng.uniform(0.0, TIMELINE_FILL, size=1000)

    def allocate() -> None:
        for ready in early:
            timeline.allocate(timeline.busy_until, 0.75)
            timeline.allocate(float(ready), 0.2)

    start = time.perf_counter()
    allocate()
    seconds = time.perf_counter() - start
    return {"iso.timeline.alloc_us_at_10k": seconds / (2 * len(early)) * 1e6}


def isolated_metrics(seed: int) -> Dict[str, float]:
    """All ``iso.*`` metrics."""
    return {**wire_metrics(seed), **clc_metrics(seed), **timeline_metrics(seed)}
