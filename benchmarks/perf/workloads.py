"""The four benchmark workloads: fixed work, closed loop, one client process.

Every workload is a class with the same small surface, driven by
``harness.run_workload``:

* ``__init__(seed)`` draws the inputs from the seed (the program under
  test only ever sees the generated inputs);
* ``setup()`` deploys, builds, allocates and runs the warm-up ops;
* ``op(i)`` is one timed operation (the harness clocks it);
* ``check(i)`` runs between two op spans, outside both clocks;
* ``verify()`` compares outputs with an independent oracle after the
  last op and returns the indices of the ops that mismatched;
* ``apis`` / ``drivers`` / ``daemons`` expose the deployment so the
  harness can read the virtual clocks and ``NetStats`` counters.

Op *sizes* are constants of this file; only op *counts* scale with the
requested run length (``metrics.OPS_PER_SECOND``).  Why each workload exists
is recorded in ``README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.apps.mandelbrot import MANDELBROT_KERNEL, MandelbrotConfig, mandelbrot_reference
from repro.apps.osem import ListModeOSEM, disk_phantom, generate_events
from repro.bench import figures
from repro.bench.multiclient import MULTI_SOURCE
from repro.bench.stream import STREAM_CONFIG, ZOOM_FACTOR
from repro.hw.cluster import (
    make_desktop_and_gpu_server,
    make_ib_cpu_cluster,
    make_multi_client_gpu_server,
)
from repro.hw.specs import GIGABIT_ETHERNET
from repro.ocl.constants import CL_DEVICE_TYPE_GPU, CL_MEM_READ_WRITE, CL_MEM_WRITE_ONLY
from repro.testbed import deploy_dopencl, native_api_on


class Workload:
    """Common surface of the four workloads (see module docstring)."""

    #: Ops run (untimed) at the end of ``setup`` so caches fill and lazy
    #: set-up finishes before the first timed op.
    warmup_ops = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.deployment = None
        #: Per-op virtual latency samples in seconds (filled by ``op``).
        self.virtual_latencies: List[float] = []

    @property
    def apis(self):
        """Client API objects, one per tenant."""
        return self.deployment.apis

    @property
    def drivers(self):
        """Client drivers, one per tenant."""
        return self.deployment.drivers

    @property
    def daemons(self):
        """Every daemon of the deployment."""
        return self.deployment.daemons

    def now(self) -> float:
        """The furthest client virtual clock (the run's makespan so far)."""
        return max(api.now for api in self.apis)

    def setup(self) -> None:
        """Deploy, build, allocate, warm up."""
        raise NotImplementedError

    def op(self, i: int) -> None:
        """One timed operation."""
        raise NotImplementedError

    def check(self, i: int) -> bool:
        """Oracle check between op spans; ``False`` marks op ``i`` failed."""
        return True

    def verify(self) -> Sequence[int]:
        """Oracle check after the run; returns the failed op indices."""
        return ()


# ----------------------------------------------------------------------
# stream_zoom
# ----------------------------------------------------------------------
#: Zoom depths cycled through (``i % ZOOM_DEPTHS``), so float32 viewports
#: stay meaningful however many frames a run renders.
ZOOM_DEPTHS = 12

#: The seed moves the zoom target by at most this much around the
#: cardioid-boundary point ``bench/stream.py`` uses; small against the
#: deepest viewport (half-width 0.13), so every frame keeps pixels that
#: reach ``max_iter`` and the divergent loop always runs to the end.
ZOOM_CENTER = (-0.7436, 0.1318)
ZOOM_JITTER = 1e-3


class StreamZoom(Workload):
    """Double-buffered Mandelbrot zoom on one GigE daemon; op = one frame.

    The pipelined cell of ``repro.bench.stream``: frame ``i``'s kernel
    runs on the compute queue while frame ``i - 1``'s deferred
    non-blocking read rides the same ``clFinish`` flush on a second
    queue.
    """

    warmup_ops = 2
    config = STREAM_CONFIG

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        jx, jy = rng.uniform(-ZOOM_JITTER, ZOOM_JITTER, size=2)
        self.center = (ZOOM_CENTER[0] + float(jx), ZOOM_CENTER[1] + float(jy))
        self.frame = 0
        self.outs: List[np.ndarray] = []
        self.depths: List[int] = []

    def viewport(self, depth: int) -> MandelbrotConfig:
        """The viewport at one zoom depth around this run's centre."""
        base = self.config
        cx, cy = self.center
        half_w = (base.x1 - base.x0) / 2.0 * (ZOOM_FACTOR ** depth)
        half_h = (base.y1 - base.y0) / 2.0 * (ZOOM_FACTOR ** depth)
        return MandelbrotConfig(
            width=base.width,
            height=base.height,
            x0=cx - half_w,
            y0=cy - half_h,
            x1=cx + half_w,
            y1=cy + half_h,
            max_iter=base.max_iter,
        )

    def setup(self) -> None:
        self.deployment = deploy_dopencl(
            make_ib_cpu_cluster(1, link=GIGABIT_ETHERNET),
            defer_reads=True,
            push_transfers=False,
        )
        cl = self.cl = self.deployment.api
        device = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[0]
        ctx = cl.clCreateContext([device])
        self.compute_q = cl.clCreateCommandQueue(ctx, device)
        self.read_q = cl.clCreateCommandQueue(ctx, device)
        self.program = cl.clCreateProgramWithSource(ctx, MANDELBROT_KERNEL)
        cl.clBuildProgram(self.program)
        frame_bytes = self.config.height * self.config.width * 4
        self.bufs = [cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, frame_bytes) for _ in range(2)]
        for _ in range(self.warmup_ops):
            self._frame()
        self.first_timed = self.frame

    def _frame(self) -> None:
        cl, n = self.cl, self.frame
        depth = n % ZOOM_DEPTHS
        cfg = self.viewport(depth)
        kernel = cl.clCreateKernel(self.program, "mandelbrot")
        args = [
            self.bufs[n % 2], cfg.width, cfg.height, 0, 1,
            np.float32(cfg.x0), np.float32(cfg.y0),
            np.float32(cfg.dx), np.float32(cfg.dy), cfg.max_iter,
        ]
        for index, value in enumerate(args):
            cl.clSetKernelArg(kernel, index, value)
        cl.clEnqueueNDRangeKernel(self.compute_q, kernel, (cfg.width, cfg.height))
        if n > 0:
            out, _event = cl.clEnqueueReadBuffer(self.read_q, self.bufs[(n - 1) % 2], blocking=False)
            self.outs.append(out)
        cl.clFinish(self.compute_q)
        self.depths.append(depth)
        self.frame = n + 1

    def op(self, i: int) -> None:
        before = self.cl.now
        self._frame()
        self.virtual_latencies.append(self.cl.now - before)

    def verify(self) -> Sequence[int]:
        cl = self.cl
        out, event = cl.clEnqueueReadBuffer(
            self.read_q, self.bufs[(self.frame - 1) % 2], blocking=False
        )
        cl.clWaitForEvents([event])
        self.outs.append(out)
        references: Dict[int, np.ndarray] = {}
        failed = []
        shape = (self.config.height, self.config.width)
        for n, (depth, data) in enumerate(zip(self.depths, self.outs)):
            if depth not in references:
                references[depth] = mandelbrot_reference(self.viewport(depth))
            if not np.array_equal(data.view(np.int32).reshape(shape), references[depth]):
                # A bad warm-up frame fails the first timed op.
                failed.append(max(n - self.first_timed, 0))
        return failed


# ----------------------------------------------------------------------
# osem_offload
# ----------------------------------------------------------------------
class OsemOffload(Workload):
    """Fig. 5 list-mode OSEM from the desktop to the 4-GPU server; op =
    one iteration (all subsets)."""

    warmup_ops = 1
    image_size = figures.OSEM_IMAGE
    n_events = figures.OSEM_EVENTS
    n_samples = figures.OSEM_SAMPLES

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.events = generate_events(disk_phantom(self.image_size), self.n_events, seed=seed)
        self.iterations = 0

    def _engine(self, cl) -> ListModeOSEM:
        gpus = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
        return ListModeOSEM(
            cl,
            gpus,
            image_size=self.image_size,
            n_subsets=figures.OSEM_SUBSETS,
            n_samples=self.n_samples,
        )

    def setup(self) -> None:
        self.deployment = deploy_dopencl(
            make_desktop_and_gpu_server(link=figures.OSEM_LINK),
            workload_scale=figures.OSEM_WORKLOAD_SCALE,
        )
        self.osem = self._engine(self.deployment.api)
        self.osem.setup(self.events)
        for _ in range(self.warmup_ops):
            self.osem.iterate()
            self.iterations += 1

    def op(self, i: int) -> None:
        self.virtual_latencies.append(self.osem.iterate())
        self.iterations += 1

    def verify(self) -> Sequence[int]:
        image = self.osem.image()
        server = make_desktop_and_gpu_server(link=figures.OSEM_LINK).servers[0]
        native = self._engine(native_api_on(server, workload_scale=figures.OSEM_WORKLOAD_SCALE))
        reference = native.run(self.events, n_iterations=self.iterations).image
        # The comparison tests/apps/test_osem.py uses for remote vs local.
        if np.allclose(image, reference, rtol=1e-3, atol=1e-5):
            return ()
        # One image for the whole run: a mismatch cannot be pinned on an op.
        return range(self.iterations - self.warmup_ops)


# ----------------------------------------------------------------------
# tenant_steady
# ----------------------------------------------------------------------
TENANT_ELEMS = 32


class TenantSteady(Workload):
    """Fig. 6 testbed scaled: many tenants on one GPU server, all
    building ``bench/multiclient.py``'s shared ``fill`` source (one
    compile per cluster); op = one round of per-tenant
    create-kernel/set-args/launch, then per-tenant ``clFinish``."""

    warmup_ops = 2
    tenants = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.order = [int(t) for t in rng.permutation(self.tenants)]
        #: How much of its buffer each tenant's kernel fills (the
        #: launch stays TENANT_ELEMS work-items; the rest are masked).
        self.fill = [int(n) for n in rng.integers(1, TENANT_ELEMS + 1, self.tenants)]
        self.round = 0
        self.states: List[dict] = []

    def setup(self) -> None:
        n = self.tenants
        self.deployment = deploy_dopencl(make_multi_client_gpu_server(n), n_clients=n)
        for slot, tenant in enumerate(self.order):
            cl = self.deployment.apis[tenant]
            gpus = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
            device = gpus[slot % len(gpus)]
            ctx = cl.clCreateContext([device])
            queue = cl.clCreateCommandQueue(ctx, device)
            program = cl.clCreateProgramWithSource(ctx, MULTI_SOURCE)
            cl.clBuildProgram(program)
            buf = cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, TENANT_ELEMS * 4)
            cl.clFinish(queue)
            self.states.append(
                {"cl": cl, "queue": queue, "program": program, "buf": buf, "fill": self.fill[slot]}
            )
        for _ in range(self.warmup_ops):
            self._round()

    def _round(self) -> List[float]:
        value = np.float32(self.round)
        for state in self.states:
            cl = state["cl"]
            kernel = cl.clCreateKernel(state["program"], "fill")
            cl.clSetKernelArg(kernel, 0, state["buf"])
            cl.clSetKernelArg(kernel, 1, value)
            cl.clSetKernelArg(kernel, 2, state["fill"])
            cl.clEnqueueNDRangeKernel(state["queue"], kernel, (TENANT_ELEMS,))
        latencies = []
        for state in self.states:
            cl = state["cl"]
            start = cl.now
            cl.clFinish(state["queue"])
            latencies.append(cl.now - start)
        self.round += 1
        return latencies

    def op(self, i: int) -> None:
        self.virtual_latencies.extend(self._round())

    def verify(self) -> Sequence[int]:
        expected = np.float32(self.round - 1) + np.arange(TENANT_ELEMS, dtype=np.float32)
        for state in self.states:
            data, _event = state["cl"].clEnqueueReadBuffer(state["queue"], state["buf"])
            got, filled = data.view(np.float32), state["fill"]
            if not np.array_equal(got[:filled], expected[:filled]) or got[filled:].any():
                # Final buffers hold the last round's values only.
                return (self.round - 1 - self.warmup_ops,)
        return ()


# ----------------------------------------------------------------------
# bulk_pingpong
# ----------------------------------------------------------------------
BULK_BYTES = 32 << 20
BULK_POOL = 4
BULK_TOUCHED = 64

#: The seed trims the buffer by up to this many 4 KiB pages (0.4 % of
#: its size), so message size is an input drawn from the seed like the
#: payload bytes are.
BULK_TRIM_PAGES = 32

BULK_SOURCE = """
__kernel void touch(__global int *x) {
    int i = (int)get_global_id(0);
    x[i] = x[i] + 1;
}
"""


class BulkPingPong(Workload):
    """One large buffer bounced client -> node 0 -> node 1 -> client
    under MOSI; op = upload, server-to-server move, download."""

    warmup_ops = 3
    nbytes = BULK_BYTES

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.nbytes -= 4096 * int(rng.integers(0, BULK_TRIM_PAGES))
        info = np.iinfo(np.int32)
        self.pool = [
            rng.integers(info.min, info.max - 2, size=self.nbytes // 4, dtype=np.int32)
            for _ in range(BULK_POOL)
        ]
        self.sent = 0
        self.result = None

    def setup(self) -> None:
        self.deployment = deploy_dopencl(
            make_ib_cpu_cluster(2, link=GIGABIT_ETHERNET), coherence_protocol="mosi"
        )
        cl = self.cl = self.deployment.api
        devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:2]
        ctx = cl.clCreateContext(devices)
        self.queues = [cl.clCreateCommandQueue(ctx, device) for device in devices]
        program = cl.clCreateProgramWithSource(ctx, BULK_SOURCE)
        cl.clBuildProgram(program)
        self.kernel = cl.clCreateKernel(program, "touch")
        self.buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, self.nbytes)
        cl.clSetKernelArg(self.kernel, 0, self.buf)
        for _ in range(self.warmup_ops):
            self._bounce()

    def _bounce(self) -> None:
        cl = self.cl
        cl.clEnqueueWriteBuffer(self.queues[0], self.buf, True, 0, self.pool[self.sent % BULK_POOL])
        cl.clEnqueueNDRangeKernel(self.queues[0], self.kernel, (BULK_TOUCHED,))
        cl.clEnqueueNDRangeKernel(self.queues[1], self.kernel, (BULK_TOUCHED,))
        self.result, _event = cl.clEnqueueReadBuffer(self.queues[1], self.buf)
        self.sent += 1

    def op(self, i: int) -> None:
        before = self.cl.now
        self._bounce()
        self.virtual_latencies.append(self.cl.now - before)

    def check(self, i: int) -> bool:
        got = self.result.view(np.int32)
        sent = self.pool[(self.sent - 1) % BULK_POOL]
        return bool(
            np.array_equal(got[BULK_TOUCHED:], sent[BULK_TOUCHED:])
            and np.array_equal(got[:BULK_TOUCHED], sent[:BULK_TOUCHED] + np.int32(2))
        )


WORKLOADS = {
    "stream_zoom": StreamZoom,
    "osem_offload": OsemOffload,
    "tenant_steady": TenantSteady,
    "bulk_pingpong": BulkPingPong,
}
