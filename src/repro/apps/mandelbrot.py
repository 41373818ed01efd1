"""The Mandelbrot application study (Section V-A).

Three versions, as in the paper:

* :func:`render_native` — plain OpenCL on one device (the original app);
* :func:`render_dopencl` — the *same* OpenCL code through the dOpenCL
  client driver, devices merged from all servers ("with dOpenCL, we only
  have to provide a configuration file with a list of servers, while the
  application is not changed in any way");
* :func:`render_mpi_opencl` — the MPI+OpenCL port with exactly the
  paper's listed modifications: rank/size tile assignment, the tile
  rather than the whole image passed to the algorithm, ``MPI_Gather`` of
  tiles, MPI init/finalise.

Work decomposition matches the paper: "each line of the fractal is
computed by another device in a round-robin fashion, such that all
devices are assigned an equal amount of work."

Results carry the Fig. 4 timing split: initialization, execution (kernel
compute), and data transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.ocl.constants import CL_DEVICE_TYPE_ALL, CL_MEM_WRITE_ONLY

#: The kernel, shared verbatim by every version (row-cyclic: device d of D
#: computes rows d, d+D, d+2D, ...).
MANDELBROT_KERNEL = """
__kernel void mandelbrot(__global int *output, const int width, const int height,
                         const int row_offset, const int row_stride,
                         const float x0, const float y0,
                         const float dx, const float dy, const int max_iter)
{
    int gx = (int)get_global_id(0);
    int local_row = (int)get_global_id(1);
    int gy = row_offset + local_row * row_stride;
    if (gx >= width || gy >= height) return;
    float cr = x0 + gx * dx;
    float ci = y0 + gy * dy;
    float zr = 0.0f;
    float zi = 0.0f;
    int iter = 0;
    while (iter < max_iter && zr * zr + zi * zi <= 4.0f) {
        float t = zr * zr - zi * zi + cr;
        zi = 2.0f * zr * zi + ci;
        zr = t;
        iter++;
    }
    output[local_row * width + gx] = iter;
}
"""


@dataclass(frozen=True)
class MandelbrotConfig:
    """Fractal section and iteration threshold (algorithmic density)."""

    width: int = 480
    height: int = 320
    x0: float = -2.0
    y0: float = -1.0
    x1: float = 1.0
    y1: float = 1.0
    max_iter: int = 200

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / self.width

    @property
    def dy(self) -> float:
        return (self.y1 - self.y0) / self.height

    def rows_for(self, device_index: int, n_devices: int) -> np.ndarray:
        return np.arange(device_index, self.height, n_devices)


@dataclass
class Timings:
    """The stacked segments of Fig. 4."""

    initialization: float = 0.0
    execution: float = 0.0
    transfer: float = 0.0

    @property
    def total(self) -> float:
        return self.initialization + self.execution + self.transfer


@dataclass
class MandelbrotResult:
    image: np.ndarray  # (height, width) int32 iteration counts
    timings: Timings
    n_devices: int = 1
    backend: str = ""


def mandelbrot_reference(config: MandelbrotConfig) -> np.ndarray:
    """Vectorised NumPy reference for correctness checks (fp32 like the
    kernel)."""
    xs = np.float32(config.x0) + np.arange(config.width, dtype=np.float32) * np.float32(config.dx)
    ys = np.float32(config.y0) + np.arange(config.height, dtype=np.float32) * np.float32(config.dy)
    cr = np.broadcast_to(xs, (config.height, config.width)).copy()
    ci = np.broadcast_to(ys[:, None], (config.height, config.width)).copy()
    zr = np.zeros_like(cr)
    zi = np.zeros_like(ci)
    out = np.zeros(cr.shape, dtype=np.int32)
    active = np.ones(cr.shape, dtype=bool)
    for _ in range(config.max_iter):
        if not active.any():
            break
        zr2 = zr * zr
        zi2 = zi * zi
        inside = zr2 + zi2 <= np.float32(4.0)
        run = active & inside
        out[run] += 1
        zr_new = zr2 - zi2 + cr
        zi_new = np.float32(2.0) * zr * zi + ci
        zr = np.where(run, zr_new, zr)
        zi = np.where(run, zi_new, zi)
        active = run
    return out


def _render_on_devices(cl, devices, config: MandelbrotConfig, t_start: float) -> MandelbrotResult:
    """Shared body of the native and dOpenCL versions: this is the
    *unmodified application* — it has no idea whether ``cl`` talks to a
    local runtime or to a cluster."""
    ctx = cl.clCreateContext(devices)
    queues = [cl.clCreateCommandQueue(ctx, d) for d in devices]
    program = cl.clCreateProgramWithSource(ctx, MANDELBROT_KERNEL)
    cl.clBuildProgram(program)
    n = len(devices)
    buffers = []
    kernels = []
    for d, device in enumerate(devices):
        rows = config.rows_for(d, n)
        buf = cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, int(rows.size) * config.width * 4)
        kernel = cl.clCreateKernel(program, "mandelbrot")
        cl.clSetKernelArg(kernel, 0, buf)
        cl.clSetKernelArg(kernel, 1, config.width)
        cl.clSetKernelArg(kernel, 2, config.height)
        cl.clSetKernelArg(kernel, 3, d)
        cl.clSetKernelArg(kernel, 4, n)
        cl.clSetKernelArg(kernel, 5, np.float32(config.x0))
        cl.clSetKernelArg(kernel, 6, np.float32(config.y0))
        cl.clSetKernelArg(kernel, 7, np.float32(config.dx))
        cl.clSetKernelArg(kernel, 8, np.float32(config.dy))
        cl.clSetKernelArg(kernel, 9, config.max_iter)
        buffers.append((buf, rows))
        kernels.append(kernel)
    t_init = cl.now

    events = []
    for d, (kernel, (buf, rows)) in enumerate(zip(kernels, buffers)):
        events.append(
            cl.clEnqueueNDRangeKernel(queues[d], kernel, (config.width, int(rows.size)))
        )
    for queue in queues:
        cl.clFinish(queue)
    t_exec = cl.now

    image = np.zeros((config.height, config.width), dtype=np.int32)
    for d, (buf, rows) in enumerate(buffers):
        data, _ = cl.clEnqueueReadBuffer(queues[d], buf)
        image[rows] = data.view(np.int32).reshape(rows.size, config.width)
    t_transfer = cl.now
    return MandelbrotResult(
        image=image,
        timings=Timings(
            initialization=t_init - t_start,
            execution=t_exec - t_init,
            transfer=t_transfer - t_exec,
        ),
        n_devices=n,
    )


def render_native(cl, config: MandelbrotConfig, device_type: int = CL_DEVICE_TYPE_ALL,
                  n_devices: Optional[int] = None) -> MandelbrotResult:
    """The original OpenCL application on a stand-alone system.

    Initialization is measured from before device discovery, so the
    dOpenCL version's automatic server connection is part of the init
    segment — as in Fig. 4."""
    t_start = cl.now
    platform = cl.clGetPlatformIDs()[0]
    devices = cl.clGetDeviceIDs(platform, device_type)
    if n_devices is not None:
        devices = devices[:n_devices]
    result = _render_on_devices(cl, devices, config, t_start)
    result.backend = "native"
    return result


def render_dopencl(cl, config: MandelbrotConfig, device_type: int = CL_DEVICE_TYPE_ALL,
                   n_devices: Optional[int] = None) -> MandelbrotResult:
    """The same application through dOpenCL (only the ``cl`` object and a
    server configuration file differ)."""
    result = render_native(cl, config, device_type, n_devices)
    result.backend = "dopencl"
    return result


def render_mpi_opencl(
    network, hosts: Sequence, config: MandelbrotConfig, workload_scale: float = 1.0
) -> MandelbrotResult:
    """The MPI+OpenCL port (the paper's four listed modifications)."""
    from repro.mpi.runner import MPI_INIT_OVERHEAD, mpi_run
    from repro.testbed import native_api_on

    def main(comm):
        # Modification 1: tile assignment from rank and communicator size.
        rank, size = comm.Get_rank(), comm.Get_size()
        rows = config.rows_for(rank, size)
        t0 = comm.now
        cl = native_api_on(comm.host, workload_scale=workload_scale)
        cl.clock.advance_to(comm.now)
        platform = cl.clGetPlatformIDs()[0]
        device = cl.clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL)[0]
        ctx = cl.clCreateContext([device])
        queue = cl.clCreateCommandQueue(ctx, device)
        program = cl.clCreateProgramWithSource(ctx, MANDELBROT_KERNEL)
        cl.clBuildProgram(program)
        buf = cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, int(rows.size) * config.width * 4)
        kernel = cl.clCreateKernel(program, "mandelbrot")
        cl.clSetKernelArg(kernel, 0, buf)
        cl.clSetKernelArg(kernel, 1, config.width)
        cl.clSetKernelArg(kernel, 2, config.height)
        cl.clSetKernelArg(kernel, 3, rank)
        cl.clSetKernelArg(kernel, 4, size)
        cl.clSetKernelArg(kernel, 5, np.float32(config.x0))
        cl.clSetKernelArg(kernel, 6, np.float32(config.y0))
        cl.clSetKernelArg(kernel, 7, np.float32(config.dx))
        cl.clSetKernelArg(kernel, 8, np.float32(config.dy))
        cl.clSetKernelArg(kernel, 9, config.max_iter)
        yield from comm.sync_clock(cl)
        t_init = comm.now

        # Modification 2: the tile, not the whole image, is computed.
        cl.clEnqueueNDRangeKernel(queue, kernel, (config.width, int(rows.size)))
        cl.clFinish(queue)
        tile_bytes, _ = cl.clEnqueueReadBuffer(queue, buf)
        tile = tile_bytes.view(np.int32).reshape(rows.size, config.width)
        yield from comm.sync_clock(cl)
        t_exec = comm.now

        # Modification 3: tiles merged into the result via MPI_Gather.
        tiles = yield from comm.gather(tile, root=0)
        t_gather = comm.now
        if rank == 0:
            image = np.zeros((config.height, config.width), dtype=np.int32)
            for r, t in enumerate(tiles):
                image[config.rows_for(r, size)] = t
            return {
                "image": image,
                "init": t_init - t0,
                "exec": t_exec - t_init,
                "transfer": t_gather - t_exec,
            }
        return None

    # Modification 4: MPI runtime init/finalise — charged by the runner.
    run = mpi_run(network, list(hosts), main)
    root = run.root_result
    timings = Timings(
        initialization=root["init"] + MPI_INIT_OVERHEAD,
        execution=root["exec"],
        transfer=root["transfer"],
    )
    return MandelbrotResult(
        image=root["image"], timings=timings, n_devices=len(hosts), backend="mpi+opencl"
    )
