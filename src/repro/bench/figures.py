"""Experiment runners: one function per figure of the paper's Section V.

Workload rescaling methodology: each experiment runs a reduced-size
workload but charges paper-size costs:

* ``workload_scale`` multiplies kernel op counts so *compute* time matches
  the paper-size problem;
* the network link is scaled down by the data-size reduction factor so
  *transfer* time keeps the paper's transfer:compute ratio.

Absolute seconds are therefore comparable to the paper's figures; the
claims we verify are the *shapes* (who wins, by what factor, what grows).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.bandwidth import FIG8_SIZES, measure_transfers
from repro.apps.mandelbrot import (
    MandelbrotConfig,
    render_dopencl,
    render_mpi_opencl,
    render_native,
)
from repro.apps.osem import ListModeOSEM, disk_phantom, generate_events
from repro.bench.harness import ExperimentRecord
from repro.hw.cluster import (
    make_desktop_and_gpu_server,
    make_ib_cpu_cluster,
    make_multi_client_gpu_server,
)
from repro.hw.specs import GIGABIT_ETHERNET, INFINIBAND_QDR
from repro.net.iperf import run_iperf
from repro.ocl import CL_DEVICE_TYPE_GPU
from repro.testbed import deploy_dopencl, native_api_on

# ----------------------------------------------------------------------
# E1 — Fig. 4: Mandelbrot scalability, dOpenCL vs MPI+OpenCL
# ----------------------------------------------------------------------
#: 480x320 at <=200 iterations stands in for 4800x3200 at <=20000:
#: compute is 11500x smaller, the image 100x smaller.
FIG4_CONFIG = MandelbrotConfig(width=480, height=320, max_iter=200)
FIG4_WORKLOAD_SCALE = 11500.0
FIG4_LINK = INFINIBAND_QDR.scaled(1 / 100)


def fig4_mandelbrot(device_counts: Sequence[int] = (2, 4, 8, 16)) -> ExperimentRecord:
    record = ExperimentRecord(
        experiment="fig4",
        title="Mandelbrot runtime, MPI+OpenCL vs dOpenCL (stacked segments, seconds)",
        columns=["devices", "variant", "init", "exec", "transfer", "total"],
        notes=(
            "480x320/200-iter workload rescaled to 4800x3200/20000 "
            f"(workload_scale={FIG4_WORKLOAD_SCALE:g}, link/100)"
        ),
    )
    for n in device_counts:
        cluster = make_ib_cpu_cluster(n, link=FIG4_LINK)
        mpi = render_mpi_opencl(
            cluster.network, cluster.servers, FIG4_CONFIG, workload_scale=FIG4_WORKLOAD_SCALE
        )
        record.add(
            devices=n,
            variant="MPI+OpenCL",
            init=mpi.timings.initialization,
            exec=mpi.timings.execution,
            transfer=mpi.timings.transfer,
            total=mpi.timings.total,
        )
        deployment = deploy_dopencl(
            make_ib_cpu_cluster(n, link=FIG4_LINK), workload_scale=FIG4_WORKLOAD_SCALE
        )
        dcl = render_dopencl(deployment.api, FIG4_CONFIG)
        record.add(
            devices=n,
            variant="dOpenCL",
            init=dcl.timings.initialization,
            exec=dcl.timings.execution,
            transfer=dcl.timings.transfer,
            total=dcl.timings.total,
        )
    return record


# ----------------------------------------------------------------------
# E2 — Fig. 5: list-mode OSEM mean iteration runtime
# ----------------------------------------------------------------------
#: 64^2 image/20k events stands in for the paper's 3D volumes and
#: multi-million-event lists.
OSEM_IMAGE = 64
OSEM_EVENTS = 20000
OSEM_SUBSETS = 2
OSEM_SAMPLES = 64
OSEM_WORKLOAD_SCALE = 4000.0
OSEM_LINK_FACTOR = 1 / 550
OSEM_LINK = GIGABIT_ETHERNET.scaled(OSEM_LINK_FACTOR)


def fig5_osem(n_iterations: int = 2) -> ExperimentRecord:
    record = ExperimentRecord(
        experiment="fig5",
        title="Mean list-mode OSEM iteration runtime (seconds)",
        columns=["setup", "mean_iteration", "configuration"],
        notes=(
            f"64^2/20k-event workload rescaled (workload_scale={OSEM_WORKLOAD_SCALE:g}, "
            f"link x{OSEM_LINK_FACTOR:.4f}); paper: 15.7 s local vs 4.2 s dOpenCL vs ~2 s native"
        ),
    )
    phantom = disk_phantom(OSEM_IMAGE)
    events = generate_events(phantom, OSEM_EVENTS, seed=0)

    def run(cl, devices):
        osem = ListModeOSEM(
            cl, devices, image_size=OSEM_IMAGE, n_subsets=OSEM_SUBSETS, n_samples=OSEM_SAMPLES
        )
        return osem.run(events, n_iterations=n_iterations)

    # (a) Desktop PC, local low-end GPU, plain OpenCL.
    desktop = native_api_on(
        make_desktop_and_gpu_server(link=OSEM_LINK).client, workload_scale=OSEM_WORKLOAD_SCALE
    )
    gpus = desktop.clGetDeviceIDs(desktop.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    local = run(desktop, gpus)
    record.add(
        setup=local.setup_time,
        mean_iteration=local.mean_iteration_time,
        configuration="Desktop PC using OpenCL (NVS 3100M)",
    )

    # (b) Desktop PC offloading to the GPU server through dOpenCL.
    deployment = deploy_dopencl(
        make_desktop_and_gpu_server(link=OSEM_LINK), workload_scale=OSEM_WORKLOAD_SCALE
    )
    api = deployment.api
    remote_gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    offload = run(api, remote_gpus)
    record.add(
        setup=offload.setup_time,
        mean_iteration=offload.mean_iteration_time,
        configuration="Desktop PC using dOpenCL (Tesla S1070 over GigE)",
    )

    # (c) The server itself with its native OpenCL.
    server = native_api_on(
        make_desktop_and_gpu_server(link=OSEM_LINK).servers[0], workload_scale=OSEM_WORKLOAD_SCALE
    )
    server_gpus = server.clGetDeviceIDs(server.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    native = run(server, server_gpus)
    record.add(
        setup=native.setup_time,
        mean_iteration=native.mean_iteration_time,
        configuration="Server using native OpenCL (Tesla S1070)",
    )
    return record


# ----------------------------------------------------------------------
# E3 — Fig. 6: device manager, 1-4 concurrent clients
# ----------------------------------------------------------------------
FIG6_CONFIG = MandelbrotConfig(width=480, height=320, max_iter=200)
FIG6_WORKLOAD_SCALE = 800.0
FIG6_LINK = GIGABIT_ETHERNET.scaled(1 / 100)

GPU_REQUEST_XML = """
<devmngr>gpuserver</devmngr>
<devices>
  <device>
    <attribute name="TYPE">GPU</attribute>
  </device>
</devices>
"""


def fig6_device_manager(client_counts: Sequence[int] = (1, 2, 3, 4)) -> ExperimentRecord:
    record = ExperimentRecord(
        experiment="fig6",
        title="Avg Mandelbrot runtime, concurrent clients sharing one GPU server (seconds)",
        columns=["clients", "devmgr", "init", "exec", "transfer", "total", "max_total", "spread"],
        notes="with DM: one GPU each via leases; without: every client picks device[0]",
    )
    for n in client_counts:
        for with_dm in (True, False):
            cluster = make_multi_client_gpu_server(n, link=FIG6_LINK)
            deployment = deploy_dopencl(
                cluster,
                managed=with_dm,
                devmgr_config_texts=[GPU_REQUEST_XML] * n if with_dm else None,
                workload_scale=FIG6_WORKLOAD_SCALE,
                n_clients=n,
            )
            totals, inits, execs, transfers = [], [], [], []
            for api in deployment.apis:
                result = render_dopencl(api, FIG6_CONFIG, device_type=CL_DEVICE_TYPE_GPU,
                                        n_devices=1)
                totals.append(result.timings.total)
                inits.append(result.timings.initialization)
                execs.append(result.timings.execution)
                transfers.append(result.timings.transfer)
            record.add(
                clients=n,
                devmgr="with" if with_dm else "without",
                init=float(np.mean(inits)),
                exec=float(np.mean(execs)),
                transfer=float(np.mean(transfers)),
                total=float(np.mean(totals)),
                max_total=float(np.max(totals)),
                spread=float(np.max(totals) - np.min(totals)),
            )
    return record


# ----------------------------------------------------------------------
# E4 — Fig. 7: 1024 MB over GigE vs PCIe (real scale, no rescaling)
# ----------------------------------------------------------------------
def fig7_transfer(nbytes: int = 1 << 30) -> ExperimentRecord:
    record = ExperimentRecord(
        experiment="fig7",
        title="Time to transfer 1024 MB to/from a device (seconds)",
        columns=["path", "write", "read"],
        notes="paper: GigE ~50x slower than PCIe for writes, ~4.5x for reads",
    )
    # PCI Express: the application runs on the server itself.
    server_api = native_api_on(make_desktop_and_gpu_server().servers[0])
    (pcie,) = measure_transfers(server_api, [nbytes], device_type=CL_DEVICE_TYPE_GPU)
    record.add(path="PCI Express", write=pcie.write_seconds, read=pcie.read_seconds)
    # Gigabit Ethernet: remote client through dOpenCL.
    deployment = deploy_dopencl(make_desktop_and_gpu_server())
    (gige,) = measure_transfers(deployment.api, [nbytes], device_type=CL_DEVICE_TYPE_GPU)
    record.add(path="Gigabit Ethernet", write=gige.write_seconds, read=gige.read_seconds)
    return record


# ----------------------------------------------------------------------
# E5 — Fig. 8: transfer efficiency vs size, against the iperf line
# ----------------------------------------------------------------------
def fig8_efficiency(sizes: Sequence[int] = FIG8_SIZES) -> ExperimentRecord:
    record = ExperimentRecord(
        experiment="fig8",
        title="dOpenCL data-transfer efficiency over GigE (fraction of 125 MB/s)",
        columns=["size_mb", "write_efficiency", "read_efficiency", "iperf_efficiency"],
        notes="paper: iperf line at ~86%; dOpenCL approaches it for large transfers",
    )
    cluster = make_desktop_and_gpu_server()
    iperf = run_iperf(cluster.network, cluster.client, cluster.servers[0])
    iperf_eff = iperf.efficiency(GIGABIT_ETHERNET.bandwidth)
    deployment = deploy_dopencl(make_desktop_and_gpu_server())
    samples = measure_transfers(deployment.api, sizes, device_type=CL_DEVICE_TYPE_GPU)
    for sample in samples:
        # The paper plots pure network efficiency; subtract the PCIe leg of
        # the path for the read direction the way the paper's write/read
        # curves still bundle it (we report the raw end-to-end efficiency).
        record.add(
            size_mb=sample.nbytes >> 20,
            write_efficiency=sample.write_efficiency(GIGABIT_ETHERNET.bandwidth),
            read_efficiency=sample.read_efficiency(GIGABIT_ETHERNET.bandwidth),
            iperf_efficiency=iperf_eff,
        )
    return record


# ----------------------------------------------------------------------
# A1 — ablation: MSI (client-mediated) vs MOSI (server-to-server)
# ----------------------------------------------------------------------
SCALE_KERNEL = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""


def ablation_coherence(rounds: int = 6, nbytes: int = 8 << 20) -> ExperimentRecord:
    """A buffer ping-pongs between kernels on two servers: MSI pays two
    client-mediated hops per move, MOSI one direct hop (Section III-F)."""
    record = ExperimentRecord(
        experiment="ablation_coherence",
        title="Shared-buffer ping-pong between two servers (seconds)",
        columns=["protocol", "total_time", "transfers"],
        notes="Section III-F: server-to-server communication halves the hops",
    )
    n = nbytes // 4
    for protocol in ("msi", "mosi"):
        deployment = deploy_dopencl(make_ib_cpu_cluster(2), coherence_protocol=protocol)
        api = deployment.api
        devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
        ctx = api.clCreateContext(devices)
        queues = [api.clCreateCommandQueue(ctx, d) for d in devices]
        from repro.ocl.constants import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE

        data = np.ones(n, dtype=np.float32)
        buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, data.nbytes, data)
        program = api.clCreateProgramWithSource(ctx, SCALE_KERNEL)
        api.clBuildProgram(program)
        kernel = api.clCreateKernel(program, "scale")
        api.clSetKernelArg(kernel, 0, buf)
        api.clSetKernelArg(kernel, 1, np.float32(1.0000001))
        api.clSetKernelArg(kernel, 2, n)
        t0 = api.now
        for r in range(rounds):
            queue = queues[r % 2]
            api.clEnqueueNDRangeKernel(queue, kernel, (n,))
            api.clFinish(queue)
        total = api.now - t0
        record.add(protocol=protocol.upper(), total_time=total, transfers=rounds)
    return record


# ----------------------------------------------------------------------
# A2 — ablation: device-manager scheduling strategies
# ----------------------------------------------------------------------
def ablation_scheduling() -> ExperimentRecord:
    """Request stream against a heterogeneous pool: best-fit preserves the
    big device for the demanding late request; first-fit burns it early."""
    from repro.core.devmgr import DeviceRequirement, FreeDevice, make_strategy

    record = ExperimentRecord(
        experiment="ablation_scheduling",
        title="Scheduling strategies on a heterogeneous device pool",
        columns=["strategy", "satisfied", "out_of", "balance"],
        notes="requests: 3x small GPU (>=2 CUs), then 1x big GPU (>=30 CUs)",
    )

    def pool():
        return [
            FreeDevice("srvA", 0, {"TYPE": 4, "VENDOR": "NVIDIA", "NAME": "big", "MAX_COMPUTE_UNITS": 30, "GLOBAL_MEM_SIZE": 4 << 30}),
            FreeDevice("srvA", 1, {"TYPE": 4, "VENDOR": "NVIDIA", "NAME": "small", "MAX_COMPUTE_UNITS": 4, "GLOBAL_MEM_SIZE": 1 << 30}),
            FreeDevice("srvB", 0, {"TYPE": 4, "VENDOR": "NVIDIA", "NAME": "small", "MAX_COMPUTE_UNITS": 4, "GLOBAL_MEM_SIZE": 1 << 30}),
            FreeDevice("srvB", 1, {"TYPE": 4, "VENDOR": "NVIDIA", "NAME": "small", "MAX_COMPUTE_UNITS": 4, "GLOBAL_MEM_SIZE": 1 << 30}),
        ]

    requests = [DeviceRequirement(attributes={"TYPE": "GPU", "MAX_COMPUTE_UNITS": "2"})] * 3
    requests.append(DeviceRequirement(attributes={"TYPE": "GPU", "MAX_COMPUTE_UNITS": "30"}))
    for name in ("first_fit", "round_robin", "best_fit"):
        strategy = make_strategy(name)
        free = pool()
        load: Dict[str, int] = {}
        satisfied = 0
        for request in requests:
            pick = strategy.select(free, request, load)
            if pick is not None:
                satisfied += 1
                free.remove(pick)
                load[pick.server_name] = load.get(pick.server_name, 0) + 1
        balance = max(load.values()) - min(load.values()) if len(load) > 1 else max(load.values(), default=0)
        record.add(strategy=name, satisfied=satisfied, out_of=len(requests), balance=balance)
    return record
