#!/usr/bin/env python
"""The Fig. 5 scenario: PET reconstruction offloaded to a GPU server.

A desktop PC with a low-end GPU reconstructs a synthetic PET phantom
three ways:

1. locally, on its NVS 3100M;
2. through dOpenCL, transparently offloading to the 4-GPU Tesla server
   over Gigabit Ethernet — same application code;
3. for reference, directly on the server with its native runtime.

Run:  python examples/osem_offload.py
"""

import numpy as np

from repro.apps.osem import ListModeOSEM, disk_phantom, generate_events
from repro.bench.figures import OSEM_LINK, OSEM_WORKLOAD_SCALE
from repro.hw.cluster import make_desktop_and_gpu_server
from repro.ocl import CL_DEVICE_TYPE_GPU
from repro.testbed import deploy_dopencl, native_api_on

IMAGE_SIZE = 48
N_EVENTS = 10000
ITERATIONS = 3

# Rescale the reduced-size workload to paper magnitudes (methodology:
# repro.bench.figures' module docstring): kernel costs x4000, network
# scaled to match the paper's 3D volumes.
SCALE = OSEM_WORKLOAD_SCALE


def reconstruct(cl, label):
    gpus = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    print(f"\n--- {label}: {len(gpus)} GPU(s) ---")
    phantom = disk_phantom(IMAGE_SIZE, disks=[(0.0, 0.0, 0.5, 1.0), (-0.2, 0.25, 0.15, 6.0)])
    events = generate_events(phantom, N_EVENTS, seed=11)
    osem = ListModeOSEM(cl, gpus, image_size=IMAGE_SIZE, n_subsets=2, n_samples=48)
    result = osem.run(events, n_iterations=ITERATIONS)
    corr = np.corrcoef(result.image.ravel(), phantom.ravel())[0, 1]
    print(f"  mean iteration time: {result.mean_iteration_time:8.3f} s (simulated, paper-rescaled)")
    print(f"  setup time:          {result.setup_time:8.3f} s (simulated, paper-rescaled)")
    print(f"  image/phantom correlation after {ITERATIONS} iterations: {corr:.3f}")
    return result


def main():
    # 1. Desktop PC, local GPU, plain OpenCL.
    desktop_api = native_api_on(
        make_desktop_and_gpu_server(link=OSEM_LINK).client, workload_scale=SCALE
    )
    local = reconstruct(desktop_api, "Desktop PC using OpenCL (NVS 3100M)")

    # 2. Desktop PC -> GPU server through dOpenCL (unmodified code).
    deployment = deploy_dopencl(make_desktop_and_gpu_server(link=OSEM_LINK), workload_scale=SCALE)
    remote = reconstruct(deployment.api, "Desktop PC using dOpenCL (remote Tesla S1070)")

    # 3. Server native, for the trade-off comparison.
    server_api = native_api_on(
        make_desktop_and_gpu_server(link=OSEM_LINK).servers[0], workload_scale=SCALE
    )
    native = reconstruct(server_api, "Server using native OpenCL")

    speedup = local.mean_iteration_time / remote.mean_iteration_time
    tax = remote.mean_iteration_time - native.mean_iteration_time
    print(f"\ndOpenCL offload speedup over the local GPU: {speedup:.2f}x")
    print(f"Data-transfer tax vs running on the server:  {tax:.3f} s/iteration")
    print("(the paper measured 3.75x and attributed the residual gap to transfers)")

    np.testing.assert_allclose(remote.image, native.image, rtol=1e-3, atol=1e-5)
    print("Remote and server-native reconstructions are numerically identical.")


if __name__ == "__main__":
    main()
