"""Copy-buffer forwarding and multi-server lease assignment."""

import numpy as np
import pytest

from repro.hw.cluster import Cluster, make_ib_cpu_cluster
from repro.hw.node import Host
from repro.hw.specs import GIGABIT_ETHERNET, GPU_SERVER
from repro.net import Network
from repro.ocl import (
    CL_DEVICE_TYPE_GPU,
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_WRITE,
    CLError,
    ErrorCode,
)
from repro.testbed import deploy_dopencl


def test_copy_buffer_through_dopencl():
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    src_data = np.arange(256, dtype=np.uint8)
    src = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, 256, src_data)
    dst = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 256)
    api.clEnqueueCopyBuffer(queue, src, dst)
    data, _ = api.clEnqueueReadBuffer(queue, dst)
    np.testing.assert_array_equal(data, src_data)


def test_copy_buffer_partial_ranges():
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    src_data = np.arange(64, dtype=np.uint8)
    src = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, 64, src_data)
    dst_init = np.zeros(64, dtype=np.uint8)
    dst = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, 64, dst_init)
    api.clEnqueueCopyBuffer(queue, src, dst, src_offset=8, dst_offset=16, nbytes=8)
    data, _ = api.clEnqueueReadBuffer(queue, dst)
    expected = dst_init.copy()
    expected[16:24] = src_data[8:16]
    np.testing.assert_array_equal(data, expected)


@pytest.mark.parametrize("batch_window", [0, None])
def test_overlapping_self_copy_rejected_before_any_traffic(batch_window):
    """Transparency: native raises ``CL_MEM_COPY_OVERLAP`` for a
    self-copy whose ranges overlap (``ocl/queue.py``); dOpenCL used to
    copy silently.  The check runs before any coherence traffic or
    directory mutation, and a disjoint self-copy still works."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(1), batch_window=batch_window)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    init = np.arange(64, dtype=np.uint8)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, 64, init)
    # Leave the only valid copy on the server, so an unvalidated copy
    # would have to download before it could mutate anything.
    api.clEnqueueWriteBuffer(queue, buf, True, 0, init)
    before = (
        deployment.driver.stats.snapshot(),
        dict(buf.coherence.state),
        deployment.driver.pending_commands(),
    )
    with pytest.raises(CLError) as err:
        api.clEnqueueCopyBuffer(queue, buf, buf, 0, 8, 32)
    assert err.value.code == ErrorCode.CL_MEM_COPY_OVERLAP
    assert before == (
        deployment.driver.stats.snapshot(),
        dict(buf.coherence.state),
        deployment.driver.pending_commands(),
    )
    api.clEnqueueCopyBuffer(queue, buf, buf, 0, 32, 32)  # adjacent, not overlapping
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data, np.concatenate([init[:32], init[:32]]))


TWO_GPU_REQUEST = """
<devmngr>devmgr</devmngr>
<devices>
  <device count="6">
    <attribute name="TYPE">GPU</attribute>
  </device>
</devices>
"""


def make_two_gpu_servers() -> Cluster:
    net = Network(GIGABIT_ETHERNET)
    client = net.add_host(Host(GPU_SERVER, name="client-node"))
    servers = [net.add_host(Host(GPU_SERVER, name=f"gpusrv{i}")) for i in range(2)]
    return Cluster(network=net, client=client, servers=servers)


def test_lease_spans_servers_with_per_server_subsets():
    """Fig. 3: a 6-GPU request against two 4-GPU servers produces one
    lease whose device set is split into per-server subsets."""
    cluster = make_two_gpu_servers()
    deployment = deploy_dopencl(
        cluster, managed=True, devmgr_config_texts=[TWO_GPU_REQUEST], n_clients=1
    )
    api = deployment.api
    gpus = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    assert len(gpus) == 6
    servers = {d.server.name for d in gpus}
    assert len(servers) == 2  # the lease spans both servers
    manager = deployment.device_manager
    (lease,) = manager.leases.values()
    assert sorted(lease.server_names) == sorted(servers)
    # Each daemon only knows its own subset of the lease's device set.
    for daemon in deployment.daemons:
        subset = daemon.auth_devices.get(lease.auth_id, set())
        assert subset == set(lease.devices_on(daemon.name))
    # And a context can span the whole lease — devices from two servers.
    ctx = api.clCreateContext(gpus)
    assert len(ctx.unique_servers) == 2


def test_round_robin_spreads_across_servers():
    cluster = make_two_gpu_servers()
    single = """
    <devmngr>devmgr</devmngr>
    <devices><device><attribute name="TYPE">GPU</attribute></device></devices>
    """
    deployment = deploy_dopencl(
        cluster, managed=True, devmgr_strategy="round_robin",
        devmgr_config_texts=[single], n_clients=1,
    )
    api1 = deployment.api
    api1.clGetDeviceIDs(api1.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)
    # Second client via a fresh driver: should land on the other server.
    from repro.core.client.api import DOpenCLAPI
    from repro.core.client.driver import DOpenCLDriver

    driver2 = DOpenCLDriver(
        cluster.client, cluster.network, directory=deployment.directory,
        devmgr_config_text=single, device_manager=deployment.device_manager,
        name="client2",
    )
    api2 = DOpenCLAPI(driver2)
    gpu2 = api2.clGetDeviceIDs(api2.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[0]
    gpu1_server = next(iter(deployment.device_manager.leases.values())).devices[0].server_name
    load = deployment.device_manager.server_load()
    assert load == {"gpusrv0": 1, "gpusrv1": 1}
