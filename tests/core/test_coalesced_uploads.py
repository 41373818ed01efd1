"""Window-aware coalescing of coherence uploads.

End-to-end invariants for the upload direction: merged uploads must
leave every MSI/MOSI directory — and the data — in exactly the state
the unmerged plans would, while spending fewer round trips.  The
property tests for the pure regrouping the driver applies
(:func:`repro.core.coherence.directory.split_transfer_plan`, which
covers uploads alongside downloads and peer transfers) live in
``tests/core/test_coalesced_transfers.py``.
"""

import numpy as np
import pytest

from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE
from repro.testbed import deploy_dopencl

ADD = """
__kernel void add(__global float *out, __global const float *a,
                  __global const float *b, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) out[i] = a[i] + b[i];
}
"""


# ----------------------------------------------------------------------
# end-to-end: merged vs unmerged execution
# ----------------------------------------------------------------------
def _run_two_buffer_kernel(coalesce: bool, protocol: str = "msi"):
    """``coalesce=False`` is the reference path (``batch_window=0``):
    one stream per transfer."""
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(2),
        coherence_protocol=protocol,
        batch_window=None if coalesce else 0,
    )
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    n = 64
    a = np.arange(n, dtype=np.float32)
    b = np.full(n, 10.0, dtype=np.float32)
    buf_a = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, a.nbytes, a)
    buf_b = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, b.nbytes, b)
    buf_out = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * n)
    program = api.clCreateProgramWithSource(ctx, ADD)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "add")
    api.clSetKernelArg(kernel, 0, buf_out)
    api.clSetKernelArg(kernel, 1, buf_a)
    api.clSetKernelArg(kernel, 2, buf_b)
    api.clSetKernelArg(kernel, 3, n)
    # Both input buffers need validation on the kernel's server: two
    # uploads to one daemon between sync points -> the coalescing case.
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, buf_out)
    states = {
        "a": dict(buf_a.coherence.state),
        "b": dict(buf_b.coherence.state),
        "out": dict(buf_out.coherence.state),
    }
    return deployment, data.view(np.float32), states


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_merged_uploads_match_unmerged_data_and_directories(protocol):
    dep_m, data_m, states_m = _run_two_buffer_kernel(True, protocol)
    dep_u, data_u, states_u = _run_two_buffer_kernel(False, protocol)
    np.testing.assert_array_equal(data_m, data_u)
    np.testing.assert_allclose(data_m, np.arange(64) + 10.0)
    assert states_m == states_u


def test_coalescing_saves_round_trips_and_bytes():
    dep_m, data_m, _ = _run_two_buffer_kernel(True)
    dep_u, data_u, _ = _run_two_buffer_kernel(False)
    sm, su = dep_m.driver.stats, dep_u.driver.stats
    # All three buffers (the two inputs plus the READ_WRITE output, which
    # is not pristine-skippable) validate on the kernel's server in one
    # merged stream.
    assert sm.coalesced_uploads == 1
    assert sm.coalesced_upload_sections == 3
    assert su.coalesced_uploads == 0
    # One merged stream pays one init round trip instead of three (the
    # reference path also streams the program source to both servers).
    assert sm.round_trips < su.round_trips
    assert sm.bulk_sends == 1
    assert su.bulk_sends == 3 + 2
    assert sm.bytes_sent < su.bytes_sent


def test_rejected_init_streams_nothing_and_applies_nothing():
    """A coalesced init naming a stale buffer ID is rejected up front:
    the error surfaces as a CLError, the payload never streams, and no
    section — not even the valid one — is applied on the daemon."""
    import repro.core.protocol.messages as P
    from repro.ocl.memory import Buffer

    deployment, _data, _ = _run_two_buffer_kernel(True)
    driver = deployment.driver
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    conn = driver.connection(devices[0].server.name)
    daemon = deployment.daemon_on(conn.name)
    # Find a live (buffer, queue) pair on daemon 0 from the earlier run.
    client = driver.gcf.name
    buffers = {i: o for i, o in daemon.registry._objects[client].items() if isinstance(o, Buffer)}
    buf_id = next(iter(buffers))
    before = buffers[buf_id].array.copy()
    queue_stub = next(iter(deployment.api.driver._events.values())).context  # context handle
    queue_id = next(
        i for i, o in daemon.registry._objects[client].items()
        if type(o).__name__ == "CommandQueue"
    )
    bad_event_ids = [driver.new_id(), driver.new_id()]
    init = P.CoalescedBufferUpload(
        queue_id=queue_id,
        buffer_ids=[buf_id, 999999],
        event_ids=bad_event_ids,
        nbytes_list=[before.size, 16],
    )
    bulk_sends_before = driver.stats.bulk_sends
    with pytest.raises(Exception):
        driver.send_bulk(
            [conn], lambda c: init,
            [np.ones(before.size, np.uint8), np.ones(16, np.uint8)],
            before.size + 16,
        )
    # The stream never flowed and the valid section was not applied.
    assert driver.stats.bulk_sends == bulk_sends_before
    np.testing.assert_array_equal(buffers[buf_id].array, before)
    for event_id in bad_event_ids:
        assert event_id not in daemon.registry._objects[client]


def test_merged_sections_register_their_events():
    """Each section of a merged upload still registers its own event on
    the daemon (the unmerged per-buffer behaviour)."""
    dep, _data, _ = _run_two_buffer_kernel(True)
    daemon = dep.daemons[0]
    driver = dep.driver
    # Every event the driver tracks that lives on daemon 0 must resolve.
    owner = daemon.name
    stubs = [s for s in driver._events.values() if s.owner_server == owner]
    assert stubs and all(s.resolved for s in stubs)
