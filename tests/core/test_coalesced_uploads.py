"""Coherence uploads ride the send window as host writes.

A coherence upload is one ``BufferDataUpload`` per buffer, windowed
behind the copy's creation exactly like ``clEnqueueWriteBuffer``'s: its
bytes — the client copy's lent storage — stream as a section behind the
batch that carries it.  The uploads a launch needs on its daemon ride
the launch's batch and cost no round trip of their own, and they must
leave every MSI/MOSI directory — and the data — in exactly the state the
reference path's one stream per upload does.  The property tests for
the pure regrouping the driver applies
(:func:`repro.core.coherence.directory.split_transfer_plan`) live in
``tests/core/test_coalesced_transfers.py``.
"""

import numpy as np
import pytest

import repro.core.protocol.messages as P
from repro.core.coherence.directory import CLIENT, Transfer
from repro.core.client.stubs import BufferStub
from repro.hw import Host, WESTMERE_NODE
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CLError, ErrorCode
from repro.ocl.memory import Buffer
from repro.testbed import deploy_dopencl, native_api_on

ADD = """
__kernel void add(__global float *out, __global const float *a,
                  __global const float *b, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) out[i] = a[i] + b[i];
}
"""

COPY = """
__kernel void copy(__global float *out, __global const float *x, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) out[i] = x[i];
}
"""


def _spy_batches(monkeypatch, gcf):
    """Record ``(commands, sections)`` of every batch ``gcf`` sends."""
    batches = []

    def spy(target, msgs, t, *args, _send=gcf.request_batch, **kwargs):
        batches.append((list(msgs), kwargs.get("sections") or {}))
        return _send(target, msgs, t, *args, **kwargs)

    monkeypatch.setattr(gcf, "request_batch", spy)
    return batches


# ----------------------------------------------------------------------
# end-to-end: windowed vs reference execution
# ----------------------------------------------------------------------
def _run_two_buffer_kernel(windowed: bool, protocol: str = "msi", monkeypatch=None):
    """``windowed=False`` is the reference path (``batch_window=0``):
    one stream per upload.  Returns the deployment, the result, the
    directories, the round trips the launch and its ``clFinish`` cost,
    and (with ``monkeypatch``) the batches they sent."""
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(2),
        coherence_protocol=protocol,
        batch_window=None if windowed else 0,
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
    batches = _spy_batches(monkeypatch, deployment.driver.gcf) if monkeypatch else None
    # Every buffer argument needs validation on the kernel's server:
    # three uploads to one daemon between sync points.
    before = deployment.driver.stats.round_trips
    api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    launch_round_trips = deployment.driver.stats.round_trips - before
    data, _ = api.clEnqueueReadBuffer(queue, buf_out)
    states = {
        "a": dict(buf_a.coherence.state),
        "b": dict(buf_b.coherence.state),
        "out": dict(buf_out.coherence.state),
    }
    return deployment, data.view(np.float32), states, launch_round_trips, batches


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_merged_uploads_match_unmerged_data_and_directories(protocol):
    _dep_w, data_w, states_w, _, _ = _run_two_buffer_kernel(True, protocol)
    _dep_r, data_r, states_r, _, _ = _run_two_buffer_kernel(False, protocol)
    np.testing.assert_array_equal(data_w, data_r)
    np.testing.assert_allclose(data_w, np.arange(64) + 10.0)
    assert states_w == states_r


def test_coalescing_saves_round_trips_and_bytes(monkeypatch):
    """The three uploads ride the launch's batch, each behind its copy's
    creation and ahead of the launch, their bytes as its sections: the
    launch and its ``clFinish`` cost one batch per daemon (the other
    daemon's carries the context and the build), where the reference
    path pays a round trip per upload init, for the launch event's
    replica on the other daemon and its relay, and for the launch and
    the finish (an upload's event holds no replica: no relay)."""
    dep_w, _, _, trips_w, batches = _run_two_buffer_kernel(True, monkeypatch=monkeypatch)
    dep_r, _, _, trips_r, _ = _run_two_buffer_kernel(False)
    assert (trips_w, trips_r) == (2, 7)
    (launch,) = [b for b in batches if any(type(m) is P.EnqueueKernelRequest for m in b[0])]
    msgs, sections = launch
    kinds = [type(msg) for msg in msgs]
    uploads = [i for i, kind in enumerate(kinds) if kind is P.BufferDataUpload]
    assert len(uploads) == 3 and max(uploads) < kinds.index(P.EnqueueKernelRequest)
    assert sorted(sections) == uploads
    for i in uploads:
        assert kinds[i - 1] is P.CreateBufferRequest
        assert msgs[i - 1].buffer_id == msgs[i].buffer_id
    sw, sr = dep_w.driver.stats, dep_r.driver.stats
    assert sw.round_trips < sr.round_trips and sw.bytes_sent < sr.bytes_sent


def test_windowed_upload_sends_the_bytes_of_its_enqueue():
    """The upload's payload is the client copy's *lent* storage: a
    partial ``clEnqueueWriteBuffer`` of the same buffer before the flush
    copies on write, so the launch still reads the bytes it was enqueued
    behind — as native OpenCL does.  (Were the payload the copy's live
    array, the write would change the windowed bytes in place.)"""
    n = 16
    x = np.arange(n, dtype=np.float32)
    patch = np.full(4, -1.0, dtype=np.float32)
    results = {}
    for name in ("native", "dopencl"):
        if name == "native":
            cl = native_api_on(Host(WESTMERE_NODE))
        else:
            deployment = deploy_dopencl(make_ib_cpu_cluster(1))
            cl = deployment.api
        devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])
        ctx = cl.clCreateContext(devices)
        queue = cl.clCreateCommandQueue(ctx, devices[0])
        src = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
        dst = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, x.nbytes)
        program = cl.clCreateProgramWithSource(ctx, COPY)
        cl.clBuildProgram(program)
        kernel = cl.clCreateKernel(program, "copy")
        cl.clSetKernelArg(kernel, 0, dst)
        cl.clSetKernelArg(kernel, 1, src)
        cl.clSetKernelArg(kernel, 2, n)
        cl.clEnqueueNDRangeKernel(queue, kernel, (n,))
        if name == "dopencl":
            # The upload of ``src`` is windowed, not yet sent.
            assert any(
                type(msg) is P.BufferDataUpload and msg.buffer_id == src.id
                for msg in deployment.driver.window_messages(devices[0].server.name)
            )
        cl.clEnqueueWriteBuffer(queue, src, False, 8, patch)
        cl.clFinish(queue)
        results[name] = [
            cl.clEnqueueReadBuffer(queue, buf)[0].view(np.float32).copy() for buf in (dst, src)
        ]
    for native, dopencl in zip(results["native"], results["dopencl"]):
        np.testing.assert_array_equal(dopencl, native)
    np.testing.assert_array_equal(results["dopencl"][0], x)


def test_a_stale_upload_fails_at_the_sync_point_applying_nothing():
    """A windowed upload naming a buffer its daemon does not hold sends
    nothing when planned; its error surfaces at the next sync point, its
    event is never registered and no copy on the daemon changes."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api, driver = deployment.api, deployment.driver
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    x = np.arange(16, dtype=np.float32)
    held = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, x.nbytes)
    api.clEnqueueWriteBuffer(queue, held, True, 0, x)
    api.clFinish(queue)
    conn, client = queue.server, driver.gcf.name
    daemon = deployment.daemon_on(conn.name)
    copy = daemon.registry.get(client, held.id, Buffer)
    before = copy.array.copy()
    stale = BufferStub(ctx, driver.new_id(), CL_MEM_READ_WRITE, 16)
    stale.holders[conn.name] = None  # the client believes the daemon holds it
    trips = driver.stats.round_trips
    driver._upload([(stale, Transfer(CLIENT, conn.name, "upload", 0, 16))], conn.name, queue)
    assert driver.stats.round_trips == trips  # windowed: nothing sent yet
    (upload,) = [m for m in driver.window_messages(conn.name) if type(m) is P.BufferDataUpload]
    with pytest.raises(CLError) as err:
        api.clFinish(queue)
    assert err.value.code == ErrorCode.CL_INVALID_MEM_OBJECT
    assert daemon.registry.peek(client, upload.event_id) is None
    assert daemon.registry.peek(client, stale.id) is None
    np.testing.assert_array_equal(daemon.registry.get(client, held.id, Buffer).array, before)


def test_merged_sections_register_their_events():
    """Each upload registers its own event on the daemon, and every
    event the driver tracks there resolves."""
    dep, _data, _, _, _ = _run_two_buffer_kernel(True)
    daemon = dep.daemons[0]
    driver = dep.driver
    owner = daemon.name
    stubs = [s for s in driver._events.values() if s.owner_server == owner]
    assert stubs and all(s.resolved for s in stubs)
