"""Every coherence route moves sections: the bytes a launch may touch
(its compiler access summaries, :mod:`repro.clc.access`), not whole
buffers.  One directed test per route — upload, download, peer hop, and
a read assembled from two daemons — checks the section on the wire and
the bytes against ``NativeAPI``; then the push rule for a partial
write, and the copy a whole overwrite no longer takes."""

import numpy as np
import pytest

import repro.core.protocol.messages as P
from repro.apps.mandelbrot import MANDELBROT_KERNEL, MandelbrotConfig, mandelbrot_reference
from repro.hw import Host, WESTMERE_NODE
from repro.hw.cluster import make_ib_cpu_cluster
from repro.net.gcf import GCFProcess
from repro.net.link import ConnectionReset
from repro.ocl import CL_MEM_READ_WRITE, CL_MEM_WRITE_ONLY, CLError, ErrorCode
from repro.testbed import deploy_dopencl, native_api_on
from repro.tools import cachestat_text

TOUCH = """
__kernel void touch(__global int *x, const int base) {
    int i = (int)get_global_id(0) + base;
    x[i] = x[i] + 1;
}
"""

N = 256  # ints
INIT = np.arange(N, dtype=np.int32) * 3


def _rig(protocol, servers, **options):
    deployment = deploy_dopencl(make_ib_cpu_cluster(servers), coherence_protocol=protocol, **options)
    cl = deployment.api
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:servers]
    ctx = cl.clCreateContext(devices)
    queues = [cl.clCreateCommandQueue(ctx, d) for d in devices]
    program = cl.clCreateProgramWithSource(ctx, TOUCH)
    cl.clBuildProgram(program)
    buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, N * 4)
    return deployment, cl, queues, program, buf


def _touch(cl, program, queue, buf, base, items=16):
    kernel = cl.clCreateKernel(program, "touch")
    cl.clSetKernelArg(kernel, 0, buf)
    cl.clSetKernelArg(kernel, 1, base)
    return cl.clEnqueueNDRangeKernel(queue, kernel, (items,))


def _native(bases):
    """``INIT`` after one ``touch`` per base on ``NativeAPI``."""
    cl = native_api_on(Host(WESTMERE_NODE))
    device = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[0]
    ctx = cl.clCreateContext([device])
    queue = cl.clCreateCommandQueue(ctx, device)
    program = cl.clCreateProgramWithSource(ctx, TOUCH)
    cl.clBuildProgram(program)
    buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, N * 4)
    cl.clEnqueueWriteBuffer(queue, buf, True, 0, INIT)
    for base in bases:
        _touch(cl, program, queue, buf, base)
    return cl.clEnqueueReadBuffer(queue, buf)[0].view(np.int32)


@pytest.fixture
def sent(monkeypatch):
    """Every request the client sends, batched or not, in order."""
    log = []
    batch, request = GCFProcess.request_batch, GCFProcess.request

    def request_batch(self, target, msgs, *args, **kwargs):
        log.extend(msgs)
        return batch(self, target, msgs, *args, **kwargs)

    def single(self, target, msg, t):
        log.append(msg)
        return request(self, target, msg, t)

    monkeypatch.setattr(GCFProcess, "request_batch", request_batch)
    monkeypatch.setattr(GCFProcess, "request", single)
    return log


def _of(log, cls):
    return [m for m in log if type(m) is cls]


def test_an_upload_ships_the_section_the_launch_reads(sent):
    deployment, cl, queues, program, buf = _rig("msi", 2)
    cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    cl.clEnqueueReadBuffer(queues[0], buf)  # the client copy is valid
    del sent[:]
    _touch(cl, program, queues[1], buf, 16)
    got = cl.clEnqueueReadBuffer(queues[1], buf)[0].view(np.int32)
    uploads = [(m.offset, m.nbytes) for m in _of(sent, P.BufferDataUpload)]
    assert uploads == [(64, 64)]
    np.testing.assert_array_equal(got, _native([16]))


def test_a_download_fetches_only_the_section_a_kernel_wrote(sent):
    deployment, cl, queues, program, buf = _rig("msi", 1)
    cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    cl.clEnqueueReadBuffer(queues[0], buf)
    _touch(cl, program, queues[0], buf, 16)
    del sent[:]
    got = cl.clEnqueueReadBuffer(queues[0], buf)[0].view(np.int32)
    (download,) = _of(sent, P.CoalescedBufferDownload)
    assert (download.offsets, download.nbytes_list) == ([64], [64])
    np.testing.assert_array_equal(got, _native([16]))


def test_a_peer_hop_moves_the_section_and_a_read_assembles_two_daemons(sent):
    deployment, cl, queues, program, buf = _rig("mosi", 2)
    stats = deployment.driver.stats
    for _ in range(2):  # the first bounce also creates node 1's copy
        cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
        _touch(cl, program, queues[0], buf, 0)
        _touch(cl, program, queues[1], buf, 0)
        cl.clEnqueueReadBuffer(queues[1], buf)
    cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    _touch(cl, program, queues[0], buf, 0)
    del sent[:]
    trips = stats.round_trips
    _touch(cl, program, queues[1], buf, 0)
    # The hop closed node 0's batch: the first launch and the hop are
    # one round trip.
    assert stats.round_trips == trips + 1
    (hop,) = _of(sent, P.BufferPeerTransferBatch)
    assert (hop.offsets, hop.nbytes_list) == (None, [64])
    del sent[:]
    got = cl.clEnqueueReadBuffer(queues[1], buf)[0].view(np.int32)
    downloads = [(m.offsets, m.nbytes_list) for m in _of(sent, P.CoalescedBufferDownload)]
    assert downloads == [(None, [64]), ([64], [N * 4 - 64])]
    assert stats.round_trips == trips + 3
    np.testing.assert_array_equal(got, _native([0, 0]))
    assert buf.planner.is_valid("client")


@pytest.mark.parametrize("batch_window", [None, 0], ids=["pipeline", "reference"])
def test_partial_touches_bounce_to_the_native_bytes(batch_window):
    deployment, cl, queues, program, buf = _rig("mosi", 2, batch_window=batch_window)
    for op in range(3):
        cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT + op)
        _touch(cl, program, queues[0], buf, 8)
        _touch(cl, program, queues[1], buf, 16)
        got = cl.clEnqueueReadBuffer(queues[1], buf)[0].view(np.int32)
        np.testing.assert_array_equal(got, _native([8, 16]) + op)


def test_no_push_is_hinted_for_a_copy_valid_only_on_its_section():
    """The producer writes 64 bytes of a copy whose other bytes are
    stale: a push of its whole copy would hand the client stale bytes,
    so even a stable producer -> client edge hints none."""
    deployment, cl, queues, program, buf = _rig("msi", 2, push_transfers=True)
    cl.clEnqueueWriteBuffer(queues[1], buf, True, 0, INIT)
    expected = INIT.copy()
    for _ in range(4):
        _touch(cl, program, queues[0], buf, 0)
        expected[:16] += 1
        got = cl.clEnqueueReadBuffer(queues[0], buf)[0].view(np.int32)
        np.testing.assert_array_equal(got, expected)
    assert buf.planner.predict_push_target(queues[0].server.name) == "client"
    assert deployment.driver.stats.speculative_pushes == 0


def test_a_push_is_hinted_when_the_producer_holds_the_whole_copy():
    deployment, cl, queues, program, buf = _rig("msi", 1, push_transfers=True)
    cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    expected = INIT.copy()
    for _ in range(4):
        _touch(cl, program, queues[0], buf, 0)
        expected[:16] += 1
        got = cl.clEnqueueReadBuffer(queues[0], buf)[0].view(np.int32)
        np.testing.assert_array_equal(got, expected)
    assert deployment.driver.stats.speculative_pushes > 0


def test_a_frame_that_overwrites_its_lent_buffer_copies_nothing():
    """``stream_zoom``'s loop on a small frame: each frame's kernel
    writes every byte of a buffer whose storage the previous read lent
    to the client.  Its compiler cover says so, and the daemon takes a
    new array instead of copying the lent one."""
    cfg = MandelbrotConfig(width=48, height=32, max_iter=40)
    deployment = deploy_dopencl(make_ib_cpu_cluster(1), defer_reads=True, push_transfers=False)
    cl = deployment.api
    device = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[0]
    ctx = cl.clCreateContext([device])
    compute_q, read_q = cl.clCreateCommandQueue(ctx, device), cl.clCreateCommandQueue(ctx, device)
    program = cl.clCreateProgramWithSource(ctx, MANDELBROT_KERNEL)
    cl.clBuildProgram(program)
    bufs = [cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, cfg.width * cfg.height * 4) for _ in range(2)]
    outs = []
    for frame in range(4):
        kernel = cl.clCreateKernel(program, "mandelbrot")
        args = [bufs[frame % 2], cfg.width, cfg.height, 0, 1, np.float32(cfg.x0), np.float32(cfg.y0),
                np.float32(cfg.dx), np.float32(cfg.dy), cfg.max_iter]
        for index, value in enumerate(args):
            cl.clSetKernelArg(kernel, index, value)
        cl.clEnqueueNDRangeKernel(compute_q, kernel, (cfg.width, cfg.height))
        if frame > 0:
            outs.append(cl.clEnqueueReadBuffer(read_q, bufs[(frame - 1) % 2], blocking=False)[0])
        cl.clFinish(compute_q)
    storage = [line for line in cachestat_text(deployment).splitlines() if "storage:" in line]
    assert storage[0].endswith("cow_copies=0")
    reference = mandelbrot_reference(cfg)
    for out in outs:
        np.testing.assert_array_equal(out.view(np.int32).reshape(cfg.height, cfg.width), reference)


def test_a_peer_batch_naming_a_section_outside_its_buffer_moves_nothing():
    deployment, cl, queues, program, buf = _rig("mosi", 2)
    cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    _touch(cl, program, queues[0], buf, 0)
    _touch(cl, program, queues[1], buf, 0)
    cl.clFinish(queues[1])
    driver, client = deployment.driver, deployment.driver.gcf.name
    src, dst = (deployment.daemon_on(q.server.name) for q in queues)
    before = dst.registry.get(client, buf.id).array.copy()
    with pytest.raises(CLError) as err:
        driver.roundtrip(
            queues[0].server,
            P.BufferPeerTransferBatch(
                peer_name=dst.name, buffer_ids=[buf.id, buf.id], nbytes_list=[64, 64], offsets=[64, N * 4 - 32]
            ),
        )
    assert err.value.code == ErrorCode.CL_INVALID_VALUE
    np.testing.assert_array_equal(dst.registry.get(client, buf.id).array, before)


PEEK = """
__kernel void peek(__global int *x, __global int *y) {
    int i = (int)get_global_id(0);
    y[i] = x[i];
}
"""


def test_a_launch_that_writes_nothing_hints_no_push():
    """``peek`` binds the buffer to a writable parameter it only reads:
    the launch makes no epoch, so a push it hinted would carry the label
    of the next write's epoch — node 1's below — and the read would take
    node 0's older bytes for current."""
    deployment, cl, queues, program, buf = _rig("msi", 2, push_transfers=True)
    peek = cl.clCreateProgramWithSource(buf.context, PEEK)
    cl.clBuildProgram(peek)
    sink = cl.clCreateBuffer(buf.context, CL_MEM_READ_WRITE, 16 * 4)

    def _peek(queue):
        kernel = cl.clCreateKernel(peek, "peek")
        cl.clSetKernelArg(kernel, 0, buf)
        cl.clSetKernelArg(kernel, 1, sink)
        cl.clEnqueueNDRangeKernel(queue, kernel, (16,))

    cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    for _ in range(3):  # node 0 -> client: a stable push edge
        _touch(cl, program, queues[0], buf, 0)
        cl.clEnqueueReadBuffer(queues[0], buf)
    _peek(queues[1])  # node 1 now holds the section touch writes
    _peek(queues[0])
    _touch(cl, program, queues[1], buf, 0)
    got = cl.clEnqueueReadBuffer(queues[1], buf)[0].view(np.int32)
    np.testing.assert_array_equal(got, _native([0] * 4))


def test_a_read_whose_second_source_dies_returns_no_stale_bytes(monkeypatch):
    """A read assembled from two daemons: node 1's section lands, then
    node 0 is lost before its download leaves.  Its section must not
    stay valid on the client, whose bytes there predate node 0's write:
    every later read fails or returns the current bytes."""
    deployment, cl, queues, program, buf = _rig("mosi", 2)
    driver = deployment.driver
    cl.clEnqueueWriteBuffer(queues[0], buf, True, 0, INIT)
    _touch(cl, program, queues[0], buf, 16)  # node 0: [64, 128)
    _touch(cl, program, queues[1], buf, 0)  # node 1: [0, 64)
    cl.clFinish(queues[1])
    assert buf.planner.client_download_sources() == {q.server.name for q in queues}
    download, sources = driver._download, []

    def crash_the_other(sections, src_name, *args, **kwargs):
        if sources:
            (other,) = {q.server.name for q in queues} - {sources[0]}
            deployment.daemon_on(other).crash()
            driver.transport.declare_lost(driver.connection(other), ConnectionReset("crashed"))
        sources.append(src_name)
        return download(sections, src_name, *args, **kwargs)

    monkeypatch.setattr(driver, "_download", crash_the_other)
    with pytest.raises(CLError):
        cl.clEnqueueReadBuffer(queues[1], buf)
    monkeypatch.undo()
    for _ in range(2):  # the first surfaces the loss itself
        try:
            got = cl.clEnqueueReadBuffer(queues[1], buf)[0].view(np.int32)
        except CLError:
            continue
        np.testing.assert_array_equal(got, _native([16, 0]))
