"""Who owns the payload bytes: ownership and aliasing on both APIs.

A payload byte is copied where it changes owner — application ->
device, client copy -> application — or where a holder writes a storage
it shares, and nowhere else: bytes that move between copies of a buffer
are lent (``docs/architecture.md`` § Where payload bytes are copied).
These tests hold that rule on ``NativeAPI`` and ``DOpenCLAPI``:

* the copies that must happen do: an application's array is never
  aliased by device memory or by a client copy, and every array a read
  hands out is the application's own;
* the copies that must not happen don't: a whole-buffer write streams
  the application's array to the daemon, a download streams read-only
  views of device memory, and a bounce makes 2 copies (3 on the
  reference path): a read assembled from sections keeps them as pieces
  of the client copy and builds the application's array straight from
  them;
* every copy-on-write site copies a lent storage before writing it, on
  both sides of ``batch_window``;
* a write whose upload fails leaves every copy's bytes and the coherence
  directory as they were, as native OpenCL does.
"""

import numpy as np
import pytest

from repro.core.client.driver import DOpenCLDriver
from repro.core.client.stubs import BufferStub
from repro.hw import Host, WESTMERE_NODE
from repro.hw.cluster import make_ib_cpu_cluster
from repro.net import MessageDropped
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CLError, ErrorCode
from repro.ocl.memory import LentStorage
from repro.ocl.queue import CommandQueue
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl, native_api_on
from repro.tools import cachestat_text

INCR = """
__kernel void incr(__global const int *x, __global int *y) {
    int i = (int)get_global_id(0);
    y[i] = x[i] + 1;
}
"""

N = 64


class Rig:
    """One queue per server, two ``N``-int buffers ``x``/``y`` and
    ``incr(x, y)`` on either API, plus the memory a returned array must
    never alias.  ``batch_window=0`` runs dOpenCL's reference path; two
    servers run MOSI."""

    def __init__(self, kind: str, batch_window=None, servers: int = 1) -> None:
        self.deployment = None
        if kind == "native":
            self.cl = native_api_on(Host(WESTMERE_NODE))
        else:
            self.deployment = deploy_dopencl(
                make_ib_cpu_cluster(servers),
                coherence_protocol="mosi" if servers > 1 else "msi",
                batch_window=batch_window,
            )
            self.cl = self.deployment.api
        cl = self.cl
        devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:servers]
        ctx = self.ctx = cl.clCreateContext(devices)
        self.queues = [cl.clCreateCommandQueue(ctx, device) for device in devices]
        self.queue = self.queues[0]
        self.x = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, N * 4)
        self.y = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, N * 4)
        program = cl.clCreateProgramWithSource(ctx, INCR)
        cl.clBuildProgram(program)
        self.kernel = cl.clCreateKernel(program, "incr")
        cl.clSetKernelArg(self.kernel, 0, self.x)
        cl.clSetKernelArg(self.kernel, 1, self.y)

    def remote(self, buffer, server: int = 0):
        """``buffer``'s device copy on the ``server``-th daemon."""
        daemon = self.deployment.daemons[server]
        return daemon.registry.peek(self.deployment.driver.gcf.name, buffer.id)

    def read(self, buffer, **kwargs) -> np.ndarray:
        return self.cl.clEnqueueReadBuffer(self.queue, buffer, **kwargs)[0]

    def round_trips(self) -> int:
        if self.deployment is None:
            return 0
        return self.deployment.driver.stats.snapshot()["round_trips"]

    def memories(self) -> list:
        """Every device ``Buffer.array`` and every ``BufferStub.array``."""
        if self.deployment is None:
            return [self.x.array, self.y.array]
        client = self.deployment.driver.gcf.name
        out = [self.x.array, self.y.array]
        for daemon in self.deployment.daemons:
            for buffer in (self.x, self.y):
                remote = daemon.registry.peek(client, buffer.id)
                if remote is not None:
                    out.append(remote.array)
        return out

    def assert_owned(self, data: np.ndarray) -> None:
        """``data`` is the application's: writable, owning its memory,
        aliasing no device memory and no client copy."""
        assert data.flags.writeable and data.flags.owndata
        for memory in self.memories():
            assert not np.shares_memory(data, memory)


@pytest.fixture(params=["native", "dopencl"])
def rig(request):
    return Rig(request.param)


def test_blocking_write_is_not_observed_after_the_call(rig):
    """OpenCL: once a blocking write returns, the application may reuse
    its array.  Mutating it must not reach a later read or a kernel."""
    host = np.arange(N, dtype=np.int32)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, host)
    host[:] = -7
    rig.cl.clEnqueueNDRangeKernel(rig.queue, rig.kernel, (N,))
    np.testing.assert_array_equal(rig.read(rig.y).view(np.int32), np.arange(N) + 1)
    np.testing.assert_array_equal(rig.read(rig.x).view(np.int32), np.arange(N))


def test_nonblocking_write_is_not_observed_after_its_event(rig):
    """OpenCL: what a non-blocking write uploads is undefined if the
    application modifies the array before the write's event completes;
    after that the array is the application's again.  The simulator
    applies a write's data effect at enqueue (``CommandQueue`` and the
    daemon's bulk sink copy the bytes before the enqueue returns), so
    that "undefined until complete" window is empty here and the
    completed event only confirms what already holds."""
    host = np.arange(N, dtype=np.int32)
    event = rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, False, 0, host)
    rig.cl.clWaitForEvents([event])
    host[:] = -7
    rig.cl.clEnqueueNDRangeKernel(rig.queue, rig.kernel, (N,))
    np.testing.assert_array_equal(rig.read(rig.y).view(np.int32), np.arange(N) + 1)
    np.testing.assert_array_equal(rig.read(rig.x).view(np.int32), np.arange(N))


def test_every_read_returns_an_array_the_application_owns(rig):
    host = np.arange(N, dtype=np.int32)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, host)
    first = rig.read(rig.x)
    rig.assert_owned(first)
    first[:] = 0
    # The client copy is valid now: the next reads are served from it,
    # and the mutation above must not have reached it.
    before = rig.round_trips()
    again = rig.read(rig.x)
    part = rig.read(rig.x, offset=8, nbytes=16)
    assert rig.round_trips() == before
    for data in (again, part):
        rig.assert_owned(data)
    np.testing.assert_array_equal(again.view(np.int32), host)
    np.testing.assert_array_equal(part.view(np.int32), host[2:6])
    out, event = rig.cl.clEnqueueReadBuffer(rig.queue, rig.x, blocking=False)
    rig.cl.clWaitForEvents([event])
    assert rig.round_trips() == before
    rig.assert_owned(out)
    np.testing.assert_array_equal(out.view(np.int32), host)
    out[:] = 0
    np.testing.assert_array_equal(rig.read(rig.x).view(np.int32), host)


# ----------------------------------------------------------------------
# the elided copies are gone
# ----------------------------------------------------------------------
def test_whole_buffer_write_streams_the_application_array(monkeypatch):
    rig = Rig("dopencl")
    # What the daemon's bulk sink hands to the device write.
    captured = []
    original = CommandQueue.enqueue_write_buffer

    def spy(self, buffer, data, *args, **kwargs):
        captured.append(data)
        return original(self, buffer, data, *args, **kwargs)

    monkeypatch.setattr(CommandQueue, "enqueue_write_buffer", spy)
    host = np.arange(N, dtype=np.int32)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, host)
    (data,) = captured
    assert np.shares_memory(data, host)
    # The client copy was never written: the write invalidated it.
    assert not rig.x.planner.is_valid("client")
    assert not rig.x.array.any()


def test_download_sections_are_read_only_views_of_device_memory(monkeypatch):
    rig = Rig("dopencl")
    sections = []
    gcf = rig.deployment.driver.gcf
    original = gcf.request_batch

    def spy(*args, **kwargs):
        outcome = original(*args, **kwargs)
        for returned in outcome.sections.values():
            sections.extend(data for data, _arrival in returned)
        return outcome

    monkeypatch.setattr(gcf, "request_batch", spy)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, np.arange(N, dtype=np.int32))
    rig.cl.clEnqueueNDRangeKernel(rig.queue, rig.kernel, (N,))
    data = rig.read(rig.y)
    # The read of y gang-revalidates x, its dirty sibling on the daemon.
    daemon = rig.deployment.daemons[0]
    client = rig.deployment.driver.gcf.name
    devices = [daemon.registry.peek(client, b.id).array for b in (rig.y, rig.x)]
    assert len(sections) == 2
    for section, device in zip(sections, devices):
        assert np.shares_memory(section, device)
        assert not section.flags.writeable
    rig.assert_owned(data)


# ----------------------------------------------------------------------
# Buffer.view
# ----------------------------------------------------------------------
def test_view_is_read_only_and_validates_like_the_read_it_replaced():
    rig = Rig("native")
    view = rig.x.view(8, 16)
    assert view.size == 16 and not view.flags.writeable
    assert np.shares_memory(view, rig.x.array)
    assert rig.x.array.flags.writeable
    for offset, nbytes in ((N * 4 - 8, 16), (-1, 4), (0, -1)):
        with pytest.raises(CLError) as err:
            rig.x.view(offset, nbytes)
        assert err.value.code == ErrorCode.CL_INVALID_VALUE
        assert err.value.message == (
            f"range [{offset}, {offset + nbytes}) outside buffer of {N * 4} bytes"
        )
    rig.cl.clReleaseMemObject(rig.x)
    with pytest.raises(CLError) as err:
        rig.x.view(0, 4)
    assert err.value.code == ErrorCode.CL_INVALID_MEM_OBJECT
    assert err.value.message == "buffer was released"


def test_native_self_copy_of_disjoint_ranges():
    """``enqueue_copy_buffer`` copies from a view of the source: a
    disjoint same-buffer copy must still see the pre-copy bytes."""
    rig = Rig("native")
    init = np.arange(N, dtype=np.int32)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, init)
    rig.cl.clEnqueueCopyBuffer(rig.queue, rig.x, rig.x, 0, 128, 128)
    got = rig.read(rig.x).view(np.int32)
    np.testing.assert_array_equal(got, np.concatenate([init[:32], init[:32]]))


# ----------------------------------------------------------------------
# a failed write changes nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["msi", "mosi"])
@pytest.mark.parametrize("owner", ["shared", "client-sole"])
@pytest.mark.parametrize("route", ["whole", "partial", "copy-dst"])
def test_failed_write_leaves_every_copy_and_the_directory(route, owner, protocol):
    """The upload of B is dropped: the write raises, and a read must
    still return A.  ``shared``: A was written to node 0 and read back
    (client ``S`` beside node 0).  ``client-sole``: A came in through
    ``CL_MEM_COPY_HOST_PTR`` and was never uploaded, so the client copy
    is the only one.  Previously the client copy kept B while the
    directory still called it valid."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), coherence_protocol=protocol)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])[:2]
    ctx = api.clCreateContext(devices)
    q0, q1 = (api.clCreateCommandQueue(ctx, device) for device in devices)
    a = np.arange(4, dtype=np.int64)
    b = np.full(4, 99, dtype=np.int64)
    if owner == "client-sole":
        buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, a.nbytes, a)
    else:
        buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, a.nbytes)
        api.clEnqueueWriteBuffer(q0, buf, True, 0, a)
        api.clEnqueueReadBuffer(q0, buf)
    src = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, b.nbytes, b)
    api.clFinish(q1)
    state = dict(buf.coherence.state)
    assert buf.planner.is_valid("client")
    install_fault_injector(
        deployment.cluster.network, FaultPlan([FaultAction("drop", tag_prefix="bulk:")])
    )
    with pytest.raises(MessageDropped):
        if route == "whole":
            api.clEnqueueWriteBuffer(q1, buf, True, 0, b)
        elif route == "partial":
            api.clEnqueueWriteBuffer(q1, buf, True, 8, b[:2])
        else:
            api.clEnqueueCopyBuffer(q1, src, buf, 8, 8, 16)
    assert dict(buf.coherence.state) == state
    data, _ = api.clEnqueueReadBuffer(q0, buf)
    np.testing.assert_array_equal(data.view(np.int64), a)


# ----------------------------------------------------------------------
# lent storage: a copy is taken where a shared storage is written
# ----------------------------------------------------------------------
#: dOpenCL's two sides: the pipeline and the reference path.
SIDES = [pytest.param(None, id="pipeline"), pytest.param(0, id="reference")]

BUMP = """
__kernel void bump(__global int *x) {
    int i = (int)get_global_id(0);
    x[i] = x[i] + 1;
}
"""

ALIAS = """
__kernel void alias(__global const int *x, __global int *y) {
    int i = (int)get_global_id(0);
    y[i] = 0;
    y[i] = y[i] + x[i] + 1;
}
"""


def _downloaded_y(rig) -> np.ndarray:
    """``y = x + 1`` computed on the daemon and read back: the client
    copy of ``y`` adopts the daemon's lent storage."""
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, np.arange(N, dtype=np.int32))
    rig.cl.clEnqueueNDRangeKernel(rig.queue, rig.kernel, (N,))
    rig.read(rig.y)
    assert rig.y.lent and rig.remote(rig.y).lent
    assert np.shares_memory(rig.y.array, rig.remote(rig.y).array)
    return rig.y.array


@pytest.mark.parametrize("window", SIDES)
def test_a_kernel_writing_a_downloaded_buffer_leaves_the_client_copy(window):
    rig = Rig("dopencl", window)
    client_copy = _downloaded_y(rig)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, np.full(N, 7, np.int32))
    rig.cl.clEnqueueNDRangeKernel(rig.queue, rig.kernel, (N,))
    rig.cl.clFinish(rig.queue)
    # ``incr`` writes every byte of ``y`` and reads none (its compiler
    # cover): the daemon takes a new array instead of copying the lent one.
    assert rig.remote(rig.y).cow_copies == 0
    assert not np.shares_memory(client_copy, rig.remote(rig.y).array)
    np.testing.assert_array_equal(client_copy.view(np.int32), np.arange(N) + 1)
    np.testing.assert_array_equal(rig.read(rig.y).view(np.int32), 8)


@pytest.mark.parametrize("window", SIDES)
def test_a_partial_write_over_a_lent_client_copy_copies_it_first(window):
    rig = Rig("dopencl", window)
    _downloaded_y(rig)
    lender = rig.remote(rig.y).array
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.y, True, 8, np.full(2, -1, np.int32))
    assert rig.y.cow_copies == 1
    expected = np.arange(N, dtype=np.int32) + 1
    np.testing.assert_array_equal(lender.view(np.int32), expected)
    expected[2:4] = -1
    np.testing.assert_array_equal(rig.read(rig.y).view(np.int32), expected)


@pytest.mark.parametrize("window", SIDES)
def test_a_failed_partial_write_over_a_lent_client_copy_is_undone(window):
    rig = Rig("dopencl", window)
    _downloaded_y(rig)
    lender = rig.remote(rig.y).array
    install_fault_injector(
        rig.deployment.cluster.network, FaultPlan([FaultAction("drop", tag_prefix="bulk:")])
    )
    with pytest.raises(MessageDropped):
        rig.cl.clEnqueueWriteBuffer(rig.queue, rig.y, True, 8, np.full(2, -1, np.int32))
    expected = np.arange(N, dtype=np.int32) + 1
    np.testing.assert_array_equal(lender.view(np.int32), expected)
    assert rig.y.planner.is_valid("client")
    np.testing.assert_array_equal(rig.read(rig.y).view(np.int32), expected)


@pytest.mark.parametrize("window", SIDES)
def test_a_staged_push_applied_over_a_lent_copy_keeps_its_bytes(window):
    """Produced on the daemon and read by the client every round: from
    the fourth round on, the kernel's completion pushes ``y`` and the
    read applies the push over the copy the last download lent."""
    rig = Rig("dopencl", window)
    for r in range(4):
        lent = rig.y.array
        rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, np.arange(N, dtype=np.int32) * r)
        rig.cl.clEnqueueNDRangeKernel(rig.queue, rig.kernel, (N,))
        rig.cl.clFinish(rig.queue)
        np.testing.assert_array_equal(
            rig.read(rig.y).view(np.int32), np.arange(N) * r + 1
        )
    assert rig.deployment.driver.stats.push_commits == 1
    np.testing.assert_array_equal(lent.view(np.int32), np.arange(N) * 2 + 1)
    pushed = rig.y.array
    assert rig.y.lent and np.shares_memory(pushed, rig.remote(rig.y).array)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, np.full(N, 7, np.int32))
    rig.cl.clEnqueueNDRangeKernel(rig.queue, rig.kernel, (N,))
    rig.cl.clFinish(rig.queue)
    np.testing.assert_array_equal(pushed.view(np.int32), np.arange(N) * 3 + 1)
    np.testing.assert_array_equal(rig.read(rig.y).view(np.int32), 8)


@pytest.mark.parametrize("window", SIDES)
def test_a_peer_transferred_copy_keeps_its_bytes_when_the_source_is_rewritten(window):
    rig = Rig("dopencl", window, servers=2)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, np.arange(N, dtype=np.int32))
    rig.cl.clEnqueueNDRangeKernel(rig.queues[1], rig.kernel, (N,))
    rig.cl.clFinish(rig.queues[1])
    adopted = rig.remote(rig.x, 1).array
    assert np.shares_memory(adopted, rig.remote(rig.x, 0).array)
    rig.cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, np.full(N, -5, np.int32))
    np.testing.assert_array_equal(adopted.view(np.int32), np.arange(N))
    np.testing.assert_array_equal(rig.remote(rig.x, 0).array.view(np.int32), -5)
    np.testing.assert_array_equal(rig.read(rig.y).view(np.int32), np.arange(N) + 1)


def _alias_launch(rig) -> np.ndarray:
    """``alias(x, x)``: one buffer bound as a ``const`` and as a
    writable argument, after the daemon lent ``x`` to a read."""
    cl = rig.cl
    cl.clEnqueueWriteBuffer(rig.queue, rig.x, True, 0, np.arange(N, dtype=np.int32))
    rig.read(rig.x)
    program = cl.clCreateProgramWithSource(rig.ctx, ALIAS)
    cl.clBuildProgram(program)
    kernel = cl.clCreateKernel(program, "alias")
    cl.clSetKernelArg(kernel, 0, rig.x)
    cl.clSetKernelArg(kernel, 1, rig.x)
    cl.clEnqueueNDRangeKernel(rig.queue, kernel, (N,))
    return rig.read(rig.x).view(np.int32)


@pytest.mark.parametrize("window", SIDES)
def test_a_buffer_bound_as_const_and_writable_gets_one_storage(window):
    rig = Rig("dopencl", window)
    got = _alias_launch(rig)
    assert rig.remote(rig.x).cow_copies == 1
    np.testing.assert_array_equal(got, _alias_launch(Rig("native")))
    np.testing.assert_array_equal(got, 1)


# ----------------------------------------------------------------------
# the copy census of one bounce
# ----------------------------------------------------------------------
@pytest.mark.parametrize("window", SIDES)
def test_a_bounce_copies_the_payload_twice_on_the_pipeline(window, monkeypatch):
    """``bulk_pingpong``'s op on 1 MiB, twice: a host write to node 0, a
    kernel there, a kernel on node 1 (a MOSI peer transfer) and a read
    back.  Each copy counted moves more than half the buffer.

    On the pipeline the peer transfer moves the 256 B the kernels touch
    (their compiler summaries) and the read is assembled from node 1's
    256 B and node 0's rest: two copies, the host write into node 0's
    memory (a new array the second time, node 0's old one being lent)
    and the array the read hands out, built straight from the client
    copy's two pieces — node 1's section, copied where it left, and a
    view of node 0's storage.  Node 1's storage is never shared, so its
    kernel copies nothing.  The reference path has no summaries and
    moves whole objects, which are lent: three copies, the host write,
    node 1's kernel writing its adopted copy, and the read."""
    nbytes = 1 << 20
    copies = []

    def count(cls, name, copied):
        original = getattr(cls, name)

        def wrapper(self, *args):
            if self.size == nbytes and 2 * copied(self, *args) > nbytes:
                copies.append(name)
            return original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    count(LentStorage, "store", lambda self, offset, raw: raw.size)
    count(LentStorage, "own", lambda self, keep=True: nbytes if self.lent and keep else 0)
    count(BufferStub, "read_host", lambda self, offset, size: size)
    count(BufferStub, "flatten", lambda self: nbytes)
    rig = Rig("dopencl", window, servers=2)
    cl = rig.cl
    buf = cl.clCreateBuffer(rig.ctx, CL_MEM_READ_WRITE, nbytes)
    program = cl.clCreateProgramWithSource(rig.ctx, BUMP)
    cl.clBuildProgram(program)
    kernel = cl.clCreateKernel(program, "bump")
    cl.clSetKernelArg(kernel, 0, buf)
    for bounce in range(2):
        del copies[:]
        sent = np.arange(nbytes // 4, dtype=np.int32) * (bounce + 1)
        cl.clEnqueueWriteBuffer(rig.queues[0], buf, True, 0, sent)
        cl.clEnqueueNDRangeKernel(rig.queues[0], kernel, (64,))
        cl.clEnqueueNDRangeKernel(rig.queues[1], kernel, (64,))
        got, _ = cl.clEnqueueReadBuffer(rig.queues[1], buf)
        sent[:64] += 2
        np.testing.assert_array_equal(got.view(np.int32), sent)
        assert copies == (["store", "read_host"] if window is None else ["store", "own", "read_host"])
    node0, node1 = rig.remote(buf, 0).array, rig.remote(buf, 1).array
    if window is None:
        assert [(start, piece.size) for start, piece in buf.pieces] == [(0, 256), (256, nbytes - 256)]
        assert np.shares_memory(buf.pieces[1][1], node0)
        client = [piece for _, piece in buf.pieces]
    else:
        assert buf.pieces is None
        client = [buf.array]
    # Every buffer-sized storage is node 0's, node 1's or the
    # application's: the client copy holds none of its own.
    storages = []
    for memory in (node0, node1, *client, got):
        if 2 * memory.size > nbytes and not any(np.shares_memory(memory, seen) for seen in storages):
            storages.append(memory)
    assert len(storages) == 3
    # Pipeline: node 0 lent its storage to the client copy's piece, and
    # nothing else is shared.  Reference: node 0 lent its copy to node 1,
    # node 1 lent the copy its kernel wrote to the client, and the
    # client adopted that one.
    text = cachestat_text(rig.deployment)
    assert [line for line in text.splitlines() if "storage:" in line] == (
        [
            "  storage: lent=1 cow_copies=0",
            "  storage: lent=0 cow_copies=0",
            "  storage: lent=1 cow_copies=0",
        ]
        if window is None
        else [
            "  storage: lent=1 cow_copies=0",
            "  storage: lent=1 cow_copies=2",
            "  storage: lent=1 cow_copies=0",
        ]
    )
    assert (f"  pieces: #{buf.id}=2" in text.splitlines()) == (window is None)


# ----------------------------------------------------------------------
# a client copy held in pieces: a read copies out of them, and every
# other user of the copy merges them first
# ----------------------------------------------------------------------
PEEK = """
__kernel void peek(__global const int *x, __global int *y, const int n) {
    int i = (int)get_global_id(0);
    y[i] = x[i % n];
}
"""

#: Bytes of the assembled buffer: node 1's 256 B section is copied where
#: it leaves, node 0's 3 840 B are a view of its storage.
ASSEMBLED = 4096


class Assembled:
    """``bump`` over the first 256 B of an ``ASSEMBLED``-byte buffer on
    node 0, then on node 1, on either API (``NativeAPI`` runs both
    launches on its one queue).  On dOpenCL the next read of the buffer
    is assembled from node 1's 256 B and node 0's rest, and the client
    copy keeps the two sections as its pieces."""

    def __init__(self, kind: str, protocol: str = "mosi") -> None:
        self.deployment = None
        if kind == "native":
            self.cl = native_api_on(Host(WESTMERE_NODE))
            devices = self.cl.clGetDeviceIDs(self.cl.clGetPlatformIDs()[0])[:1]
        else:
            self.deployment = deploy_dopencl(make_ib_cpu_cluster(2), coherence_protocol=protocol)
            self.cl = self.deployment.api
            devices = self.cl.clGetDeviceIDs(self.cl.clGetPlatformIDs()[0])[:2]
        cl = self.cl
        self.ctx = cl.clCreateContext(devices)
        self.queues = [cl.clCreateCommandQueue(self.ctx, d) for d in devices]
        if kind == "native":
            self.queues *= 2
        self.buf = cl.clCreateBuffer(self.ctx, CL_MEM_READ_WRITE, ASSEMBLED)
        self.program = cl.clCreateProgramWithSource(self.ctx, BUMP + PEEK)
        cl.clBuildProgram(self.program)
        self.bump = cl.clCreateKernel(self.program, "bump")
        cl.clSetKernelArg(self.bump, 0, self.buf)
        init = np.arange(ASSEMBLED // 4, dtype=np.int32)
        cl.clEnqueueWriteBuffer(self.queues[0], self.buf, True, 0, init)
        for queue in self.queues:
            cl.clEnqueueNDRangeKernel(queue, self.bump, (64,))

    def read(self, buffer=None, **kwargs) -> np.ndarray:
        """A blocking read on node 1's queue."""
        return self.cl.clEnqueueReadBuffer(self.queues[1], buffer or self.buf, **kwargs)[0]

    def assert_in_pieces(self) -> None:
        """On dOpenCL the client copy holds node 1's section and node 0's."""
        if self.deployment is not None:
            assert [(s, p.size) for s, p in self.buf.pieces] == [(0, 256), (256, ASSEMBLED - 256)]

    def round_trips(self) -> int:
        return self.deployment.driver.stats.round_trips if self.deployment else 0


def _on_both(run, protocol: str = "mosi") -> Assembled:
    """``run(rig)`` on dOpenCL and on ``NativeAPI`` returns the same
    bytes; the dOpenCL rig is returned for its own checks."""
    rig = Assembled("dopencl", protocol)
    np.testing.assert_array_equal(run(rig), run(Assembled("native")))
    return rig


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_partial_write_over_a_copy_in_pieces_merges_them_first(protocol):
    def run(rig):
        rig.read()
        rig.assert_in_pieces()
        rig.cl.clEnqueueWriteBuffer(rig.queues[0], rig.buf, True, 200, np.full(30, -1, np.int32))
        return rig.read()

    _on_both(run, protocol)


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_failed_partial_write_over_a_copy_in_pieces_is_undone(protocol):
    """The write's upload is dropped: the merged copy gets its bytes
    back, stays valid, and a read returns what it did before."""

    def run(rig):
        before = rig.read()
        rig.assert_in_pieces()
        if rig.deployment is not None:
            install_fault_injector(
                rig.deployment.cluster.network, FaultPlan([FaultAction("drop", tag_prefix="bulk:")])
            )
            with pytest.raises(MessageDropped):
                rig.cl.clEnqueueWriteBuffer(rig.queues[0], rig.buf, True, 200, np.full(30, -1, np.int32))
            assert rig.buf.planner.is_valid("client") and rig.buf.pieces is None
        np.testing.assert_array_equal(rig.read(), before)
        return rig.read()

    _on_both(run, protocol)


def test_a_coherence_upload_of_a_copy_in_pieces_sends_the_merged_bytes(monkeypatch):
    """MSI: node 0 lacks the 256 B node 1 wrote, and the client copy is
    the upload's source: its pieces are merged, and the upload lends the
    merged array."""
    uploads = []
    original = DOpenCLDriver.upload_write

    def spy(self, queue, buffer, init):
        cut = len(buffer.pieces)
        original(self, queue, buffer, init)
        uploads.append((cut, buffer.pieces, buffer.lent, init.offset, init.nbytes))

    monkeypatch.setattr(DOpenCLDriver, "upload_write", spy)

    def run(rig):
        rig.read()
        rig.assert_in_pieces()
        rig.cl.clEnqueueNDRangeKernel(rig.queues[0], rig.bump, (64,))
        return rig.read()

    _on_both(run, "msi")
    # Node 1's set-up launch uploads the 256 B the client just took from
    # node 0 (also a copy in pieces), node 0's the 256 B node 1 wrote.
    assert uploads == [(2, None, True, 0, 256)] * 2


def test_a_copy_from_a_copy_in_pieces_reads_the_merged_bytes():
    def run(rig):
        rig.read()
        rig.assert_in_pieces()
        whole, part = (rig.cl.clCreateBuffer(rig.ctx, CL_MEM_READ_WRITE, ASSEMBLED) for _ in range(2))
        rig.cl.clEnqueueCopyBuffer(rig.queues[0], rig.buf, whole)
        rig.cl.clEnqueueCopyBuffer(rig.queues[0], rig.buf, part, 200, 40, 400)
        return np.concatenate([rig.read(whole), rig.read(part)])

    _on_both(run)


def test_a_staged_push_applied_over_a_copy_in_pieces_replaces_them(monkeypatch):
    """MOSI: once ``peek`` made node 1 hold the whole buffer, its
    ``bump`` rounds, each read back by the client, push the buffer; the
    first push applies over the two pieces the last download left, and
    the copy adopts node 1's storage whole."""
    cuts = []
    original = DOpenCLDriver._apply_staged_push

    def spy(self, buffer):
        cut = buffer.pieces and len(buffer.pieces)
        applied = original(self, buffer)
        if applied:
            cuts.append(cut)
        return applied

    monkeypatch.setattr(DOpenCLDriver, "_apply_staged_push", spy)

    def run(rig):
        out = [rig.read()]
        rig.assert_in_pieces()
        y = rig.cl.clCreateBuffer(rig.ctx, CL_MEM_READ_WRITE, 4)
        peek = rig.cl.clCreateKernel(rig.program, "peek")
        for index, value in enumerate((rig.buf, y, np.int32(ASSEMBLED // 4))):
            rig.cl.clSetKernelArg(peek, index, value)
        rig.cl.clEnqueueNDRangeKernel(rig.queues[1], peek, (1,))
        for _ in range(4):
            rig.cl.clEnqueueNDRangeKernel(rig.queues[1], rig.bump, (64,))
            rig.cl.clFinish(rig.queues[1])
            out.append(rig.read())
        return np.concatenate(out)

    rig = _on_both(run)
    assert cuts[0] == 2 and rig.buf.pieces is None
    node1 = rig.deployment.daemons[1].registry.peek(rig.deployment.driver.gcf.name, rig.buf.id)
    assert rig.buf.lent and np.shares_memory(rig.buf.array, node1.array)


def test_a_deferred_read_copies_straight_out_of_the_pieces():
    """A deferred read that assembles the copy, then one served from its
    pieces (no round trip) across the cut at 256 B."""

    def run(rig):
        first, event = rig.cl.clEnqueueReadBuffer(rig.queues[1], rig.buf, blocking=False)
        rig.cl.clWaitForEvents([event])
        rig.assert_in_pieces()
        trips = rig.round_trips()
        part, event = rig.cl.clEnqueueReadBuffer(rig.queues[1], rig.buf, False, 200, 400)
        rig.cl.clWaitForEvents([event])
        rig.assert_in_pieces()
        assert rig.round_trips() == trips
        return np.concatenate([first, part])

    _on_both(run)


SHIFT = """
__kernel void shift(__global int *x, const int base) {
    int i = (int)get_global_id(0);
    x[base + i] = x[base + i] + 1;
}
"""


def test_a_copy_cut_finer_than_three_pieces_a_segment_is_merged():
    """One daemon: each round a kernel bumps 64 B further into the buffer
    and the client reads it back, landing that section alone.  The first
    read cuts the copy into three pieces in the directory's one segment;
    the next cut makes five, and the copy is merged into one private
    array instead."""
    cuts = []

    def run(cl, deployment=None):
        device = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[0]
        ctx = cl.clCreateContext([device])
        queue = cl.clCreateCommandQueue(ctx, device)
        buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, ASSEMBLED)
        program = cl.clCreateProgramWithSource(ctx, SHIFT)
        cl.clBuildProgram(program)
        kernel = cl.clCreateKernel(program, "shift")
        cl.clSetKernelArg(kernel, 0, buf)
        cl.clEnqueueWriteBuffer(queue, buf, True, 0, np.arange(ASSEMBLED // 4, dtype=np.int32))
        out = [cl.clEnqueueReadBuffer(queue, buf)[0]]
        for base in (64, 128):
            cl.clSetKernelArg(kernel, 1, np.int32(base))
            cl.clEnqueueNDRangeKernel(queue, kernel, (16,))
            out.append(cl.clEnqueueReadBuffer(queue, buf)[0])
            if deployment is not None:
                cuts.append((buf.pieces and len(buf.pieces), len(buf.coherence.segments), buf.lent))
        return np.concatenate(out)

    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    np.testing.assert_array_equal(
        run(deployment.api, deployment), run(native_api_on(Host(WESTMERE_NODE)))
    )
    assert cuts == [(3, 1, True), (None, 1, False)]
