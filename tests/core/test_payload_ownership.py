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
  views of device memory, and a bounce makes 3 copies;
* every copy-on-write site copies a lent storage before writing it, on
  both sides of ``batch_window``;
* a write whose upload fails leaves every copy's bytes and the coherence
  directory as they were, as native OpenCL does.
"""

import numpy as np
import pytest

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
def test_a_bounce_copies_the_payload_three_times(window, monkeypatch):
    """``bulk_pingpong``'s op on 1 MiB, twice: a host write to node 0, a
    kernel there, a kernel on node 1 (a MOSI peer transfer) and a read
    back.  Three copies of more than half the buffer each time.

    On the pipeline the peer transfer moves the 256 B the kernels touch
    (their compiler summaries) and the read is assembled from node 1's
    256 B and node 0's rest: the host write into node 0's memory (a new
    array the second time, node 0's old one being lent), the client
    copy taking node 0's section, and the array the read hands out.
    The small sections are copied where they leave, so node 1's storage
    is never shared and its kernel copies nothing.  The reference path
    has no summaries and moves whole objects, which are lent: the host
    write, node 1's kernel writing its adopted copy, and the read."""
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
        assert copies == (["store", "store", "read_host"] if window is None else ["store", "own", "read_host"])
    # Every copy is its own storage: node 0's, node 1's, the client's
    # (on the reference path node 1's, adopted) and the application's.
    storages = []
    for memory in (rig.remote(buf, 0).array, rig.remote(buf, 1).array, buf.array, got):
        if not any(np.shares_memory(memory, seen) for seen in storages):
            storages.append(memory)
    assert len(storages) == (4 if window is None else 3)
    # Pipeline: node 0 lent its storage for the client's section, and
    # nothing else is shared.  Reference: node 0 lent its copy to node 1,
    # node 1 lent the copy its kernel wrote to the client, and the
    # client adopted that one.
    text = cachestat_text(rig.deployment)
    assert [line for line in text.splitlines() if "storage:" in line] == (
        [
            "  storage: lent=1 cow_copies=0",
            "  storage: lent=0 cow_copies=0",
            "  storage: lent=0 cow_copies=0",
        ]
        if window is None
        else [
            "  storage: lent=1 cow_copies=0",
            "  storage: lent=1 cow_copies=2",
            "  storage: lent=1 cow_copies=0",
        ]
    )
