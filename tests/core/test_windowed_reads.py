"""Reads ride the send window: a download streams back inside the batch
that drains its producer.

On the pipeline a coherence download is a windowed
``CoalescedBufferDownload`` at the end of the relevant prefix its read's
drain dispatches to the source daemon, so the producer's batch and the
download are one round trip; each section streams back from its read's
completion, never behind the batch reply.  Pending deferred reads ride
``clFinish``'s drain ahead of its folded ``FinishRequest``.  Two
causality rules ride along: a wait list keeps an event whose completion
has not reached the client clock, and a coherence transfer reads its
source copy no earlier than that copy's last write lands.  Bytes are
checked against ``NativeAPI``.
"""

import numpy as np
import pytest

from repro.bench.conformance import CausalityProbe
from repro.core.client.resilience import RetryPolicy
from repro.core.coherence.directory import State
from repro.core.protocol import messages as P
from repro.hw import WESTMERE_NODE, Host
from repro.hw.cluster import make_ib_cpu_cluster
from repro.hw.specs import GIGABIT_ETHERNET
from repro.ocl import CL_MEM_READ_WRITE, CLError, NativeAPI
from repro.ocl.constants import CL_COMPLETE, ErrorCode
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl

SOURCE = """
__kernel void spin(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    float a = x[i];
    for (int k = 0; k < n; k++) a = a * 0.5f + f;
    x[i] = a;
}
"""

N = 1024
SHORT, LONG = 2, 20000


def _rig(n_servers=1, link=None, **kwargs):
    """A context over every device of an ``n_servers`` CPU cluster, one
    queue per device and a built ``spin`` program, all settled; the
    deployment's ``causality`` is a :class:`CausalityProbe` watching it
    from the start."""
    cluster = make_ib_cpu_cluster(n_servers, **({"link": link} if link else {}))
    deployment = deploy_dopencl(cluster, **kwargs)
    deployment.causality = CausalityProbe(deployment)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, device) for device in devices]
    program = api.clCreateProgramWithSource(ctx, SOURCE)
    api.clBuildProgram(program)
    for queue in queues:
        api.clFinish(queue)
    return deployment, api, ctx, queues, program


def _spin(cl, program, queue, buf, f, n=SHORT, wait_for=None):
    kernel = cl.clCreateKernel(program, "spin")
    for index, value in enumerate((buf, np.float32(f), n)):
        cl.clSetKernelArg(kernel, index, value)
    return cl.clEnqueueNDRangeKernel(queue, kernel, (N,), wait_for=wait_for)


def _expected(*launches):
    """What ``spin`` leaves in a zeroed buffer after ``launches`` —
    ``(f, n)`` pairs, or a bare ``f`` for ``n = SHORT`` — in turn,
    computed by ``NativeAPI``."""
    api = NativeAPI(Host(WESTMERE_NODE))
    device = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])[0]
    ctx = api.clCreateContext([device])
    queue = api.clCreateCommandQueue(ctx, device)
    program = api.clCreateProgramWithSource(ctx, SOURCE)
    api.clBuildProgram(program)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    for launch in launches:
        f, n = launch if isinstance(launch, tuple) else (launch, SHORT)
        _spin(api, program, queue, buf, f, n)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    return data


def _tags(monkeypatch, deployment):
    """Record the tag of every message leg that crosses the network."""
    network = deployment.cluster.network
    tags = []
    transfer = network.transfer

    def spy(src, dst, ready, nbytes, tag=None):
        tags.append(tag)
        return transfer(src, dst, ready, nbytes, tag=tag)

    monkeypatch.setattr(network, "transfer", spy)
    return tags


def _batches(monkeypatch, deployment):
    """Record the command classes of every batch the client sends."""
    gcf = deployment.driver.gcf
    sent = []
    request_batch = gcf.request_batch

    def spy(target, msgs, t, **kwargs):
        sent.append([type(m).__name__ for m in msgs])
        return request_batch(target, msgs, t, **kwargs)

    monkeypatch.setattr(gcf, "request_batch", spy)
    return sent


#: What a launch's batch carries ahead of it for a copy its daemon
#: lacks: the copy's creation and its coherence upload.
UPLOAD = ["CreateBufferRequest", "BufferDataUpload"]


def _round_trips(deployment):
    return deployment.driver.stats.round_trips


# ----------------------------------------------------------------------
# the folded download
# ----------------------------------------------------------------------
def test_a_blocking_read_and_its_producer_are_one_round_trip(monkeypatch):
    """The launch and the download ride one batch, behind the copy's
    creation and its upload; the upload's section streams behind the
    batch, the download's back ahead of the (bare) batch reply, and no
    fetch is sent."""
    deployment, api, ctx, (queue,), program = _rig()
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queue, buf, 1.5)  # windows the zeroed copy's upload and the launch
    tags, batches = _tags(monkeypatch, deployment), _batches(monkeypatch, deployment)
    before = _round_trips(deployment)
    data, event = api.clEnqueueReadBuffer(queue, buf)
    assert _round_trips(deployment) - before == 1
    assert batches == [UPLOAD + ["EnqueueKernelRequest", "CoalescedBufferDownload"]]
    assert [t for t in tags if t != "EventCompleteNotification"] == [
        "CommandBatch", "bulk:BufferDataUpload", "bulk:CoalescedBufferDownload",
        "CommandBatchResponse",
    ]
    assert deployment.driver.stats.bulk_fetches == 0
    np.testing.assert_array_equal(data, _expected(1.5))
    assert event.completion_arrival <= api.now


def test_a_gang_read_revalidates_its_sibling_in_the_same_download():
    """Two results produced on one daemon: the first read downloads both
    in its producers' batch, the second costs nothing."""
    deployment, api, ctx, (queue,), program = _rig()
    a = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    b = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queue, a, 1.5)
    _spin(api, program, queue, b, 0.25)
    before = _round_trips(deployment)  # the uploads and launches are all windowed
    data_b, _ = api.clEnqueueReadBuffer(queue, b)
    data_a, _ = api.clEnqueueReadBuffer(queue, a)
    assert _round_trips(deployment) - before == 1
    stats = deployment.driver.stats
    assert stats.coalesced_reads == 1 and stats.coalesced_read_sections == 2
    np.testing.assert_array_equal(data_a, _expected(1.5))
    np.testing.assert_array_equal(data_b, _expected(0.25))


def test_a_deferred_read_rides_the_finish_drain(monkeypatch):
    """``clFinish`` with a pending deferred read sends one batch: the
    next launch (behind its copy's upload) and the download, no Finish.  The section leaves at its
    read's completion, so it lands before the notification of the long
    kernel that ends the ``clFinish``."""
    deployment, api, ctx, (queue,), program = _rig(link=GIGABIT_ETHERNET)
    read_q = api.clCreateCommandQueue(ctx, queue.device)
    a = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    b = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queue, a, 1.5)
    api.clFinish(queue)
    long_launch = _spin(api, program, queue, b, 0.5, n=LONG)
    out, event = api.clEnqueueReadBuffer(read_q, a, blocking=False)
    batches = _batches(monkeypatch, deployment)
    before = _round_trips(deployment)
    api.clFinish(queue)
    assert _round_trips(deployment) - before == 1
    # A deferred read downloads on the daemon's internal transfer queue,
    # created (windowed) by its first use.
    assert batches == [UPLOAD + ["EnqueueKernelRequest", "CreateQueueRequest", "CoalescedBufferDownload"]]
    assert event.completion_arrival < long_launch.completion_arrival == api.now
    np.testing.assert_array_equal(out, _expected(1.5))


def test_a_deferred_read_at_wait_rides_its_producers_batch():
    """``clWaitForEvents`` on a deferred read whose dependencies already
    reached the client (a queue of its own: no in-order predecessor)
    folds the download into the drain of its producer."""
    deployment, api, ctx, (queue,), program = _rig()
    read_q = api.clCreateCommandQueue(ctx, queue.device)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queue, buf, 1.5)
    out, event = api.clEnqueueReadBuffer(read_q, buf, blocking=False)
    before = _round_trips(deployment)
    api.clWaitForEvents([event])
    assert _round_trips(deployment) - before == 1
    np.testing.assert_array_equal(out, _expected(1.5))


def test_an_msi_launch_leg_downloads_in_the_producers_batch(monkeypatch):
    """Under MSI a launch on node01 consuming node00's result downloads
    it in the batch that carries the producer, then windows its upload
    to node01."""
    deployment, api, ctx, queues, program = _rig(2, coherence_protocol="msi")
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queues[0], buf, 1.5)
    batches = _batches(monkeypatch, deployment)
    before = _round_trips(deployment)
    _spin(api, program, queues[1], buf, 0.25)
    # node00's internal transfer queue is created in the same batch.
    assert batches == [UPLOAD + ["EnqueueKernelRequest", "CreateQueueRequest", "CoalescedBufferDownload"]]
    assert _round_trips(deployment) - before == 1
    windowed = deployment.driver.window_messages("node01")
    assert "BufferDataUpload" in [type(m).__name__ for m in windowed]
    data, _ = api.clEnqueueReadBuffer(queues[1], buf)
    np.testing.assert_array_equal(data, _expected(1.5, 0.25))


def test_a_gated_producer_fails_the_read_and_rolls_the_directory_back():
    """A producer gated on a user event the application has not set:
    the read fails as gated, the client copy stays invalid, and once the
    event is set the read returns ``NativeAPI``'s bytes."""
    deployment, api, ctx, (queue,), program = _rig()
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    gate = api.clCreateUserEvent(ctx)
    _spin(api, program, queue, buf, 1.5, wait_for=[gate])
    with pytest.raises(CLError) as err:
        api.clEnqueueReadBuffer(queue, buf)
    assert err.value.code == ErrorCode.CL_INVALID_OPERATION
    assert "gated on an incomplete user event" in err.value.message
    assert buf.coherence.state["client"] == State.INVALID
    api.clSetUserEventStatus(gate, CL_COMPLETE)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    np.testing.assert_array_equal(data, _expected(1.5))


def test_a_read_from_a_lost_daemon_fails_and_leaves_the_client_copy_invalid():
    """The daemon crashes as the read's batch arrives: the read raises a
    daemon-loss error and the directory keeps no copy it never got."""
    deployment, api, ctx, (queue,), program = _rig(retry_policy=RetryPolicy())
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queue, buf, 1.5)
    injector = install_fault_injector(
        deployment.cluster.network,
        FaultPlan(actions=[FaultAction("crash", nth=1, tag="CommandBatch")]),
    )
    daemon = deployment.daemons[0]
    injector.register_crash_hook(daemon.host.name, daemon.crash)
    with pytest.raises(CLError) as err:
        api.clEnqueueReadBuffer(queue, buf)
    assert err.value.code == ErrorCode.CL_DEVICE_NOT_AVAILABLE
    assert buf.coherence.state["client"] == State.INVALID


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_lone_download_costs_little_more_than_its_request(monkeypatch, protocol):
    """A download whose drain sends its daemon nothing else is a batch
    of one.  The envelope adds at most 8 B to the bare
    ``CoalescedBufferDownload`` it carries, the request the reference
    path's fetch sends alone."""
    deployment, api, ctx, (queue,), program = _rig(coherence_protocol=protocol)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queue, buf, 1.5)
    api.clFinish(queue)  # the producer is drained: the read rides nothing
    gcf = deployment.driver.gcf
    sent = []
    request_batch = gcf.request_batch

    def spy(target, msgs, t, **kwargs):
        before = gcf.stats.bytes_sent
        outcome = request_batch(target, msgs, t, **kwargs)
        sent.append((msgs, gcf.stats.bytes_sent - before))
        return outcome

    monkeypatch.setattr(gcf, "request_batch", spy)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    [([download], nbytes)] = sent
    assert type(download) is P.CoalescedBufferDownload
    assert download.wire_size < nbytes <= download.wire_size + 8
    np.testing.assert_array_equal(data, _expected(1.5))


def test_the_reference_path_still_fetches():
    """``batch_window=0`` keeps the paper's fetch: one request round
    trip per download, the section behind its reply, no batch."""
    deployment, api, ctx, (queue,), program = _rig(batch_window=0)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queue, buf, 1.5)
    stats = deployment.driver.stats
    fetches = stats.bulk_fetches
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    assert stats.bulk_fetches == fetches + 1 and stats.batches == 0
    np.testing.assert_array_equal(data, _expected(1.5))


def test_a_replayed_batch_re_streams_its_download_section(monkeypatch):
    """Drop the reply of the batch carrying a download: the retry
    replays the batch, the daemon answers from its replay cache and
    streams the section again, and the bytes are ``NativeAPI``'s."""
    deployment, api, ctx, (queue,), program = _rig(retry_policy=RetryPolicy())
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    _spin(api, program, queue, buf, 1.5)
    install_fault_injector(
        deployment.cluster.network,
        FaultPlan(actions=[FaultAction("drop", nth=1, tag="CommandBatchResponse")]),
    )
    tags = _tags(monkeypatch, deployment)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    stats = deployment.driver.stats
    assert stats.replayed_batches == 1 and deployment.daemons[0].gcf.stats.deduped_batches == 1
    assert tags.count("bulk:CoalescedBufferDownload") == 2
    np.testing.assert_array_equal(data, _expected(1.5))


# ----------------------------------------------------------------------
# causality
# ----------------------------------------------------------------------
def _cross_daemon_wait(protocol):
    """A long kernel on node00, then a kernel on node01 waiting on it
    and reusing its buffer, then a blocking read: the node00 event
    resolves at the client (in host order) while the coherence transfer
    is planned, before the client clock reaches its arrival."""
    deployment, api, ctx, queues, program = _rig(
        2, link=GIGABIT_ETHERNET, coherence_protocol=protocol
    )
    probe = deployment.causality
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    first = _spin(api, program, queues[0], buf, 1.5, n=LONG)
    second = _spin(api, program, queues[1], buf, 0.25, wait_for=[first])
    data, _ = api.clEnqueueReadBuffer(queues[1], buf)
    np.testing.assert_array_equal(data, _expected((1.5, LONG), 0.25))
    return deployment, probe, first, second


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_waiter_runs_after_a_dependency_the_client_already_resolved(protocol):
    """A blocking write on node00 dispatches the long kernel windowed
    ahead of it: the kernel's completion resolves at the client in host
    order, long before the client clock reaches its arrival.  A launch
    on node01 waiting for that kernel keeps it in its wait list (a
    replica and a status relay timed at that arrival), so it starts
    after the kernel ends."""
    deployment, api, ctx, queues, program = _rig(
        2, link=GIGABIT_ETHERNET, coherence_protocol=protocol
    )
    probe = deployment.causality
    side_q = api.clCreateCommandQueue(ctx, queues[0].device)
    a, b, c = (api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N) for _ in range(3))
    zeros = np.zeros(N, np.float32)
    api.clEnqueueWriteBuffer(queues[0], a, True, 0, zeros)
    api.clEnqueueWriteBuffer(queues[1], b, True, 0, zeros)
    long = _spin(api, program, queues[0], a, 1.5, n=LONG)
    api.clEnqueueWriteBuffer(side_q, c, True, 0, zeros)
    assert long.resolved and long.completion_arrival > api.now
    waiter = _spin(api, program, queues[1], b, 0.5, wait_for=[long])
    api.clFinish(queues[1])
    ran = {eid: e for (_name, _client, eid), e in probe.events.items()}
    assert ran[waiter.id].start >= ran[long.id].end
    assert not probe.violations()


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_a_coherence_transfer_reads_after_its_copys_last_write(protocol):
    """The hop (MOSI) or the download on node00's internal queue (MSI)
    reads the copy no earlier than the long kernel writing it ends."""
    deployment, probe, first, second = _cross_daemon_wait(protocol)
    kind = "hop" if protocol == "mosi" else "download"
    reads = [entry for entry in probe.reads if entry[0] == f"node00 {kind}"]
    assert reads
    assert not probe.violations()


def test_a_folded_download_waits_for_the_kernel_still_writing_its_copy(monkeypatch):
    """A read through a queue on node01 of a buffer a long kernel on
    node00 is writing: the download rides that kernel's batch on
    node00's internal queue, and its section is read only once the
    kernel ends."""
    deployment, api, ctx, queues, program = _rig(2, coherence_protocol="msi")
    probe = deployment.causality
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 4 * N)
    launch = _spin(api, program, queues[0], buf, 1.5, n=LONG)
    batches = _batches(monkeypatch, deployment)
    data, _ = api.clEnqueueReadBuffer(queues[1], buf)
    assert batches == [UPLOAD + ["EnqueueKernelRequest", "CreateQueueRequest", "CoalescedBufferDownload"]]
    (what, read, _landed), = probe.reads
    kernel = next(e for (_n, _c, eid), e in probe.events.items() if eid == launch.id)
    assert what == "node00 download" and read.start >= kernel.end
    np.testing.assert_array_equal(data, _expected((1.5, LONG)))
