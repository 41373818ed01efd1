"""The encode/decode caches behind batched call forwarding.

Unit tests for :class:`repro.net.messages.WireDecodeCache`, plus
daemon-level tests showing the caches at work under
``install_batch_dispatch`` — including the invariant that a cached
decode never skips handler execution, and that replies come back as
the receiver's own objects.
"""

import numpy as np
import pytest

from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster
from repro.net.codec import CodecError, encode
from repro.net.messages import Message, WireDecodeCache, class_id
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""


# ----------------------------------------------------------------------
# unit: WireDecodeCache
# ----------------------------------------------------------------------
def test_decode_cache_reuses_instances_and_counts_hits():
    cache = WireDecodeCache(maxsize=4)
    raw = P.Ack().to_wire()
    first = cache.decode(raw)
    second = cache.decode(raw)
    assert second is first  # shared (read-only) instance
    assert cache.hits == 1
    other = cache.decode(P.Ack(error=5).to_wire())
    assert other is not first
    assert cache.hits == 1


def test_decode_cache_evicts_least_recently_used():
    cache = WireDecodeCache(maxsize=2)
    raws = [P.FlushRequest(queue_id=i).to_wire() for i in range(3)]
    cache.decode(raws[0])
    cache.decode(raws[1])
    cache.decode(raws[0])  # refresh 0; 1 becomes LRU
    cache.decode(raws[2])  # evicts 1
    assert len(cache) == 2
    cache.decode(raws[1])  # miss: was evicted
    assert cache.hits == 1  # only the refresh of 0 hit


def test_decode_cache_matches_from_wire():
    cache = WireDecodeCache()
    msg = P.SetKernelArgRequest(kernel_id=7, index=1, kind="value", value=3)
    raw = msg.to_wire()
    assert cache.decode(raw) == Message.from_wire(raw) == msg


# ----------------------------------------------------------------------
# daemon-level: the caches under install_batch_dispatch
# ----------------------------------------------------------------------
def _prepared(**kwargs):
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    n = 64
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(2.0))
    api.clSetKernelArg(kernel, 2, n)
    return deployment, api, devices, ctx, queue, buf, kernel, n


def test_identical_replications_hit_daemon_caches_but_handlers_still_run(monkeypatch):
    """Byte-identical ``FlushRequest``s windowed to one daemon hit its
    decode cache — and the flush handler still ran for each one, which
    its queue-handle validation proves."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    daemon = deployment.daemon_on(devices[0].server.name)
    api.clFinish(queue)
    hits = daemon.gcf.stats.decode_cache_hits
    validated = []
    lookup = daemon._queue

    def spy(client, queue_id):
        validated.append(queue_id)
        return lookup(client, queue_id)

    monkeypatch.setattr(daemon, "_queue", spy)
    for _ in range(3):
        api.clFlush(queue)
    api.clFinish(queue)
    # Hits: the second and third Flush, and the Finish (byte-identical
    # to the one before the spy); each of the four validated its queue.
    assert daemon.gcf.stats.decode_cache_hits - hits == 3
    assert validated == [queue.id] * 4


def test_client_encode_cache_dedups_fanned_out_commands():
    """A command replicated to both servers is encoded once: the second
    window's batch assembly hits the encode cache."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    driver = deployment.driver
    hits_before = driver.stats.encode_cache_hits
    api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 64)  # fans out to 2 servers
    driver.flush_all()
    assert driver.stats.encode_cache_hits > hits_before


# ----------------------------------------------------------------------
# counter invariants (batch accounting symmetry)
# ----------------------------------------------------------------------
def _raw_pair():
    """A daemon and a bare GCF client for envelope-level batch tests."""
    from repro.core.daemon import Daemon
    from repro.hw import Host
    from repro.hw.specs import GIGABIT_ETHERNET, GPU_SERVER, WESTMERE_NODE
    from repro.net import GCFProcess, Network

    net = Network(GIGABIT_ETHERNET)
    server = net.add_host(Host(GPU_SERVER, name="srv"))
    client_host = net.add_host(Host(WESTMERE_NODE, name="cli"))
    daemon = Daemon(server, net)
    client = GCFProcess("client", client_host, net)
    return daemon, client


def test_fully_cached_batch_still_counts_every_sub_command():
    """A batch decoded entirely from the decode cache bumps
    ``batched_commands_received`` by its full length, and the cache
    counter stays consistent with it: N sub-commands received -> N
    decode hits on the repeat."""
    daemon, client = _raw_pair()
    cmds = [P.FlushRequest(queue_id=i) for i in range(5)]
    client.request_batch(daemon.gcf, cmds, 0.0)
    stats = daemon.gcf.stats
    assert stats.batched_commands_received == 5
    first_decode = stats.decode_cache_hits
    client.request_batch(daemon.gcf, cmds, 1.0)  # byte-identical repeat
    assert stats.batched_commands_received == 10
    assert stats.decode_cache_hits - first_decode == 5
    # Sender-side mirror: commands sent == commands received, and the
    # repeat's encodings all came from the per-instance cache.
    assert client.stats.batched_commands == stats.batched_commands_received
    assert client.stats.encode_cache_hits == 5


def test_undispatchable_replies_account_like_normal_ones():
    """A repeated *undispatchable* sub-command (here: a nested batch) is
    counted, decoded from the cache and answered positionally exactly
    like a dispatchable one."""
    from repro.net.messages import CommandBatch

    daemon, client = _raw_pair()
    nested = CommandBatch(commands=[P.FlushRequest(queue_id=1).to_wire()])
    out1 = client.request_batch(daemon.gcf, [nested], 0.0)
    assert out1.responses[0].error != 0  # rejected, positionally
    decode_before = daemon.gcf.stats.decode_cache_hits
    out2 = client.request_batch(daemon.gcf, [nested], 1.0)
    assert out2.responses[0] == out1.responses[0]
    assert daemon.gcf.stats.decode_cache_hits == decode_before + 1
    assert daemon.gcf.stats.batched_commands_received == 2


def test_batched_replies_are_the_handlers_own_objects():
    """A batched reply crosses like a single request's: ``request_batch``
    hands back the very objects the handlers returned, in batch order,
    and a deduped replay re-answers equal ones without re-running any
    handler."""
    daemon, client = _raw_pair()
    returned = []
    handler = daemon.gcf._request_handlers[P.FlushRequest]

    def recording(msg, t, sender):
        response, t_done = handler(msg, t, sender)
        returned.append(response)
        return response, t_done

    daemon.gcf._request_handlers[P.FlushRequest] = recording
    cmds = [P.FlushRequest(queue_id=i) for i in range(3)]
    first = client.request_batch(daemon.gcf, cmds, 0.0, epoch=0, seq=0)
    assert len(returned) == 3
    assert all(got is own for got, own in zip(first.responses, returned))
    replay = client.request_batch(daemon.gcf, cmds, 1.0, epoch=0, seq=0)
    assert daemon.gcf.stats.deduped_batches == 1
    assert len(returned) == 3  # no handler ran again
    assert replay.responses == first.responses


def test_counter_invariants_hold_over_a_real_workload():
    """The auditable invariants: every cache hit corresponds to a
    received sub-command, poisoned commands are received commands, and
    client/daemon tallies of batched traffic agree."""
    deployment, api, devices, ctx, queue, buf, kernel, n = _prepared()
    driver = deployment.driver
    for f in (2.0, 3.0, 2.0):
        api.clSetKernelArg(kernel, 1, np.float32(f))
        api.clEnqueueNDRangeKernel(queue, kernel, (n,))
    api.clFinish(queue)
    data, _ = api.clEnqueueReadBuffer(queue, buf)
    received_total = 0
    for daemon in deployment.daemons:
        s = daemon.gcf.stats
        assert s.decode_cache_hits <= s.batched_commands_received
        assert s.poisoned_commands <= s.batched_commands_received
        received_total += s.batched_commands_received
    c = driver.stats
    assert c.encode_cache_hits <= c.batched_commands
    # Conservation: every sub-command the client batched out was
    # dispatched by exactly one daemon.
    assert c.batched_commands == received_total


@pytest.mark.parametrize(
    "envelope",
    [
        ["Ack", {"bogus": 1}],  # unknown field
        ["Ack", [1, 2]],  # payload is not a dict
        ["SetKernelArgRequest", {}],  # required fields missing
        ["NoSuchMessage", {}],
    ],
)
def test_malformed_sub_command_is_answered_positionally(envelope):
    """A sub-command the codec can decode but no message class accepts
    is ``CodecError`` like any other bad wire data: the dispatcher
    answers its slot with the error reply and runs its neighbours."""
    raw = encode(envelope)
    with pytest.raises(CodecError):
        Message.from_wire(raw)

    daemon, client = _raw_pair()
    bad = P.FlushRequest(queue_id=99)
    bad.__dict__["_cached_wire"] = raw  # what request_batch puts in the envelope
    cmds = [P.ReleaseBufferRequest(buffer_id=1), bad, P.ReleaseBufferRequest(buffer_id=2)]
    out = client.request_batch(daemon.gcf, cmds, 0.0)
    assert [type(r) for r in out.responses] == [P.Ack] * 3
    assert "undecodable batched command" in out.responses[1].detail
    assert out.responses[1].error != 0
    ran = [iv.tag for iv in daemon.gcf.cpu if iv.tag == "ReleaseBufferRequest"]
    assert len(ran) == 2  # slots 0 and 2 reached their handler
    assert daemon.gcf.stats.batched_commands_received == 3


def test_omitting_a_defaulted_field_stays_legal():
    head = class_id("Ack").to_bytes(2, "little")
    assert Message.from_wire(head + b"\x00") == P.Ack()
    assert Message.from_wire(head + b"\x01" + encode(3)) == P.Ack(3)
    assert P.Ack(3).to_wire() == head + b"\x01" + encode(3)
