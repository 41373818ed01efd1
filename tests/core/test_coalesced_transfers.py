"""Window-aware coalescing of coherence downloads and peer transfers.

The PR-4 extension of the upload coalescing suite: property tests for
:func:`repro.core.coherence.directory.split_transfer_plan` (the pure
three-way regrouping the driver applies), plus end-to-end invariants on
*both* protocols: merged execution — fused downloads under MSI, fused
server-to-server batches under MOSI — must leave every directory
(including the Owned-bit placement) and every buffer's bytes exactly as
the unmerged execution would, while spending fewer round trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coherence.directory import (
    CLIENT,
    MOSIDirectory,
    MSIDirectory,
    State,
    split_transfer_plan,
)
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_WRITE_ONLY
from repro.testbed import deploy_dopencl

SERVERS = ["s0", "s1", "s2"]

FILL = """
__kernel void fill(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = f + i;
}
"""

SUM2 = """
__kernel void sum2(__global float *out, __global const float *a,
                   __global const float *b, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) out[i] = a[i] + b[i];
}
"""


# ----------------------------------------------------------------------
# split_transfer_plan properties (MSI and MOSI planners)
# ----------------------------------------------------------------------
parties = st.sampled_from([CLIENT, *SERVERS])
ops = st.lists(
    st.tuples(st.sampled_from(["read", "write"]), parties), min_size=0, max_size=30
)


def _random_plans(directory_cls, sequences):
    """Drive one directory per buffer through random ops; the final op
    of each sequence plans a read for a random party (client reads
    produce downloads, server reads produce uploads or MOSI hops)."""
    plans = []
    for key, (sequence, target) in enumerate(sequences):
        d = directory_cls(SERVERS)
        for op, party in sequence:
            if op == "read":
                d.acquire_read(party)
            else:
                d.acquire_read(party)
                d.mark_modified(party)
        plans.append((key, d.acquire_read(target)))
    return plans


@pytest.mark.parametrize("directory_cls", [MSIDirectory, MOSIDirectory])
@given(
    sequences=st.lists(
        st.tuples(ops, st.sampled_from([CLIENT, *SERVERS])), min_size=1, max_size=6
    )
)
@settings(max_examples=200, deadline=None)
def test_split_is_a_pure_partition_with_correct_grouping(directory_cls, sequences):
    """Every planned transfer lands in exactly one group, grouped by the
    daemon (pair) the coalesced wire message targets: downloads by
    source, server-to-server hops by (src, dst) pair, uploads by
    destination."""
    plans = _random_plans(directory_cls, sequences)
    downloads, peers, uploads = split_transfer_plan(plans)
    n_grouped = (
        sum(len(keys) for keys in downloads.values())
        + sum(len(keys) for keys in peers.values())
        + sum(len(keys) for keys in uploads.values())
    )
    assert n_grouped == sum(len(p) for _k, p in plans)
    by_key = dict(plans)
    for src, keys in downloads.items():
        assert src != CLIENT
        for key in keys:
            assert any(t.src == src and t.dst == CLIENT for t in by_key[key])
    for (src, dst), keys in peers.items():
        assert CLIENT not in (src, dst)
        for key in keys:
            assert any(t.src == src and t.dst == dst for t in by_key[key])
    for dst, keys in uploads.items():
        assert dst != CLIENT
        for key in keys:
            assert any(t.src == CLIENT and t.dst == dst for t in by_key[key])
    # MSI plans never produce direct server-to-server hops.
    if directory_cls is MSIDirectory:
        assert not peers


@pytest.mark.parametrize("directory_cls", [MSIDirectory, MOSIDirectory])
@given(
    sequences=st.lists(
        st.tuples(ops, st.sampled_from([CLIENT, *SERVERS])), min_size=1, max_size=6
    )
)
@settings(max_examples=200, deadline=None)
def test_categorised_execution_order_is_safe(directory_cls, sequences):
    """The driver executes all downloads, then all hops, then all
    uploads.  That is dependency-safe iff, within one buffer's plan,
    every download precedes every upload and no plan mixes a
    server-to-server hop with another category — the structural
    planner properties this asserts."""
    plans = _random_plans(directory_cls, sequences)
    for _key, plan in plans:
        download_pos = [
            i for i, t in enumerate(plan) if t.dst == CLIENT and t.src != CLIENT
        ]
        upload_pos = [
            i for i, t in enumerate(plan) if t.src == CLIENT and t.dst != CLIENT
        ]
        peer_pos = [
            i for i, t in enumerate(plan) if CLIENT not in (t.src, t.dst)
        ]
        if download_pos and upload_pos:
            assert max(download_pos) < min(upload_pos)
        if peer_pos:
            assert not download_pos and not upload_pos
            assert len(plan) == 1  # a MOSI read is a single direct hop


# ----------------------------------------------------------------------
# end-to-end: merged vs unmerged execution, both protocols
# ----------------------------------------------------------------------
def _run_two_remote_inputs(protocol: str, coalesce: bool):
    """Two buffers are produced on server 1, then a kernel on server 0
    consumes both: validating them on s0 moves two buffers along the
    same route between sync points — MSI plans two s1->client downloads
    plus two client->s0 uploads, MOSI two direct s1->s0 hops.
    ``coalesce=False`` is the reference path (``batch_window=0``): one
    stream per transfer."""
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(2),
        coherence_protocol=protocol,
        batch_window=None if coalesce else 0,
    )
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    q0 = api.clCreateCommandQueue(ctx, devices[0])
    q1 = api.clCreateCommandQueue(ctx, devices[1])
    n = 64
    buf_a = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * n)
    buf_b = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * n)
    buf_out = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * n)
    program = api.clCreateProgramWithSource(ctx, FILL + SUM2)
    api.clBuildProgram(program)
    for buf, base in ((buf_a, 100.0), (buf_b, 5.0)):
        fill = api.clCreateKernel(program, "fill")
        api.clSetKernelArg(fill, 0, buf)
        api.clSetKernelArg(fill, 1, np.float32(base))
        api.clSetKernelArg(fill, 2, n)
        api.clEnqueueNDRangeKernel(q1, fill, (n,))  # produced on server 1
    summed = api.clCreateKernel(program, "sum2")
    api.clSetKernelArg(summed, 0, buf_out)
    api.clSetKernelArg(summed, 1, buf_a)
    api.clSetKernelArg(summed, 2, buf_b)
    api.clSetKernelArg(summed, 3, n)
    api.clEnqueueNDRangeKernel(q0, summed, (n,))  # consumed on server 0
    api.clFinish(q0)
    data, _ = api.clEnqueueReadBuffer(q0, buf_out)
    states = {
        "a": dict(buf_a.coherence.state),
        "b": dict(buf_b.coherence.state),
        "out": dict(buf_out.coherence.state),
    }
    remote_bytes = {}
    client = deployment.driver.gcf.name
    for name, buf in (("a", buf_a), ("b", buf_b)):
        for daemon in deployment.daemons:
            obj = daemon.registry.peek(client, buf.id)
            if obj is not None:
                remote_bytes[(name, daemon.name)] = obj.array.copy()
    return deployment, data.view(np.float32), states, remote_bytes


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_merged_transfers_match_unmerged_data_directories_and_bytes(protocol):
    """Merged vs unmerged execution of split_transfer_plan output must
    leave directory state — including where the MOSI Owned bit sits —
    every daemon-side buffer byte, and the computed result identical."""
    dep_m, data_m, states_m, bytes_m = _run_two_remote_inputs(protocol, True)
    dep_u, data_u, states_u, bytes_u = _run_two_remote_inputs(protocol, False)
    np.testing.assert_array_equal(data_m, data_u)
    np.testing.assert_allclose(data_m, 105.0 + 2 * np.arange(64))
    assert states_m == states_u
    assert bytes_m.keys() == bytes_u.keys()
    for key in bytes_m:
        np.testing.assert_array_equal(bytes_m[key], bytes_u[key])
    if protocol == "mosi":
        # Dirty sharing: the producer keeps ownership after the hop, in
        # both execution modes.
        assert states_m["a"]["node01"] == State.OWNED
        assert states_m["b"]["node01"] == State.OWNED


def test_msi_coalescing_saves_round_trips_via_merged_downloads():
    dep_m, data_m, *_ = _run_two_remote_inputs("msi", True)
    dep_u, data_u, *_ = _run_two_remote_inputs("msi", False)
    sm, su = dep_m.driver.stats, dep_u.driver.stats
    assert sm.coalesced_downloads == 1
    assert sm.coalesced_download_sections == 2
    assert su.coalesced_downloads == 0
    # One merged fetch replaces two: one bulk-fetch round trip saved.
    assert sm.bulk_fetches == su.bulk_fetches - 1
    assert sm.round_trips < su.round_trips
    assert sm.bytes_sent < su.bytes_sent


def test_mosi_coalescing_saves_round_trips_via_peer_batches():
    dep_m, data_m, *_ = _run_two_remote_inputs("mosi", True)
    dep_u, data_u, *_ = _run_two_remote_inputs("mosi", False)
    sm, su = dep_m.driver.stats, dep_u.driver.stats
    assert sm.coalesced_peer_transfers == 1
    assert sm.coalesced_peer_transfer_sections == 2
    assert su.coalesced_peer_transfers == 0
    assert sm.round_trips < su.round_trips
    assert sm.bytes_sent < su.bytes_sent


def test_merged_download_sections_register_their_events():
    """Each section of a merged download still registers its own
    transfer event on the daemon (the unmerged per-buffer behaviour)."""
    dep, *_ = _run_two_remote_inputs("msi", True)
    driver = dep.driver
    owner = dep.daemons[1].name  # the downloads came from server 1
    stubs = [s for s in driver._events.values() if s.owner_server == owner]
    assert stubs and all(s.resolved for s in stubs)


def test_rejected_coalesced_download_registers_nothing():
    """A merged fetch naming a stale buffer ID is rejected whole: the
    error surfaces as CLError and no section's event registers."""
    import repro.core.protocol.messages as P
    from repro.ocl import CLError

    dep, *_ = _run_two_remote_inputs("msi", True)
    driver = dep.driver
    api = dep.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    conn = driver.connection(devices[0].server.name)
    daemon = dep.daemon_on(conn.name)
    client = driver.gcf.name
    queue_id = next(
        i
        for i, o in daemon.registry._objects[client].items()
        if type(o).__name__ == "CommandQueue"
    )
    bad_event_ids = [driver.new_id(), driver.new_id()]
    request = P.CoalescedBufferDownload(
        queue_id=queue_id,
        buffer_ids=[999998, 999999],
        event_ids=bad_event_ids,
        nbytes_list=[16, 16],
    )
    with pytest.raises(CLError):
        driver._fetch_bulk_prefixed(conn, lambda: request, [])
    for event_id in bad_event_ids:
        assert daemon.registry.peek(client, event_id) is None


# ----------------------------------------------------------------------
# coalesced result reads
# ----------------------------------------------------------------------
def _run_readback(protocol: str, coalesce: bool):
    """Produce two buffers on server 1 and one on server 0, finish, then
    read all three back to back — the readback-tail shape: in the
    pipeline the first read of a server-1 buffer gang-revalidates the
    second onto the same fetch; ``coalesce=False`` is the
    reference path (``batch_window=0``), one fetch per read."""
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(2),
        coherence_protocol=protocol,
        batch_window=None if coalesce else 0,
    )
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    q0 = api.clCreateCommandQueue(ctx, devices[0])
    q1 = api.clCreateCommandQueue(ctx, devices[1])
    n = 64
    program = api.clCreateProgramWithSource(ctx, FILL)
    api.clBuildProgram(program)
    buffers = []
    for queue, base in ((q1, 100.0), (q1, 5.0), (q0, 7.0)):
        buf = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * n)
        fill = api.clCreateKernel(program, "fill")
        api.clSetKernelArg(fill, 0, buf)
        api.clSetKernelArg(fill, 1, np.float32(base))
        api.clSetKernelArg(fill, 2, n)
        api.clEnqueueNDRangeKernel(queue, fill, (n,))
        buffers.append(buf)
    api.clFinish(q1)
    datas = [
        api.clEnqueueReadBuffer(q0 if i == 2 else q1, buf)[0].view(np.float32)
        for i, buf in enumerate(buffers)
    ]
    return deployment, buffers, datas


@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_merged_reads_match_unmerged_byte_for_byte(protocol):
    """Merged vs unmerged back-to-back blocking reads: identical bytes,
    identical directory state, strictly fewer round trips merged (one
    fused fetch replaces two), bytes no worse."""
    dep_m, bufs_m, datas_m = _run_readback(protocol, True)
    dep_u, bufs_u, datas_u = _run_readback(protocol, False)
    for data_m, data_u, base in zip(datas_m, datas_u, (100.0, 5.0, 7.0)):
        np.testing.assert_array_equal(data_m, data_u)
        np.testing.assert_allclose(data_m, base + np.arange(64))
    for buf_m, buf_u in zip(bufs_m, bufs_u):
        assert dict(buf_m.coherence.state) == dict(buf_u.coherence.state)
    sm, su = dep_m.driver.stats, dep_u.driver.stats
    assert sm.coalesced_reads == 1 and sm.coalesced_read_sections == 2
    assert su.coalesced_reads == 0
    assert sm.bulk_fetches == su.bulk_fetches - 1
    assert sm.round_trips < su.round_trips
    assert sm.bytes_sent < su.bytes_sent


BUMP = """
__kernel void bump(__global float *x, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] + 1.0f;
}
"""


@pytest.mark.parametrize("batch_window", [0, None])
@pytest.mark.parametrize("protocol", ["msi", "mosi"])
def test_lone_transfers_ship_one_section_tables(protocol, batch_window, monkeypatch):
    """A transfer is always a section table: a buffer moving alone
    along any route ships the same ``CoalescedBufferUpload`` /
    ``BufferPeerTransferBatch`` / ``CoalescedBufferDownload`` a gang
    does, with exactly one section — on the reference path and in the
    pipeline alike.  It is not a gang, so no ``coalesced_*`` counter
    moves."""
    import repro.core.protocol.messages as P
    from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE

    deployment = deploy_dopencl(
        make_ib_cpu_cluster(2), coherence_protocol=protocol, batch_window=batch_window
    )
    gcf = deployment.driver.gcf
    sent = []
    for name in ("request", "fetch_bulk"):

        def spy(target, msg, t, _send=getattr(gcf, name)):
            sent.append(msg)
            return _send(target, msg, t)

        monkeypatch.setattr(gcf, name, spy)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    n = 64
    x = np.arange(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    program = api.clCreateProgramWithSource(ctx, BUMP)
    api.clBuildProgram(program)
    bump = api.clCreateKernel(program, "bump")
    api.clSetKernelArg(bump, 0, buf)
    api.clSetKernelArg(bump, 1, n)
    # client -> server 0 (upload), server 0 -> server 1 (via the client
    # under MSI, a direct hop under MOSI), server 1 -> client (download).
    queues = [api.clCreateCommandQueue(ctx, device) for device in devices]
    for queue in queues:
        api.clEnqueueNDRangeKernel(queue, bump, (n,))
    data, _ = api.clEnqueueReadBuffer(queues[1], buf)
    np.testing.assert_array_equal(data.view(np.float32), x + 2.0)

    up, down, hop = P.CoalescedBufferUpload, P.CoalescedBufferDownload, P.BufferPeerTransferBatch
    transfers = [m for m in sent if isinstance(m, (up, down, hop))]
    assert [type(m) for m in transfers] == (
        [up, down, up, down] if protocol == "msi" else [up, hop, down]
    )
    for msg in transfers:
        assert msg.buffer_ids == [buf.id] and msg.nbytes_list == [x.nbytes]
    stats = deployment.driver.stats
    assert stats.coalesced_uploads == 0 and stats.coalesced_upload_sections == 0
    assert stats.coalesced_downloads == 0 and stats.coalesced_download_sections == 0
    assert stats.coalesced_peer_transfers == 0
    assert stats.coalesced_reads == 0 and stats.coalesced_read_sections == 0


def test_cross_daemon_reads_split_per_source():
    """Result buffers on two daemons never fuse across them: each
    daemon's pair rides its own fetch, grouped by source exactly like
    ``split_transfer_plan`` groups download plans."""
    dep, bufs, _datas = _run_readback("msi", True)
    stats = dep.driver.stats
    # Only the two server-1 buffers fused; server 0's buffer shipped
    # alone (a one-section table is not a gang).
    assert stats.coalesced_reads == 1
    assert stats.coalesced_read_sections == 2


def test_unresolved_producers_are_not_gang_fetched():
    """A sibling whose producer is still gated on a pending user event
    must not ride the gang — fusing it would fail the whole fetch for
    data the caller never asked about.  It stays dirty and is fetched
    once its own read syncs."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    api = deployment.api
    driver = deployment.driver
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    q1a = api.clCreateCommandQueue(ctx, devices[1])
    q1b = api.clCreateCommandQueue(ctx, devices[1])
    n = 64
    program = api.clCreateProgramWithSource(ctx, FILL)
    api.clBuildProgram(program)

    def fill_on(queue, base, wait_for=None):
        buf = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * n)
        fill = api.clCreateKernel(program, "fill")
        api.clSetKernelArg(fill, 0, buf)
        api.clSetKernelArg(fill, 1, np.float32(base))
        api.clSetKernelArg(fill, 2, n)
        api.clEnqueueNDRangeKernel(queue, fill, (n,), wait_for=wait_for)
        return buf

    done = fill_on(q1a, 1.0)
    gate = api.clCreateUserEvent(ctx)
    pending = fill_on(q1b, 9.0, wait_for=[gate])  # gated, never fuses
    api.clWaitForEvents([driver._events[done.last_write_event]])
    data, _ = api.clEnqueueReadBuffer(q1a, done)
    np.testing.assert_allclose(data.view(np.float32), 1.0 + np.arange(n))
    assert driver.stats.coalesced_reads == 0  # nothing safe to fuse
    api.clSetUserEventStatus(gate, 0)
    data, _ = api.clEnqueueReadBuffer(q1b, pending)
    np.testing.assert_allclose(data.view(np.float32), 9.0 + np.arange(n))


def test_poisoned_producer_surfaces_through_the_coalesced_read():
    """A creation failure poisoning a sibling's producer surfaces as
    CLError *at the coalesced read* (the read's drain is a sync point),
    before any gang directory state mutates — not silently after stale
    bytes were applied."""
    from repro.ocl import CLError
    from repro.ocl.constants import CL_MEM_READ_WRITE as RW

    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    q1 = api.clCreateCommandQueue(ctx, devices[1])
    n = 64
    program = api.clCreateProgramWithSource(ctx, FILL)
    api.clBuildProgram(program)
    good = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 4 * n)
    # Conflicting access flags pass the client checks but fail
    # daemon-side: the provisional ID poisons, and the fill writing the
    # bad buffer is skipped with the creation's error.
    bad = api.clCreateBuffer(ctx, RW | CL_MEM_WRITE_ONLY, 4 * n)
    for buf, base in ((good, 2.0), (bad, 8.0)):
        fill = api.clCreateKernel(program, "fill")
        api.clSetKernelArg(fill, 0, buf)
        api.clSetKernelArg(fill, 1, np.float32(base))
        api.clSetKernelArg(fill, 2, n)
        api.clEnqueueNDRangeKernel(q1, fill, (n,))
    with pytest.raises(CLError) as err:
        api.clEnqueueReadBuffer(q1, good)
    assert "CreateBufferRequest" in str(err.value)
    # The sibling's directory never recorded a transfer that did not
    # happen: its client copy is still invalid.
    assert not bad.coherence.is_valid(CLIENT)


def test_rejected_peer_batch_moves_nothing():
    """A peer batch naming a stale buffer ID fails whole — the valid
    section is not transferred either (all-or-nothing validation)."""
    import repro.core.protocol.messages as P
    from repro.ocl import CLError

    dep, *_ = _run_two_remote_inputs("mosi", True)
    driver = dep.driver
    api = dep.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    src = driver.connection(devices[1].server.name)
    dst_name = devices[0].server.name
    src_daemon = dep.daemon_on(src.name)
    client = driver.gcf.name
    from repro.ocl.memory import Buffer

    buf_id, buf = next(
        (i, o)
        for i, o in src_daemon.registry._objects[client].items()
        if isinstance(o, Buffer)
    )
    dst_daemon = dep.daemon_on(dst_name)
    before = dst_daemon.registry.get(client, buf_id, Buffer).array.copy()
    with pytest.raises(CLError):
        driver.roundtrip(
            src,
            P.BufferPeerTransferBatch(
                peer_name=dst_name,
                buffer_ids=[buf_id, 999999],
                nbytes_list=[buf.size, 16],
            ),
        )
    np.testing.assert_array_equal(
        dst_daemon.registry.get(client, buf_id, Buffer).array, before
    )
