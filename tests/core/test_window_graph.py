"""Dependency-tracked command windows: closure-only flushing.

Covers the window-graph layer (``repro.core.client.windows`` + the
driver's ``flush_for_handles``): a targeted sync point drains only the
windows in the awaited handle's transitive dependency closure —
asserted through ``NetStats`` (no batch/request reaches an unrelated
daemon) — while ``clFinish`` keeps full-drain semantics.  Also covers
the cross-server wait-chain closure and blocking-read closures.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client.windows import SendWindow, WindowCommand, closure
from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE, CL_MEM_WRITE_ONLY
from repro.testbed import deploy_dopencl

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""


def _deployment(n_servers=3, **kwargs):
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    return deployment, api, devices, ctx, program


def _kernel_on(api, ctx, program, device, value=2.0, n=64):
    queue = api.clCreateCommandQueue(ctx, device)
    x = np.ones(n, dtype=np.float32)
    buf = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, x.nbytes, x)
    kernel = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(value))
    api.clSetKernelArg(kernel, 2, n)
    return queue, buf, kernel


# ----------------------------------------------------------------------
# unit: the closure walk
# ----------------------------------------------------------------------
class _FakeEvent:
    def __init__(self, owner, resolved=False):
        self.owner_server = owner
        self.resolved = resolved


def test_closure_recurses_through_unresolved_event_reads():
    """ev1 on A waits on ev2 on B: the closure of ev1 spans both, but
    not an unrelated window C."""
    events = {1: _FakeEvent("A"), 2: _FakeEvent("B")}
    wa, wb, wc = SendWindow(), SendWindow(), SendWindow()
    wa.append(WindowCommand("launch1", reads=(10, 2), writes=(1,)))
    wb.append(WindowCommand("launch2", reads=(11,), writes=(2,)))
    wc.append(WindowCommand("unrelated", reads=(12,), writes=(3,)))
    servers, _seen = closure([1], {"A": wa, "B": wb, "C": wc}, events.get)
    assert servers == frozenset({"A", "B"})


def test_closure_skips_resolved_events():
    events = {1: _FakeEvent("A"), 2: _FakeEvent("B", resolved=True)}
    wa, wb = SendWindow(), SendWindow()
    wa.append(WindowCommand("launch1", reads=(2,), writes=(1,)))
    wb.append(WindowCommand("old-launch", reads=(), writes=(2,)))
    servers, _seen = closure([1], {"A": wa, "B": wb}, events.get)
    assert servers == frozenset({"A"})


def test_closure_of_buffer_handle_finds_its_writers():
    """A non-event handle (a buffer) pulls in the windows of the
    commands that write it, transitively through their wait lists."""
    events = {1: _FakeEvent("A"), 2: _FakeEvent("B")}
    wa, wb = SendWindow(), SendWindow()
    wa.append(WindowCommand("launch1", reads=(2,), writes=(1, 50)))  # writes buffer 50
    wb.append(WindowCommand("launch2", reads=(), writes=(2,)))
    servers, _seen = closure([50], {"A": wa, "B": wb}, events.get)
    assert servers == frozenset({"A", "B"})


def test_closure_walk_does_not_rescan_windows_per_handle(monkeypatch):
    """Op-count regression for the O(handles x windows) walk: the old
    closure probed every window's writer index once per visited handle
    (including every non-event buffer handle seeded by ``cmd.reads``),
    so a drain over H handles and W windows cost H*W probes.  The walk
    now merges the writer indexes once per pass — one
    ``SendWindow.writer_index`` read per window — and per-handle work
    is a single dictionary lookup in the merged map."""
    probes = {"n": 0}
    original = SendWindow.writer_index

    def counting(self):
        probes["n"] += 1
        return original(self)

    monkeypatch.setattr(SendWindow, "writer_index", counting)
    windows = {f"s{i}": SendWindow() for i in range(8)}
    for i, window in enumerate(windows.values()):
        window.append(WindowCommand(f"cmd{i}", reads=(), writes=(10_000 + i,)))
    handles = list(range(500))  # non-event handles, as cmd.reads would seed
    servers, _seen = closure(handles, windows, {}.get)
    assert servers == frozenset()
    # Pre-fix: len(handles) * len(windows) == 4000 probes.
    assert 0 < probes["n"] <= len(windows)


def test_blocking_read_prefix_flushes_only_up_to_the_producer():
    """The PR-4 acceptance property: a blocking single-buffer read on a
    multi-command window drains only the window *prefix* up to the
    buffer's producer — a later launch on an independent queue of the
    same daemon stays windowed (NetStats-asserted via the driver's
    pending-command and prefix-flush counters)."""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    qa1, b1, k1 = _kernel_on(api, ctx, program, devices[0])
    # A second, independent queue on the SAME device/daemon.  Its buffer
    # is pristine WRITE_ONLY so the launch plans no coherence upload
    # (an upload's bulk stream would full-flush the window).
    qa2 = api.clCreateCommandQueue(ctx, devices[0])
    b2 = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 64 * 4)
    k2 = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(k2, 0, b2)
    api.clSetKernelArg(k2, 1, np.float32(5.0))
    api.clSetKernelArg(k2, 2, 64)
    driver.flush_all()
    ev1 = api.clEnqueueNDRangeKernel(qa1, k1, (64,))  # the producer of b1
    ev2 = api.clEnqueueNDRangeKernel(qa2, k2, (64,))  # after it, same window
    assert driver.pending_commands(devices[0].server.name) == 2
    flushes_before = driver.stats.prefix_flushes
    data, _ = api.clEnqueueReadBuffer(qa1, b1)
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    # The producer flushed (and resolved); the independent launch after
    # it is still windowed, and the split was counted.
    assert ev1.resolved and not ev2.resolved
    assert driver.pending_commands(devices[0].server.name) == 1
    assert driver.stats.prefix_flushes > flushes_before
    # The suffix still runs to completion at its own sync point.
    data, _ = api.clEnqueueReadBuffer(qa2, b2)
    np.testing.assert_allclose(data.view(np.float32), 0.0)  # 0 * 5


# ----------------------------------------------------------------------
# unit/property: clFlush submission barriers in the window
# ----------------------------------------------------------------------
_window_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("cmd"),
            st.lists(st.integers(0, 30), max_size=3),  # reads
            st.lists(st.integers(0, 30), max_size=3),  # writes
        ),
        st.tuples(st.just("barrier")),
    ),
    max_size=25,
)


@given(ops=_window_ops, relevant=st.sets(st.integers(0, 30), max_size=8))
@settings(max_examples=300, deadline=None)
def test_split_prefix_is_program_order_and_barrier_closed(ops, relevant):
    """The ISSUE-5 property: for random windows with interleaved clFlush
    markers, the dispatched prefix is always a *program-order-closed,
    barrier-closed* set — a contiguous prefix from position 0 (so no
    command ever ships ahead of an earlier one), extending through the
    last barrier whenever anything dispatches (so no command stays
    windowed behind sync traffic while a barrier its daemon saw ordered
    it first), and covering every relevant command.  The suffix keeps
    its order and its rebased barriers."""
    window = SendWindow()
    commands = []
    barrier_positions = []
    for op in ops:
        if op[0] == "cmd":
            cmd = WindowCommand(f"m{len(commands)}", reads=op[1], writes=op[2])
            window.append(cmd)
            commands.append(cmd)
        else:
            if window.mark_barrier():
                barrier_positions.append(len(commands))
    floor = window.barrier_floor
    assert floor == (barrier_positions[-1] if barrier_positions else 0)
    prefix = window.split_prefix(relevant)
    relevant_idx = [
        i
        for i, cmd in enumerate(commands)
        if any(h in relevant for h in cmd.reads)
        or any(h in relevant for h in cmd.writes)
    ]
    # Program-order closure: the dispatched set is a contiguous prefix.
    assert prefix == commands[: len(prefix)]
    if prefix:
        # Barrier closure: nothing before a barrier the daemon saw stays
        # windowed once anything dispatches...
        assert len(prefix) >= floor
        # ...and every relevant command dispatched.
        assert all(i < len(prefix) for i in relevant_idx)
        # Minimality: the cut is exactly the barrier floor or the last
        # relevant command, whichever is later.
        assert len(prefix) == max(floor, relevant_idx[-1] + 1 if relevant_idx else 0)
    else:
        # Nothing relevant and no pending barrier: window untouched.
        assert not relevant_idx and floor == 0
        assert window.commands == commands
    # The suffix is intact, in order; a dispatch covers every recorded
    # barrier (cut >= floor = last barrier), so none survives it.
    assert window.commands == commands[len(prefix):]
    if prefix:
        assert window.barriers == ()
    else:
        assert list(window.barriers) == barrier_positions


def test_mark_barrier_skips_empty_and_duplicate_positions():
    window = SendWindow()
    assert not window.mark_barrier()  # empty window constrains nothing
    window.append(WindowCommand("a", writes=(1,)))
    assert window.mark_barrier()
    assert not window.mark_barrier()  # same position, once
    window.append(WindowCommand("b", writes=(2,)))
    assert window.mark_barrier()
    assert window.barriers == (1, 2)
    window.swap_out()
    assert window.barriers == () and window.barrier_floor == 0


def test_closure_recurses_through_barrier_forced_commands():
    """Barrier edges: a window joining the closure drags the event
    dependencies of its barrier-forced prefix along — the forced launch
    will dispatch, so the cross-daemon producer it waits on must drain
    with it."""
    events = {1: _FakeEvent("A"), 2: _FakeEvent("B"), 3: _FakeEvent("A")}
    wa, wb, wc = SendWindow(), SendWindow(), SendWindow()
    # A's window: a launch gated on B's event, then a barrier, then the
    # awaited producer.
    wa.append(WindowCommand("forced", reads=(2,), writes=(3,)))
    wa.mark_barrier()
    wa.append(WindowCommand("producer", reads=(), writes=(1,)))
    wb.append(WindowCommand("gate-producer", reads=(), writes=(2,)))
    wc.append(WindowCommand("unrelated", reads=(), writes=(9,)))
    servers, _seen = closure([1], {"A": wa, "B": wb, "C": wc}, events.get)
    assert servers == frozenset({"A", "B"})  # C stays untouched


# ----------------------------------------------------------------------
# driver-level: targeted sync points
# ----------------------------------------------------------------------
def test_wait_does_not_flush_unrelated_daemons():
    """The acceptance property: waiting on an event whose dependency
    closure spans one daemon leaves the other daemons' windows queued
    and sends them nothing — asserted via NetStats round trips per
    daemon."""
    deployment, api, devices, ctx, program = _deployment()
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    driver.flush_all()  # settle creation traffic; start from clean windows
    ev0 = api.clEnqueueNDRangeKernel(q0, k0, (64,))
    ev1 = api.clEnqueueNDRangeKernel(q1, k1, (64,))
    other_names = [d.server.name for d in devices[1:]]
    # Baseline after the enqueues (their coherence uploads flush the
    # stream targets in program order) — the wait itself is measured.
    before = {d.name: d.gcf.stats.batched_commands_received for d in deployment.daemons}
    api.clWaitForEvents([ev0])
    assert ev0.resolved and not ev1.resolved
    # Only the owner's daemon received anything at the wait.
    for daemon in deployment.daemons:
        delta = daemon.gcf.stats.batched_commands_received - before[daemon.name]
        if daemon.name == devices[0].server.name:
            assert delta > 0
        else:
            assert delta == 0
    # The unrelated windows kept their traffic (launch, replica creates).
    assert all(driver.pending_commands(name) > 0 for name in other_names)


def test_finish_still_drains_everything():
    deployment, api, devices, ctx, program = _deployment()
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    ev0 = api.clEnqueueNDRangeKernel(q0, k0, (64,))
    ev1 = api.clEnqueueNDRangeKernel(q1, k1, (64,))
    api.clFinish(q0)  # full sync point: every window drains
    assert driver.pending_commands() == 0
    assert ev0.resolved and ev1.resolved


def test_wait_follows_cross_server_dependency_chain():
    """ev1 on B waits on ev0 on A: waiting on ev1 must flush both A and
    B (the transitive closure) — and resolve — while an unrelated third
    daemon's window stays queued."""
    deployment, api, devices, ctx, program = _deployment()
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    q2, b2, k2 = _kernel_on(api, ctx, program, devices[2], value=5.0)
    driver.flush_all()
    ev0 = api.clEnqueueNDRangeKernel(q0, k0, (64,))
    ev1 = api.clEnqueueNDRangeKernel(q1, k1, (64,), wait_for=[ev0])
    api.clEnqueueNDRangeKernel(q2, k2, (64,))
    before = deployment.daemon_on(devices[2].server.name).gcf.stats.batched_commands_received
    api.clWaitForEvents([ev1])
    assert ev1.resolved and ev0.resolved
    third = deployment.daemon_on(devices[2].server.name)
    assert third.gcf.stats.batched_commands_received == before
    assert driver.pending_commands(devices[2].server.name) > 0
    api.clFinish(q2)  # and the unrelated work still completes correctly
    data, _ = api.clEnqueueReadBuffer(q2, b2)
    np.testing.assert_allclose(data.view(np.float32), 5.0)


def test_blocking_read_flushes_only_the_buffers_closure():
    """A blocking read of a buffer written by a windowed launch flushes
    that launch's daemon — not a daemon running unrelated work."""
    deployment, api, devices, ctx, program = _deployment()
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    driver.flush_all()
    api.clEnqueueNDRangeKernel(q0, k0, (64,))
    api.clEnqueueNDRangeKernel(q1, k1, (64,))
    other = devices[1].server.name
    before = deployment.daemon_on(other).gcf.stats.batched_commands_received
    data, _ = api.clEnqueueReadBuffer(q0, b0)
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    assert deployment.daemon_on(other).gcf.stats.batched_commands_received == before
    assert driver.pending_commands(other) > 0
    # The unrelated kernel still runs to completion at its own sync.
    data, _ = api.clEnqueueReadBuffer(q1, b1)
    np.testing.assert_allclose(data.view(np.float32), 3.0)


def test_wait_follows_chain_after_dependent_launch_was_dispatched():
    """Regression: an explicit window dispatch (or window overflow) can
    send a launch whose wait-list dependency is still windowed on
    another daemon — the launch sits pending daemon-side, no longer
    visible in any window.  The closure must follow the dependency
    through the *event stub's* recorded wait list
    (EventStub.depends_on), not just windowed commands, or the wait
    raises a spurious deadlock.  (clFlush no longer dispatches — it
    records a submission barrier — so the dispatch is forced through
    the driver.)"""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    driver.flush_all()
    ev_b = api.clEnqueueNDRangeKernel(q1, k1, (64,))       # windowed on B
    ev_a = api.clEnqueueNDRangeKernel(q0, k0, (64,), wait_for=[ev_b])
    # Dispatch launch A; it pends daemon-side on B's replica.
    driver.flush_connection(driver.connection(devices[0].server.name))
    assert driver.pending_commands(devices[0].server.name) == 0
    assert driver.pending_commands(devices[1].server.name) > 0
    api.clWaitForEvents([ev_a])  # must flush B through the stub edge
    assert ev_a.resolved and ev_b.resolved


def test_blocking_read_follows_chain_after_writer_was_dispatched():
    """The blocking-read variant of the same regression: the buffer's
    writer left the window (explicit dispatch) while gated on a
    cross-server event; the read must drain that chain
    (BufferStub.last_write_event) instead of failing on a daemon-side
    incomplete-event download."""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    driver.flush_all()
    ev_b = api.clEnqueueNDRangeKernel(q1, k1, (64,))
    # Writer of b0 dispatched, pending on ev_b.
    api.clEnqueueNDRangeKernel(q0, k0, (64,), wait_for=[ev_b])
    driver.flush_connection(driver.connection(devices[0].server.name))
    data, _ = api.clEnqueueReadBuffer(q0, b0)
    np.testing.assert_allclose(data.view(np.float32), 2.0)


def test_wait_on_gated_upload_event_follows_its_wait_list():
    """Regression: upload events (clEnqueueWriteBuffer) must record
    their wait list on the stub exactly like kernel launches — waiting
    on an upload gated by a still-windowed cross-server event has to
    flush that event's owner, not spuriously deadlock."""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    driver.flush_all()
    ev_b = api.clEnqueueNDRangeKernel(q1, k1, (64,))  # windowed on B
    ev_up = api.clEnqueueWriteBuffer(
        q0, b0, False, 0, np.full(64, 7.0, dtype=np.float32), wait_for=[ev_b]
    )
    api.clWaitForEvents([ev_up])  # closure must include B via depends_on
    assert ev_up.resolved and ev_b.resolved


def test_blocking_read_after_gated_upload_follows_the_chain():
    """The read variant: the buffer's last writer is a gated *upload*
    (not a launch); the blocking read must drain the gating event's
    owner through BufferStub.last_write_event."""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    driver.flush_all()
    ev_b = api.clEnqueueNDRangeKernel(q1, k1, (64,))
    api.clEnqueueWriteBuffer(
        q0, b0, False, 0, np.full(64, 7.0, dtype=np.float32), wait_for=[ev_b]
    )
    data, _ = api.clEnqueueReadBuffer(q0, b0)
    np.testing.assert_allclose(data.view(np.float32), 7.0)


def test_blocking_read_drains_the_in_order_queue_chain():
    """Real OpenCL completes a blocking read only after every prior
    command of an in-order queue: the read's closure must include the
    queue's own command chain (via ``queue.last_event_id``) even when
    those commands touch a different buffer — while daemons outside the
    chain still stay untouched."""
    deployment, api, devices, ctx, program = _deployment()
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    driver.flush_all()
    other = api.clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                               64 * 4, np.ones(64, dtype=np.float32))
    ev = api.clEnqueueNDRangeKernel(q0, k0, (64,))  # writes b0, windowed
    api.clEnqueueNDRangeKernel(q1, k1, (64,))       # unrelated daemon
    # Blocking read of a DIFFERENT buffer on the same in-order queue:
    # the prior launch must have drained (and resolved) first.
    api.clEnqueueReadBuffer(q0, other)
    assert ev.resolved
    # Prefix flushing: the queue-chain launch left the window, while
    # causally unrelated replica bookkeeping for the *other* server's
    # event may stay queued behind it.
    assert not any(
        isinstance(m, P.EnqueueKernelRequest)
        for m in driver.window_messages(devices[0].server.name)
    )
    assert driver.pending_commands(devices[1].server.name) > 0


def test_mosi_peer_transfer_drains_the_buffers_closure():
    """The MOSI server-to-server hop must drain a dispatched-but-pending
    writer's cross-server chain before shipping the copy, exactly like
    the download path — otherwise the peer receives state the writer has
    not produced yet."""
    deployment, api, devices, ctx, program = _deployment(coherence_protocol="mosi")
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    q2, b2, k2 = _kernel_on(api, ctx, program, devices[2], value=5.0)
    driver.flush_all()
    ev_c = api.clEnqueueNDRangeKernel(q2, k2, (64,))          # windowed on C
    api.clEnqueueNDRangeKernel(q0, k0, (64,), wait_for=[ev_c])
    # b0's writer dispatched on A, pending on C's event.
    driver.flush_connection(driver.connection(devices[0].server.name))
    # A kernel on B reading b0 plans a direct A->B hop (MOSI): the hop
    # must first drain C so the writer completes.
    api.clSetKernelArg(k1, 0, b0)
    api.clEnqueueNDRangeKernel(q1, k1, (64,))
    api.clFinish(q1)
    data, _ = api.clEnqueueReadBuffer(q1, b0)
    np.testing.assert_allclose(data.view(np.float32), 6.0)  # 1 * 2 * 3


# ----------------------------------------------------------------------
# driver-level: clFlush submission barriers
# ----------------------------------------------------------------------
def test_clflush_defers_and_records_a_barrier():
    """clFlush costs no round trip: the FlushRequest joins the window,
    a submission barrier is recorded, and everything dispatches with
    the next batch — the forwarded commands were never reorderable in
    the first place (program order), so deferring the dispatch is free.
    """
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    driver.flush_all()
    ev = api.clEnqueueNDRangeKernel(q0, k0, (64,))
    pending_before = driver.pending_commands(devices[0].server.name)
    trips_before = driver.stats.round_trips
    api.clFlush(q0)
    assert driver.stats.round_trips == trips_before  # no dispatch at all
    assert driver.stats.flush_barriers == 1
    # The launch and the FlushRequest are windowed behind the barrier.
    assert driver.pending_commands(devices[0].server.name) == pending_before + 1
    conn = driver.connection(devices[0].server.name)
    assert conn.window.barrier_floor == len(conn.window)
    api.clWaitForEvents([ev])
    assert ev.resolved
    assert conn.window.barrier_floor == 0  # discharged with the dispatch


def test_prefix_flush_extends_through_a_barrier_behind_the_producer():
    """The flushed-suffix half of the barrier rule: the awaited
    producer sits *before* a clFlush mid-window.  Without barriers the
    prefix flush would stop at the producer and the following fetch
    would overtake the flushed commands — the reordering clFlush
    forbids.  With the barrier floor, everything up to the flush
    dispatches too."""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    qa1, b1, k1 = _kernel_on(api, ctx, program, devices[0])
    qa2 = api.clCreateCommandQueue(ctx, devices[0])
    b2 = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 64 * 4)
    k2 = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(k2, 0, b2)
    api.clSetKernelArg(k2, 1, np.float32(5.0))
    api.clSetKernelArg(k2, 2, 64)
    driver.flush_all()
    ev1 = api.clEnqueueNDRangeKernel(qa1, k1, (64,))  # the producer of b1
    ev2 = api.clEnqueueNDRangeKernel(qa2, k2, (64,))  # independent queue
    api.clFlush(qa2)  # barrier covers BOTH queues' commands (one daemon)
    data, _ = api.clEnqueueReadBuffer(qa1, b1)
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    # The independent launch was enqueued before the flush: the read's
    # prefix must have carried it out with the producer — nothing the
    # app flushed may still be windowed once the fetch went through.
    assert ev1.resolved and ev2.resolved
    assert not any(
        isinstance(m, P.EnqueueKernelRequest)
        for m in driver.window_messages(devices[0].server.name)
    )


def test_prefix_flush_with_producer_after_the_barrier_keeps_program_order():
    """The other direction (the ISSUE-5 regression): the awaited
    producer sits *after* a clFlush barrier mid-window — the prefix
    flush must include the barrier's whole prefix ahead of it, so the
    daemon observes flushed commands before the producer, in program
    order."""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    qa1, b1, k1 = _kernel_on(api, ctx, program, devices[0])
    qa2 = api.clCreateCommandQueue(ctx, devices[0])
    b2 = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 64 * 4)
    k2 = api.clCreateKernel(program, "scale")
    api.clSetKernelArg(k2, 0, b2)
    api.clSetKernelArg(k2, 1, np.float32(5.0))
    api.clSetKernelArg(k2, 2, 64)
    driver.flush_all()
    ev2 = api.clEnqueueNDRangeKernel(qa2, k2, (64,))  # before the flush
    api.clFlush(qa2)
    ev1 = api.clEnqueueNDRangeKernel(qa1, k1, (64,))  # the producer, after
    daemon = deployment.daemon_on(devices[0].server.name)
    received_before = daemon.gcf.stats.batched_commands_received
    data, _ = api.clEnqueueReadBuffer(qa1, b1)
    np.testing.assert_allclose(data.view(np.float32), 2.0)
    assert ev1.resolved and ev2.resolved
    # Everything (flushed prefix + producer) reached the daemon in one
    # program-ordered stretch; nothing of it is still windowed.
    assert daemon.gcf.stats.batched_commands_received > received_before
    assert driver.pending_commands(devices[0].server.name) == 0


def test_flush_barriers_do_not_widen_unrelated_closures():
    """A barrier on daemon B's window does not drag B into a sync point
    whose closure only spans daemon A — barriers order commands within
    one daemon, they are not cross-daemon edges."""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
    driver.flush_all()
    ev0 = api.clEnqueueNDRangeKernel(q0, k0, (64,))
    api.clEnqueueNDRangeKernel(q1, k1, (64,))
    api.clFlush(q1)  # barrier on B only
    other = devices[1].server.name
    before = deployment.daemon_on(other).gcf.stats.batched_commands_received
    api.clWaitForEvents([ev0])  # closure spans A only
    assert deployment.daemon_on(other).gcf.stats.batched_commands_received == before
    assert driver.pending_commands(other) > 0


def test_coherence_download_drains_the_transfer_queues_pending_chain():
    """Regression found by the conformance harness (ISSUE-5 audit): a
    coherence download enqueues on an in-order queue, so its closure
    must cover the queue's most recent command — which may be a
    dispatched-but-pending launch gated on a user event whose deferred
    status relay still sits in a window.  Seeding only the buffer's
    handles deadlocks the fetch ('download gated on an incomplete user
    event')."""
    deployment, api, devices, ctx, program = _deployment(n_servers=2)
    driver = deployment.driver
    q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
    driver.flush_all()
    ev0 = api.clEnqueueNDRangeKernel(q0, k0, (64,))  # writes b0
    gate = api.clCreateUserEvent(ctx)
    k2 = api.clCreateKernel(program, "scale")
    b2 = api.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 64 * 4)
    api.clSetKernelArg(k2, 0, b2)
    api.clSetKernelArg(k2, 1, np.float32(5.0))
    api.clSetKernelArg(k2, 2, 64)
    # Gated launch on the same queue, then force-dispatch it: it now
    # pends daemon-side on the (incomplete) user-event replica.
    api.clEnqueueNDRangeKernel(q0, k2, (64,), wait_for=[gate])
    driver.flush_connection(driver.connection(devices[0].server.name))
    # Completing the gate is *deferred* — the status relay is windowed.
    api.clSetUserEventStatus(gate, 0)
    # A non-blocking read of b0 defers its fetch; waiting the event
    # resolves it, and the resolution's coherence download enqueues on
    # q0: its closure must drain the queue chain (gated launch -> user
    # event -> windowed status relay) or the daemon rejects the gated
    # fetch.
    data, ev = api.clEnqueueReadBuffer(q0, b0, blocking=False)
    api.clWaitForEvents([ev])
    np.testing.assert_allclose(data.view(np.float32), 2.0)


def test_targeted_and_full_drains_agree_on_data():
    """Window-graph flushing is a pure communication optimisation: the
    numerical results are identical to full-drain waits."""

    def run(full_drain: bool):
        deployment, api, devices, ctx, program = _deployment()
        q0, b0, k0 = _kernel_on(api, ctx, program, devices[0])
        q1, b1, k1 = _kernel_on(api, ctx, program, devices[1], value=3.0)
        ev0 = api.clEnqueueNDRangeKernel(q0, k0, (64,))
        ev1 = api.clEnqueueNDRangeKernel(q1, k1, (64,), wait_for=[ev0])
        if full_drain:
            deployment.driver.flush_all()
        api.clWaitForEvents([ev1])
        d0, _ = api.clEnqueueReadBuffer(q0, b0)
        d1, _ = api.clEnqueueReadBuffer(q1, b1)
        return np.concatenate([d0.view(np.float32), d1.view(np.float32)])

    np.testing.assert_array_equal(run(False), run(True))
