"""A kernel launch carries the argument updates windowed right before it.

``clSetKernelArg`` calls for kernel K that sit at the tail of K's
launch daemon's send window — behind the last ``clFlush`` barrier,
nothing else in between — leave the window and ride the
``EnqueueKernelRequest`` as ``[index, value]`` entries.  The fold is an
encoding only: the daemon replays the entries as the updates they
replace, so every effect and the first error are those of the unfolded
sequence.  Most tests here run a scenario twice, once with the fold
patched away, and compare what the runs leave observable.
"""

import contextlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.conformance import ProgramRun, generate_program
from repro.bench.multiclient import MULTI_SOURCE
from repro.clc import LocalMemory
from repro.core.client.api import DOpenCLAPI
from repro.core.client.resilience import RetryPolicy
from repro.core.protocol import messages as P
from repro.hw import GPU_SERVER, Host
from repro.hw.cluster import (
    make_desktop_and_gpu_server,
    make_ib_cpu_cluster,
    make_multi_client_gpu_server,
)
from repro.net.messages import MESSAGE_HEADER_BYTES
from repro.ocl import CL_MEM_READ_WRITE, CLError, NativeAPI
from repro.ocl.constants import CL_DEVICE_TYPE_GPU, CL_MEM_WRITE_ONLY, ErrorCode
from repro.sim.faults import FaultAction, FaultPlan, install_fault_injector
from repro.testbed import deploy_dopencl
from repro.tools import cachestat_text

SCALE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""

SUM = """
__kernel void acc(__global float *out, __global const float *in,
                  __local float *tmp, const float f, const int flag) {
    int i = (int)get_global_id(0);
    tmp[get_local_id(0)] = in[i] * f;
    out[i] = out[i] + tmp[get_local_id(0)] + (float)flag;
}
"""

N = 16


@dataclass
class Rig:
    deployment: object
    api: object
    ctx: object
    queues: list
    program: object
    daemon: object

    @property
    def client(self):
        return self.deployment.driver.gcf.name

    def buffer(self, value=1.0):
        """A buffer whose bytes already live on queue 0's daemon, so a
        launch there plans no upload (which would flush the window)."""
        host = np.full(N, value, dtype=np.float32)
        buf = self.api.clCreateBuffer(self.ctx, CL_MEM_READ_WRITE, host.nbytes)
        self.api.clEnqueueWriteBuffer(self.queues[0], buf, True, 0, host)
        return buf

    def read(self, buf, queue=None):
        data, _ = self.api.clEnqueueReadBuffer(queue or self.queues[0], buf)
        return data.view(np.float32).copy()

    def poison(self, handle, daemon=None):
        """The error code ``handle`` is poisoned with on the daemon (0: none)."""
        hit = (daemon or self.daemon).registry.poison_info(self.client, (handle,))
        return 0 if hit is None else hit[1]

    def bound(self, kernel, buffers):
        """The daemon-side binding of ``kernel``: a buffer as its
        client handle, a ``__local`` size as ``("local", n)``."""
        objects = {id(self.daemon.registry.peek(self.client, b.id)): b.id for b in buffers}
        out = []
        for arg in self.daemon.registry.peek(self.client, kernel.id).args:
            if id(arg) in objects:
                out.append(objects[id(arg)])
            elif isinstance(arg, LocalMemory):
                out.append(("local", arg.nbytes))
            else:
                out.append(arg if isinstance(arg, (int, float)) else repr(arg))
        return out

    def sync(self, errors, queue=None):
        """``clFinish``, recording the error code it raises (0: none)."""
        try:
            self.api.clFinish(queue or self.queues[0])
            errors.append(0)
        except CLError as exc:
            errors.append(int(exc.code))


def _gpu_rig(source=SCALE, **kwargs):
    """One GPU daemon: a context, a queue and a built program, settled."""
    deployment = deploy_dopencl(make_desktop_and_gpu_server(), **kwargs)
    api = deployment.api
    gpu = api.clGetDeviceIDs(api.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[0]
    ctx = api.clCreateContext([gpu])
    queue = api.clCreateCommandQueue(ctx, gpu)
    program = api.clCreateProgramWithSource(ctx, source)
    api.clBuildProgram(program)
    api.clFinish(queue)
    return Rig(deployment, api, ctx, [queue], program, deployment.daemon_on(gpu.server.name))


def _cpu_rig(n_servers, **kwargs):
    """A context over every device of an ``n_servers`` CPU cluster, one
    queue per device, a built ``scale`` program, settled."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(n_servers), **kwargs)
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queues = [api.clCreateCommandQueue(ctx, device) for device in devices]
    program = api.clCreateProgramWithSource(ctx, SCALE)
    api.clBuildProgram(program)
    for queue in queues:
        api.clFinish(queue)
    return Rig(deployment, api, ctx, queues, program, deployment.daemons[0])


@contextlib.contextmanager
def _unfolded():
    """Patch the fold away: every update travels as its own command."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DOpenCLAPI, "_fold_arg_updates", lambda self, server, kernel, ids: [])
        yield


def _both(scenario, encoding=("args",)):
    """Run ``scenario`` folded and unfolded; everything it observes but
    the ``encoding`` keys must be equal, and the unfolded run's launches
    (key ``"args"``) carry no entries.  Returns both runs' observables."""
    folded = scenario()
    with _unfolded():
        unfolded = scenario()
    assert all(args is None for args in unfolded["args"])
    strip = lambda run: {k: v for k, v in run.items() if k not in encoding}  # noqa: E731
    assert strip(folded) == strip(unfolded)
    return folded, unfolded


def _windowed_args(rig, queue=None):
    """The ``args`` of every launch windowed for ``queue``'s daemon."""
    server = (queue or rig.queues[0]).server.name
    return [
        m.args for m in rig.deployment.driver.window_messages(server)
        if isinstance(m, P.EnqueueKernelRequest)
    ]


def _set_scale(api, kernel, buf, factor):
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, np.float32(factor))
    api.clSetKernelArg(kernel, 2, N)


def _exhaust_device(rig):
    """Fill the GPU's 4 GB with four max_alloc buffers (all deferred)."""
    return [rig.api.clCreateBuffer(rig.ctx, CL_MEM_READ_WRITE, 1 << 30) for _ in range(4)]


# ----------------------------------------------------------------------
# poisoning: entry by entry, the unfolded sequence's effects
# ----------------------------------------------------------------------
def test_an_entry_naming_a_poisoned_buffer_poisons_the_kernel_and_the_launch():
    def scenario():
        rig = _gpu_rig()
        api, errors = rig.api, []
        good = rig.buffer()
        kernel = api.clCreateKernel(rig.program, "scale")
        _set_scale(api, kernel, good, 2.0)
        api.clEnqueueNDRangeKernel(rig.queues[0], kernel, (N,))
        rig.sync(errors)  # bound to `good`, scaled once
        _kept = _exhaust_device(rig)
        bad = api.clCreateBuffer(rig.ctx, CL_MEM_WRITE_ONLY, 1 << 30)  # fails remotely
        api.clSetKernelArg(kernel, 0, bad)
        api.clSetKernelArg(kernel, 1, np.float32(8.0))
        event = api.clEnqueueNDRangeKernel(rig.queues[0], kernel, (N,))
        args = _windowed_args(rig)
        rig.sync(errors)
        return {
            "args": args,
            "errors": errors,
            "kernel": rig.poison(kernel.id),
            "event": rig.poison(event.id),
            "bound": rig.bound(kernel, [good]),
            "good": rig.read(good).tolist(),
            "bad": bad.id,
        }

    observed, _ = _both(scenario)
    assert observed["args"] == [[[0, observed["bad"]], [1, 8.0]]]
    alloc = int(ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE)
    assert observed["errors"] == [0, alloc]
    assert observed["kernel"] == observed["event"] == alloc
    # The skipped entry left arg 0 bound to `good`, and the entry behind
    # it never bound (the kernel was poisoned): nothing ran stale-bound.
    good_id = observed["bound"][0]
    assert observed["bound"] == [good_id, 2.0, N]
    assert observed["good"] == [2.0] * N


def test_a_poisoned_wait_event_still_binds_the_entries():
    """The entries bind although the launch is skipped, so the kernel is
    not poisoned and its next launch — no new clSetKernelArg — runs."""

    def scenario():
        rig = _gpu_rig()
        api, queue, errors = rig.api, rig.queues[0], []
        a, b = rig.buffer(), rig.buffer()
        k1 = api.clCreateKernel(rig.program, "scale")
        k2 = api.clCreateKernel(rig.program, "scale")
        rig.sync(errors)
        _set_scale(api, k1, a, 2.0)
        failed = api.clEnqueueNDRangeKernel(queue, k1, (N,), local_size=(7,))
        _set_scale(api, k2, b, 3.0)
        gated = api.clEnqueueNDRangeKernel(queue, k2, (N,), wait_for=[failed])
        args = _windowed_args(rig)
        rig.sync(errors)
        poisoned = [rig.poison(h) for h in (k1.id, failed.id, k2.id, gated.id)]
        api.clEnqueueNDRangeKernel(queue, k2, (N,))
        rig.sync(errors)
        return {
            "args": args,
            "errors": errors,
            "poisoned": poisoned,
            "bound": rig.bound(k2, [a, b]),
            "data": [rig.read(a).tolist(), rig.read(b).tolist()],
            "b": b.id,
        }

    observed, _ = _both(scenario)
    assert [len(args) for args in observed["args"]] == [3, 3]
    bad_size = int(ErrorCode.CL_INVALID_WORK_GROUP_SIZE)
    assert observed["errors"] == [0, bad_size, 0]
    assert observed["poisoned"] == [0, bad_size, 0, bad_size]
    assert observed["bound"] == [observed["b"], 3.0, N]
    assert observed["data"] == [[1.0] * N, [3.0] * N]


def test_an_entry_that_fails_to_bind_poisons_the_kernel():
    def scenario():
        rig = _gpu_rig()
        api, queue, errors = rig.api, rig.queues[0], []
        buf = rig.buffer()
        kernel = api.clCreateKernel(rig.program, "scale")
        api.clSetKernelArg(kernel, 0, buf)
        api.clSetKernelArg(kernel, 1, "two")  # passes the client, not the daemon
        api.clSetKernelArg(kernel, 2, N)
        event = api.clEnqueueNDRangeKernel(queue, kernel, (N,))
        args = _windowed_args(rig)
        rig.sync(errors)
        return {
            "args": args,
            "errors": errors,
            "poisoned": [rig.poison(kernel.id), rig.poison(event.id)],
            "bound": rig.bound(kernel, [buf]),
            "data": rig.read(buf).tolist(),
            "buf": buf.id,
        }

    observed, _ = _both(scenario)
    assert observed["args"] == [[[0, observed["buf"]], [1, "two"], [2, N]]]
    bad_value = int(ErrorCode.CL_INVALID_ARG_VALUE)
    assert observed["errors"] == [bad_value]
    assert observed["poisoned"] == [bad_value, bad_value]
    assert observed["bound"][0] == observed["buf"]  # bound before the failure
    assert observed["data"] == [1.0] * N


def test_a_launch_that_fails_after_every_entry_bound_leaves_the_kernel_usable():
    def scenario():
        rig = _gpu_rig()
        api, queue, errors = rig.api, rig.queues[0], []
        buf = rig.buffer()
        kernel = api.clCreateKernel(rig.program, "scale")
        rig.sync(errors)
        _set_scale(api, kernel, buf, 2.0)
        event = api.clEnqueueNDRangeKernel(queue, kernel, (N,), local_size=(7,))
        args = _windowed_args(rig)
        rig.sync(errors)
        poisoned = [rig.poison(kernel.id), rig.poison(event.id)]
        api.clEnqueueNDRangeKernel(queue, kernel, (N,))
        rig.sync(errors)
        return {"args": args, "errors": errors, "poisoned": poisoned, "data": rig.read(buf).tolist()}

    observed, _ = _both(scenario)
    assert [len(args) for args in observed["args"]] == [3]
    bad_size = int(ErrorCode.CL_INVALID_WORK_GROUP_SIZE)
    assert observed["errors"] == [0, bad_size, 0]
    assert observed["poisoned"] == [0, bad_size]
    assert observed["data"] == [2.0] * N


# ----------------------------------------------------------------------
# where the fold stops
# ----------------------------------------------------------------------
def test_reference_path_sends_every_update_as_its_own_round_trip(monkeypatch):
    rig = _gpu_rig(batch_window=0)
    api, driver = rig.api, rig.deployment.driver
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    sent = []
    request = driver.gcf.request

    def spy(target, msg, *args, **kwargs):
        sent.append(msg)
        return request(target, msg, *args, **kwargs)

    monkeypatch.setattr(driver.gcf, "request", spy)
    before = driver.stats.round_trips
    _set_scale(api, kernel, buf, 2.0)
    assert driver.stats.round_trips - before == 3
    api.clEnqueueNDRangeKernel(rig.queues[0], kernel, (N,))
    assert [type(m) for m in sent] == [P.SetKernelArgRequest] * 3 + [P.EnqueueKernelRequest]
    assert sent[-1].args is None
    assert driver.stats.folded_kernel_args == 0
    api.clFinish(rig.queues[0])
    assert rig.read(buf).tolist() == [2.0] * N


def _flush_between(rig, kernel, other):
    rig.api.clFlush(rig.queues[0])


def _create_between(rig, kernel, other):
    rig.api.clCreateBuffer(rig.ctx, CL_MEM_READ_WRITE, 64)


def _other_kernel_between(rig, kernel, other):
    rig.api.clSetKernelArg(other, 2, N)


@pytest.mark.parametrize(
    "between, windowed",
    [
        (_flush_between, P.FlushRequest),
        (_create_between, P.CreateBufferRequest),
        (_other_kernel_between, P.SetKernelArgRequest),
    ],
)
def test_any_command_between_the_updates_and_the_launch_stops_the_fold(between, windowed):
    def scenario():
        rig = _gpu_rig()
        api, queue = rig.api, rig.queues[0]
        buf = rig.buffer()
        kernel = api.clCreateKernel(rig.program, "scale")
        other = api.clCreateKernel(rig.program, "scale")
        api.clFinish(queue)
        api.clSetKernelArg(kernel, 0, buf)
        api.clSetKernelArg(kernel, 1, np.float32(2.0))
        between(rig, kernel, other)
        api.clSetKernelArg(kernel, 2, N)
        api.clEnqueueNDRangeKernel(queue, kernel, (N,))
        window = rig.deployment.driver.window_messages(queue.server.name)
        observed = {
            "args": _windowed_args(rig),
            "window": [type(m) for m in window if not isinstance(m, P.EnqueueKernelRequest)],
            "pending": rig.deployment.driver.pending_commands(),
        }
        api.clFinish(queue)
        observed["data"] = rig.read(buf).tolist()
        return observed

    folded, unfolded = _both(scenario, encoding=("args", "window"))
    assert folded["args"] == [[[2, N]]]
    assert folded["window"] == [P.SetKernelArgRequest] * 2 + [windowed]
    assert unfolded["window"] == folded["window"] + [P.SetKernelArgRequest]
    assert folded["pending"] == 5  # the launch weighs 1 + its one entry
    assert folded["data"] == [2.0] * N


def test_an_update_naming_a_buffer_the_launch_does_not_read_stops_the_fold():
    """``a`` was bound and then replaced: the update naming it stays a
    command of its own, so the launch reads exactly what it read before
    and prefix flushes cut the window where they always did."""

    def scenario():
        rig = _gpu_rig()
        api, queue = rig.api, rig.queues[0]
        a, b = rig.buffer(), rig.buffer()
        kernel = api.clCreateKernel(rig.program, "scale")
        api.clFinish(queue)
        api.clSetKernelArg(kernel, 0, a)
        api.clSetKernelArg(kernel, 1, np.float32(2.0))
        api.clSetKernelArg(kernel, 2, N)
        api.clSetKernelArg(kernel, 0, b)
        api.clEnqueueNDRangeKernel(queue, kernel, (N,))
        observed = {"args": _windowed_args(rig), "b": b.id}
        observed["pending"] = rig.deployment.driver.pending_commands()
        api.clFinish(queue)
        observed["data"] = [rig.read(a).tolist(), rig.read(b).tolist()]
        return observed

    folded, _ = _both(scenario)
    assert folded["args"] == [[[1, 2.0], [2, N], [0, folded["b"]]]]
    assert folded["pending"] == 5
    assert folded["data"] == [[1.0] * N, [2.0] * N]


def test_a_repeated_index_keeps_program_order():
    """Last value wins, as on the native runtime: the bytes are equal."""

    def program(cl, queue, ctx):
        out = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, N * 4)
        inp = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, N * 4)
        cl.clEnqueueWriteBuffer(queue, out, True, 0, np.zeros(N, dtype=np.float32))
        cl.clEnqueueWriteBuffer(queue, inp, True, 0, np.arange(N, dtype=np.float32))
        prog = cl.clCreateProgramWithSource(ctx, SUM)
        cl.clBuildProgram(prog)
        kernel = cl.clCreateKernel(prog, "acc")
        cl.clFinish(queue)
        cl.clSetKernelArg(kernel, 0, inp)
        cl.clSetKernelArg(kernel, 1, inp)
        cl.clSetKernelArg(kernel, 2, cl.LocalMemory(8))
        cl.clSetKernelArg(kernel, 3, np.float32(2.0))
        cl.clSetKernelArg(kernel, 4, 7)
        cl.clSetKernelArg(kernel, 2, cl.LocalMemory(16))
        cl.clSetKernelArg(kernel, 3, 5.5)
        cl.clSetKernelArg(kernel, 4, True)
        cl.clSetKernelArg(kernel, 0, out)
        cl.clEnqueueNDRangeKernel(queue, kernel, (N,), local_size=(4,))
        cl.clFinish(queue)
        data, _ = cl.clEnqueueReadBuffer(queue, out)
        return bytes(data), (out, inp)

    native = NativeAPI(Host(GPU_SERVER))
    gpu = native.clGetDeviceIDs(native.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[0]
    ctx = native.clCreateContext([gpu])
    expected, _ = program(native, native.clCreateCommandQueue(ctx, gpu), ctx)
    assert np.frombuffer(expected, np.float32).tolist() == [1.0 + 5.5 * i for i in range(N)]

    rig = _gpu_rig()
    sent = []
    defer = rig.deployment.driver.defer

    def spy(conn, msg, *args, **kwargs):
        if isinstance(msg, P.EnqueueKernelRequest):
            sent.append(msg.args)
        return defer(conn, msg, *args, **kwargs)

    rig.deployment.driver.defer = spy
    got, (out, inp) = program(rig.api, rig.queues[0], rig.ctx)
    assert got == expected
    assert sent == [[
        [0, inp.id], [1, inp.id], [2, 8], [3, 2.0], [4, 7],
        [2, 16], [3, 5.5], [4, True], [0, out.id],
    ]]
    assert rig.deployment.driver.stats.folded_kernel_args == 9


def test_other_daemons_keep_their_updates_for_a_later_launch():
    """The fold touches the launch daemon's window only: the other
    server still receives every update, and a launch there later runs
    without new clSetKernelArg calls."""

    def scenario():
        rig = _cpu_rig(2)
        api, (q0, q1) = rig.api, rig.queues
        buf = rig.buffer()
        kernel = api.clCreateKernel(rig.program, "scale")
        api.clFinish(q0)
        _set_scale(api, kernel, buf, 2.0)
        api.clEnqueueNDRangeKernel(q0, kernel, (N,))
        observed = {
            "args": _windowed_args(rig, q0),
            "other": [
                m.index for m in rig.deployment.driver.window_messages(q1.server.name)
                if isinstance(m, P.SetKernelArgRequest)
            ],
        }
        api.clFinish(q0)
        api.clEnqueueNDRangeKernel(q1, kernel, (N,))
        api.clFinish(q1)
        observed["data"] = rig.read(buf, q1).tolist()
        return observed

    folded, _ = _both(scenario)
    assert [len(args) for args in folded["args"]] == [3]
    assert folded["other"] == [0, 1, 2]
    assert folded["data"] == [4.0] * N


# ----------------------------------------------------------------------
# replay, batch shape, observability
# ----------------------------------------------------------------------
def test_a_dropped_folded_reply_binds_the_entries_once(monkeypatch):
    rig = _gpu_rig(retry_policy=RetryPolicy())
    api, daemon, driver = rig.api, rig.daemon, rig.deployment.driver
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    api.clFinish(rig.queues[0])
    binds, launches = [], []
    bind = daemon._set_kernel_arg
    monkeypatch.setattr(daemon, "_set_kernel_arg", lambda *a: binds.append(a) or bind(*a))
    launch = daemon.gcf._request_handlers[P.EnqueueKernelRequest]
    monkeypatch.setitem(
        daemon.gcf._request_handlers,
        P.EnqueueKernelRequest,
        lambda msg, t, sender: launches.append(msg) or launch(msg, t, sender),
    )
    _set_scale(api, kernel, buf, 2.0)
    api.clEnqueueNDRangeKernel(rig.queues[0], kernel, (N,))
    injector = install_fault_injector(
        rig.deployment.cluster.network,
        FaultPlan([FaultAction("drop", nth=1, tag="CommandBatchResponse")], max_transfers=10_000),
    )
    api.clFinish(rig.queues[0])
    assert injector.injected_drops == 1
    assert driver.stats.replayed_batches == 1 and daemon.gcf.stats.deduped_batches == 1
    assert [index for _client, _kernel, index, _kind, _value in binds] == [0, 1, 2]
    assert len(launches) == 1 and len(launches[0].args) == 3
    assert rig.read(buf).tolist() == [2.0] * N


def _tenant_rounds(rounds):
    """``tenant_steady``'s round on three tenants: per tenant create a
    kernel, set its three arguments, launch; then every ``clFinish``.
    Returns the deployment and the sub-command count of every batch."""
    deployment = deploy_dopencl(make_multi_client_gpu_server(3), n_clients=3)
    states, sizes = [], []
    for i, cl in enumerate(deployment.apis):
        gpu = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[i]
        ctx = cl.clCreateContext([gpu])
        queue = cl.clCreateCommandQueue(ctx, gpu)
        program = cl.clCreateProgramWithSource(ctx, MULTI_SOURCE)
        cl.clBuildProgram(program)
        buf = cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, 128)
        cl.clFinish(queue)
        request_batch = cl.driver.gcf.request_batch
        cl.driver.gcf.request_batch = (
            lambda target, msgs, *a, _send=request_batch, **k: sizes.append(len(msgs))
            or _send(target, msgs, *a, **k)
        )
        states.append((cl, queue, program, buf))
    for r in range(rounds):
        for n, (cl, queue, program, buf) in enumerate(states):
            kernel = cl.clCreateKernel(program, "fill")
            cl.clSetKernelArg(kernel, 0, buf)
            cl.clSetKernelArg(kernel, 1, np.float32(r))
            cl.clSetKernelArg(kernel, 2, n + 1)
            cl.clEnqueueNDRangeKernel(queue, kernel, (32,))
        for cl, queue, *_ in states:
            cl.clFinish(queue)
    return deployment, sizes


def test_a_tenant_round_is_a_batch_of_three_sub_commands():
    """CreateKernel, the launch carrying three entries, and Finish —
    where unfolded updates make it six; the round trips stay put."""
    deployment, sizes = _tenant_rounds(2)
    with _unfolded():
        reference, reference_sizes = _tenant_rounds(2)
    assert sizes == [3] * 6 and reference_sizes == [6] * 6
    text = cachestat_text(deployment)
    for driver, twin in zip(deployment.drivers, reference.drivers):
        assert driver.stats.round_trips == twin.stats.round_trips
        assert driver.stats.folded_kernel_args == 6 and twin.stats.folded_kernel_args == 0
        assert driver.stats.batched_commands == twin.stats.batched_commands - 6
        assert f"folded_finishes={driver.stats.folded_finishes} folded_kernel_args=6" in text
    for cl, twin in zip(deployment.apis, reference.apis):
        assert cl.now < twin.now


# ----------------------------------------------------------------------
# oracles: the wire price, and the dispatch positions of drawn programs
# ----------------------------------------------------------------------
_ENTRY_VALUES = st.one_of(
    st.integers(min_value=1, max_value=2**40),  # a buffer ID or a __local size
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(st.integers(0, 31), _ENTRY_VALUES), max_size=12))
def test_a_folded_launch_is_priced_as_its_encoding(entries):
    msg = P.EnqueueKernelRequest(
        queue_id=3, kernel_id=9, event_id=12, global_size=[32], local_size=[],
        global_offset=[], wait_event_ids=[], replica_servers=[], push_hints=None,
        args=[[index, value] for index, value in entries] or None,
    )
    assert msg.wire_size == len(msg.to_wire()) + MESSAGE_HEADER_BYTES
    assert P.EnqueueKernelRequest.from_wire(msg.to_wire()) == msg


def _dispatch_log(seed, window):
    """Run drawn program ``seed`` at ``batch_window=window``; log every
    client exchange as ``(API calls so far, kind, daemon, application
    calls carried)``."""
    spec = generate_program(seed)
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(spec["n_servers"]),
        coherence_protocol=spec["protocol"],
        batch_window=window,
    )
    api, gcf = deployment.api, deployment.driver.gcf
    calls, log = [0], []
    tick = api._tick

    def counting_tick():
        calls[0] += 1
        return tick()

    api._tick = counting_tick

    def logged(kind, weigh):
        send = getattr(gcf, kind)

        def spy(target, payload, *args, **kwargs):
            log.append((calls[0], kind, target.name, weigh(payload)))
            return send(target, payload, *args, **kwargs)

        setattr(gcf, kind, spy)

    logged("request", lambda msg: 1)
    logged("send_bulk", lambda msg: 1)
    logged("fetch_bulk", lambda msg: 1)
    logged(
        "request_batch",
        lambda msgs: sum(1 + len(getattr(m, "args", None) or ()) for m in msgs),
    )
    outcome = ProgramRun.execute(api, spec)
    return log, deployment.driver.stats.round_trips, outcome


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), window=st.sampled_from([1, 2, 3, 5, 32]))
def test_drawn_programs_dispatch_where_they_did_unfolded(seed, window):
    folded = _dispatch_log(seed, window)
    with _unfolded():
        unfolded = _dispatch_log(seed, window)
    assert folded[0] == unfolded[0]
    assert folded[1] == unfolded[1]
    assert folded[2]["final"] == unfolded[2]["final"]
