"""Kernel objects and arguments on demand.

On the pipeline ``clCreateKernel`` and ``clSetKernelArg`` validate
client-side and record their result on the ``KernelStub``; neither
sends anything.  A launch of kernel K on daemon S carries what S lacks:
K's creation (``EnqueueKernelRequest.program_id`` / ``name``) if S has
never created K, and an ``[index, value]`` entry (``args``) for every
argument value S has not bound.  The daemon runs each carried step as
the request it stands for, so the first error and every effect stay
those of the eager fan-out the reference path (``batch_window=0``)
still sends.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.conformance import ProgramRun, generate_program
from repro.bench.multiclient import MULTI_SOURCE
from repro.clc import LocalMemory
from repro.core.client.resilience import RetryPolicy
from repro.core.daemon.admission import AdmissionPolicy
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

    def bound(self, kernel, buffers, daemon=None):
        """The daemon-side binding of ``kernel``: a buffer as its
        client handle, a ``__local`` size as ``("local", n)``."""
        registry = (daemon or self.daemon).registry
        objects = {id(registry.peek(self.client, b.id)): b.id for b in buffers}
        out = []
        for arg in registry.peek(self.client, kernel.id).args:
            if id(arg) in objects:
                out.append(objects[id(arg)])
            elif isinstance(arg, LocalMemory):
                out.append(("local", arg.nbytes))
            else:
                out.append(arg if isinstance(arg, (int, float, np.floating)) else repr(arg))
        return out

    def sync(self, errors, queue=None):
        """``clFinish``, recording the error code it raises (0: none)."""
        try:
            self.api.clFinish(queue or self.queues[0])
            errors.append(0)
        except CLError as exc:
            errors.append(int(exc.code))

    def launches(self):
        """Record every launch the driver windows, as
        ``(server, program_id, args)``; returns the growing list."""
        driver, seen = self.deployment.driver, []
        defer = driver.defer

        def spy(conn, msg, *args, **kwargs):
            if isinstance(msg, P.EnqueueKernelRequest):
                seen.append((conn.name, msg.program_id, msg.args))
            return defer(conn, msg, *args, **kwargs)

        driver.defer = spy
        return seen


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
    """Fill the GPU's 4 GB with four max_alloc buffers, settled: a copy
    is allocated where a launch first uses it (here a kernel of its own)."""
    api, kernel = rig.api, rig.api.clCreateKernel(rig.program, "scale")
    chunk = (1 << 30) - 4096  # room for the test's own small buffers
    buffers = [api.clCreateBuffer(rig.ctx, CL_MEM_WRITE_ONLY, chunk) for _ in range(4)]
    for buf in buffers:
        _set_scale(api, kernel, buf, 1.0)
        api.clEnqueueNDRangeKernel(rig.queues[0], kernel, (4,))
    api.clFinish(rig.queues[0])
    return buffers


# ----------------------------------------------------------------------
# poisoning: step by step, the eager sequence's effects
# ----------------------------------------------------------------------
def test_an_entry_naming_a_poisoned_buffer_poisons_the_kernel_and_the_launch():
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
    # Argument 2 is bound already: only the two changed values ship.
    assert _windowed_args(rig) == [[[0, bad.id], [1, 8.0]]]
    rig.sync(errors)
    alloc = int(ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE)
    assert errors == [0, alloc]
    assert rig.poison(kernel.id) == rig.poison(event.id) == alloc
    # The skipped entry left arg 0 bound to `good`, and the entry behind
    # it never bound (the kernel was poisoned): nothing ran stale-bound.
    assert rig.bound(kernel, [good]) == [good.id, 2.0, N]
    assert rig.read(good).tolist() == [2.0] * N


def test_a_poisoned_wait_event_still_binds_the_entries():
    """The creation and the entries run although the launch is skipped,
    so the kernel is not poisoned and its next launch — no new
    clSetKernelArg, so it carries nothing — runs."""
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
    assert [len(args) for args in _windowed_args(rig)] == [3, 3]
    rig.sync(errors)
    poisoned = [rig.poison(h) for h in (k1.id, failed.id, k2.id, gated.id)]
    api.clEnqueueNDRangeKernel(queue, k2, (N,))
    assert _windowed_args(rig) == [None]
    rig.sync(errors)
    bad_size = int(ErrorCode.CL_INVALID_WORK_GROUP_SIZE)
    assert errors == [0, bad_size, 0]
    assert poisoned == [0, bad_size, 0, bad_size]
    assert rig.bound(k2, [a, b]) == [b.id, 3.0, N]
    assert [rig.read(a).tolist(), rig.read(b).tolist()] == [[1.0] * N, [3.0] * N]


def test_an_entry_that_fails_to_bind_poisons_the_kernel():
    rig = _gpu_rig()
    api, queue, errors = rig.api, rig.queues[0], []
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    api.clSetKernelArg(kernel, 0, buf)
    api.clSetKernelArg(kernel, 1, "two")  # passes the client, not the daemon
    api.clSetKernelArg(kernel, 2, N)
    event = api.clEnqueueNDRangeKernel(queue, kernel, (N,))
    assert _windowed_args(rig) == [[[0, buf.id], [1, "two"], [2, N]]]
    rig.sync(errors)
    bad_value = int(ErrorCode.CL_INVALID_ARG_VALUE)
    assert errors == [bad_value]
    assert [rig.poison(kernel.id), rig.poison(event.id)] == [bad_value, bad_value]
    assert rig.bound(kernel, [buf])[0] == buf.id  # bound before the failure
    assert rig.read(buf).tolist() == [1.0] * N


def test_a_launch_that_fails_after_every_entry_bound_leaves_the_kernel_usable():
    rig = _gpu_rig()
    api, queue, errors = rig.api, rig.queues[0], []
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    rig.sync(errors)
    _set_scale(api, kernel, buf, 2.0)
    event = api.clEnqueueNDRangeKernel(queue, kernel, (N,), local_size=(7,))
    assert [len(args) for args in _windowed_args(rig)] == [3]
    rig.sync(errors)
    poisoned = [rig.poison(kernel.id), rig.poison(event.id)]
    api.clEnqueueNDRangeKernel(queue, kernel, (N,))
    rig.sync(errors)
    bad_size = int(ErrorCode.CL_INVALID_WORK_GROUP_SIZE)
    assert errors == [0, bad_size, 0]
    assert poisoned == [0, bad_size]
    assert rig.read(buf).tolist() == [2.0] * N


def _quota_at(rig, extra=0):
    """Cap the client's registry at what it holds now (plus ``extra``)."""
    held = rig.daemon.registry.count(rig.client)
    rig.daemon.admission.policy = AdmissionPolicy(max_objects_per_client=held + extra)


def test_a_refused_creation_poisons_the_kernel_and_the_launch():
    rig = _gpu_rig()
    api, errors = rig.api, []
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    _set_scale(api, kernel, buf, 2.0)
    _quota_at(rig)
    event = api.clEnqueueNDRangeKernel(rig.queues[0], kernel, (N,))
    rig.sync(errors)
    refused = int(ErrorCode.CL_OUT_OF_RESOURCES)
    assert errors == [refused]
    assert rig.poison(kernel.id) == rig.poison(event.id) == refused
    assert rig.daemon.registry.peek(rig.client, kernel.id) is None
    assert rig.deployment.driver.stats.kernels_created_on_launch == 1
    # Released, the never-created kernel retires its poison as a no-op.
    api.clReleaseKernel(kernel)
    rig.sync(errors)
    assert errors == [refused, 0] and rig.poison(kernel.id) == 0
    assert rig.read(buf).tolist() == [1.0] * N


def test_a_poisoned_program_poisons_the_carried_creation_and_the_launch():
    rig = _gpu_rig()
    api, errors = rig.api, []
    buf = rig.buffer()
    _quota_at(rig)
    program = api.clCreateProgramWithSource(rig.ctx, SCALE)  # refused remotely
    api.clBuildProgram(program)  # the client-side build cache answers
    rig.sync(errors)
    rig.daemon.admission.policy = AdmissionPolicy()
    kernel = api.clCreateKernel(program, "scale")
    _set_scale(api, kernel, buf, 2.0)
    event = api.clEnqueueNDRangeKernel(rig.queues[0], kernel, (N,))
    rig.sync(errors)
    refused = int(ErrorCode.CL_OUT_OF_RESOURCES)
    assert errors == [refused, refused]  # the program's creation, then the launch
    assert rig.poison(kernel.id) == rig.poison(event.id) == refused
    detail = rig.daemon.registry.poison_info(rig.client, (kernel.id,))[2]
    assert f"ID {program.id} was poisoned" in detail
    assert rig.read(buf).tolist() == [1.0] * N


# ----------------------------------------------------------------------
# what a launch carries
# ----------------------------------------------------------------------
def test_reference_path_sends_every_update_as_its_own_round_trip(monkeypatch):
    rig = _gpu_rig(batch_window=0)
    api, driver = rig.api, rig.deployment.driver
    buf = rig.buffer()
    before = driver.stats.round_trips
    kernel = api.clCreateKernel(rig.program, "scale")
    assert driver.stats.round_trips - before == 1
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
    assert sent[-1].args is None and sent[-1].program_id is None
    stats = driver.stats
    assert stats.folded_kernel_args == stats.kernels_created_on_launch == 0
    api.clFinish(rig.queues[0])
    assert rig.read(buf).tolist() == [2.0] * N


def test_a_kernel_never_launched_sends_nothing():
    rig = _gpu_rig()
    api, stats = rig.api, rig.deployment.driver.stats
    buf = rig.buffer()
    before = stats.snapshot()
    kernel = api.clCreateKernel(rig.program, "scale")
    _set_scale(api, kernel, buf, 2.0)
    api.clRetainKernel(kernel)
    api.clReleaseKernel(kernel)
    api.clReleaseKernel(kernel)
    assert rig.deployment.driver.pending_commands() == 0
    assert stats.snapshot() == before  # not a byte, not a round trip


def test_other_daemons_keep_their_updates_for_a_later_launch():
    """A launch on S creates K on S only; a later launch on T ships the
    creation and every argument; relaunching on S with one argument
    changed ships exactly that entry.  The stub keeps its program alive
    for T, although the application released it before any launch."""
    rig = _cpu_rig(2)
    api, (q0, q1) = rig.api, rig.queues
    s, t = (rig.deployment.daemon_on(q.server.name) for q in (q0, q1))
    launches = rig.launches()
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    api.clReleaseProgram(rig.program)
    _set_scale(api, kernel, buf, 2.0)
    api.clEnqueueNDRangeKernel(q0, kernel, (N,))
    api.clFinish(q0)
    assert rig.deployment.driver.window_messages(q1.server.name) == []
    assert t.registry.peek(rig.client, kernel.id) is None
    api.clEnqueueNDRangeKernel(q1, kernel, (N,))
    api.clFinish(q1)
    api.clSetKernelArg(kernel, 1, np.float32(3.0))
    api.clEnqueueNDRangeKernel(q0, kernel, (N,))
    api.clFinish(q0)
    entries = [[0, buf.id], [1, 2.0], [2, N]]
    assert launches == [
        (s.name, rig.program.id, entries),
        (t.name, rig.program.id, entries),
        (s.name, None, [[1, 3.0]]),
    ]
    assert rig.bound(kernel, [buf], daemon=t) == [buf.id, 2.0, N]
    assert rig.read(buf).tolist() == [12.0] * N
    api.clReleaseKernel(kernel)  # both holders, then the program everywhere
    windowed = [rig.deployment.driver.window_messages(q.server.name) for q in (q0, q1)]
    assert [[type(m) for m in w] for w in windowed] == [
        [P.ReleaseKernelRequest, P.ReleaseProgramRequest]
    ] * 2
    api.clFinish(q0)
    api.clFinish(q1)
    assert all(d.registry.peek(rig.client, rig.program.id) is None for d in (s, t))


def test_values_compare_with_their_type_and_a_nan_always_reships():
    rig = _gpu_rig()
    api, queue = rig.api, rig.queues[0]
    launches = rig.launches()
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    _set_scale(api, kernel, buf, 1.0)
    steps = [
        (2, N), (2, np.int32(N)), (2, float(N)), (2, float(N)), (2, True), (2, 1),
        (1, np.float32("nan")), (1, None),
    ]
    for index, value in steps:
        if value is not None:
            api.clSetKernelArg(kernel, index, value)
        api.clEnqueueNDRangeKernel(queue, kernel, (N,))
    api.clFinish(queue)
    shipped = [args for _server, _program, args in launches]
    assert shipped[0] == [[0, buf.id], [1, 1.0], [2, N]]
    # An np.int32 ships as the int already bound; 16.0, True and 1 each
    # differ from the value before them (though Python calls them equal).
    assert shipped[1:6] == [None, [[2, float(N)]], None, [[2, True]], [[2, 1]]]
    assert [type(shipped[i][0][1]) for i in (2, 4, 5)] == [float, bool, int]
    for args in shipped[6:]:  # NaN never equals what the daemon holds
        assert len(args) == 1 and args[0][0] == 1 and math.isnan(args[0][1])
    assert math.isnan(rig.bound(kernel, [buf])[1])


def test_a_signed_zero_reships_and_reads_back_as_natively():
    """``0.0 == -0.0`` in Python, but their encodings differ: setting
    ``-0.0`` after a launch with ``0.0`` ships the new value, and the
    read-back sign bits equal ``NativeAPI``'s."""

    def program(cl, queue, ctx):
        buf = cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, N * 4)
        cl.clEnqueueWriteBuffer(queue, buf, True, 0, np.ones(N, dtype=np.float32))
        prog = cl.clCreateProgramWithSource(ctx, SCALE)
        cl.clBuildProgram(prog)
        kernel = cl.clCreateKernel(prog, "scale")
        cl.clFinish(queue)
        _set_scale(cl, kernel, buf, 0.0)
        cl.clEnqueueNDRangeKernel(queue, kernel, (N,))  # 1 * 0.0
        cl.clSetKernelArg(kernel, 1, np.float32(-0.0))
        cl.clEnqueueNDRangeKernel(queue, kernel, (N,))  # 0.0 * -0.0
        cl.clFinish(queue)
        data, _ = cl.clEnqueueReadBuffer(queue, buf)
        return bytes(data)

    native = NativeAPI(Host(GPU_SERVER))
    gpu = native.clGetDeviceIDs(native.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[0]
    ctx = native.clCreateContext([gpu])
    expected = program(native, native.clCreateCommandQueue(ctx, gpu), ctx)
    assert expected == np.full(N, -0.0, dtype=np.float32).tobytes()

    rig = _gpu_rig()
    launches = rig.launches()
    assert program(rig.api, rig.queues[0], rig.ctx) == expected
    shipped = launches[1][2]
    assert shipped == [[1, 0.0]] and math.copysign(1.0, shipped[0][1]) == -1.0


def test_a_redundant_release_leaves_the_program_alone():
    """Releasing a kernel once too often fails at the next sync point,
    as a windowed release of an object the daemon no longer holds does,
    and the program the application still holds keeps creating and
    launching kernels."""
    rig = _gpu_rig()
    api, queue = rig.api, rig.queues[0]
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    _set_scale(api, kernel, buf, 2.0)
    api.clEnqueueNDRangeKernel(queue, kernel, (N,))
    api.clReleaseKernel(kernel)
    api.clReleaseKernel(kernel)
    errors = []
    rig.sync(errors)
    again = api.clCreateKernel(rig.program, "scale")
    _set_scale(api, again, buf, 3.0)
    api.clEnqueueNDRangeKernel(queue, again, (N,))
    rig.sync(errors)
    assert errors == [ErrorCode.CL_INVALID_VALUE, 0]  # "no object with ID"
    assert rig.poison(rig.program.id) == 0
    assert rig.read(buf).tolist() == [6.0] * N


def test_a_repeated_index_keeps_program_order():
    """Last value wins, as on the native runtime: the bytes are equal,
    and the launch carries each index once, with its last value."""

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
    launches = rig.launches()
    got, (out, inp) = program(rig.api, rig.queues[0], rig.ctx)
    assert got == expected
    assert [args for _s, _p, args in launches] == [
        [[0, out.id], [1, inp.id], [2, 16], [3, 5.5], [4, True]]
    ]
    assert rig.deployment.driver.stats.folded_kernel_args == 5


# ----------------------------------------------------------------------
# daemon loss, replay, batch shape, observability
# ----------------------------------------------------------------------
def test_a_lost_daemon_fails_kernel_calls_with_the_daemon_loss_error():
    """A kernel call on a context with a lost daemon raises
    ``CL_DEVICE_NOT_AVAILABLE`` as the fan-out did, though nothing is
    sent; a relaunch on the lost daemon raises it before planning the
    peer copy toward it (which the peer answered ``CL_INVALID_MEM_OBJECT``
    from the crashed daemon's empty registry)."""
    rig = _cpu_rig(2, coherence_protocol="mosi", retry_policy=RetryPolicy())
    api, (q0, q1) = rig.api, rig.queues
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    _set_scale(api, kernel, buf, 2.0)
    api.clEnqueueNDRangeKernel(q1, kernel, (N,))
    api.clFinish(q1)
    api.clEnqueueNDRangeKernel(q0, kernel, (N,))  # buf's valid copy: q0's daemon
    api.clFinish(q0)
    injector = install_fault_injector(
        rig.deployment.cluster.network,
        FaultPlan(
            [FaultAction("crash", dst=q1.server.name, tag="CommandBatch")],
            max_transfers=10_000,
        ),
    )
    for daemon in rig.deployment.daemons:
        injector.register_crash_hook(daemon.host.name, daemon.crash)
    calls = [
        lambda: (api.clFlush(q1), api.clFinish(q1)),  # the loss surfaces
        lambda: api.clEnqueueNDRangeKernel(q1, kernel, (N,)),
        lambda: api.clCreateKernel(rig.program, "scale"),
        lambda: api.clSetKernelArg(kernel, 1, np.float32(3.0)),
        lambda: api.clReleaseKernel(kernel),
    ]
    codes = []
    for call in calls:
        with pytest.raises(CLError) as err:
            call()
        codes.append(int(err.value.code))
    assert codes == [int(ErrorCode.CL_DEVICE_NOT_AVAILABLE)] * len(calls)


def test_a_dropped_folded_reply_binds_the_entries_once(monkeypatch):
    rig = _gpu_rig(retry_policy=RetryPolicy())
    api, daemon, driver = rig.api, rig.daemon, rig.deployment.driver
    buf = rig.buffer()
    kernel = api.clCreateKernel(rig.program, "scale")
    creations, binds, launches = [], [], []
    create, bind = daemon._create_kernel, daemon._set_kernel_arg
    monkeypatch.setattr(daemon, "_create_kernel", lambda *a: creations.append(a) or create(*a))
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
    assert len(creations) == 1
    assert [index for _client, _kernel, index, _kind, _value in binds] == [0, 1, 2]
    assert len(launches) == 1 and len(launches[0].args) == 3
    assert rig.read(buf).tolist() == [2.0] * N


def _tenant_rounds(rounds):
    """``tenant_steady``'s round on three tenants: per tenant create a
    kernel, set its three arguments, launch; then every ``clFinish``.
    Returns the deployment and the messages of every batch."""
    deployment = deploy_dopencl(make_multi_client_gpu_server(3), n_clients=3)
    states, batches = [], []
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
            lambda target, msgs, *a, _send=request_batch, **k: batches.append(list(msgs))
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
    return deployment, batches


def test_a_tenant_round_is_a_batch_of_one_launch():
    """The launch carrying its kernel's creation and three entries, and
    no Finish (the launch's notification ends the ``clFinish``): a round
    trip per tenant and round, where a creation and three updates sent
    as commands of their own would make it five.  The first round also
    creates each tenant's buffer, ahead of its first launch."""
    deployment, batches = _tenant_rounds(2)
    assert [len(msgs) for msgs in batches] == [2] * 3 + [1] * 3
    text = cachestat_text(deployment)
    for driver in deployment.drivers:
        stats = driver.stats
        assert stats.kernels_created_on_launch == 2 and stats.folded_kernel_args == 6
        assert stats.local_finishes == 2 and stats.folded_finishes == 1  # the set-up's
        assert (
            "local_finishes=2 folded_finishes=1 "
            "kernels_created_on_launch=2 folded_kernel_args=6"
        ) in text


def test_a_tenant_launch_sends_its_unused_lists_as_none():
    """A tenant round's launch leaves ``local_size``, ``global_offset``
    and ``wait_event_ids`` at their ``None`` defaults: each sits ahead of
    the argument entries the launch carries, so each crosses, and
    ``None`` encodes in 1 B where an empty list takes 2 B — 38 B where
    empty lists would make 41 B (its ``np.float32`` argument crosses as
    a 5-byte single)."""
    _deployment, batches = _tenant_rounds(1)
    launches = [msg for msgs in batches for msg in msgs if isinstance(msg, P.EnqueueKernelRequest)]
    assert len(launches) == 3
    for launch in launches:
        assert launch.local_size is launch.global_offset is None
        assert launch.wait_event_ids is None
        assert launch.encoded_size() == len(launch.to_wire()) == 38


# ----------------------------------------------------------------------
# oracles: the wire price, and the arguments drawn programs launch with
# ----------------------------------------------------------------------
_ENTRY_VALUES = st.one_of(
    st.integers(min_value=1, max_value=2**40),  # a buffer ID or a __local size
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(st.tuples(st.integers(0, 31), _ENTRY_VALUES), max_size=12),
    creation=st.none() | st.tuples(st.integers(1, 2**40), st.text(max_size=12)),
)
def test_a_folded_launch_is_priced_as_its_encoding(entries, creation):
    program_id, name = creation or (None, None)
    msg = P.EnqueueKernelRequest(
        queue_id=3, kernel_id=9, event_id=12, global_size=[32], local_size=[],
        global_offset=[], wait_event_ids=[], push_hints=None,
        args=[[index, value] for index, value in entries] or None,
        program_id=program_id, name=name,
    )
    assert msg.wire_size == len(msg.to_wire()) + MESSAGE_HEADER_BYTES
    assert P.EnqueueKernelRequest.from_wire(msg.to_wire()) == msg


def _launch_bindings(seed, window):
    """Run drawn program ``seed`` at ``batch_window=window``; for every
    launch a daemon runs, the kernel's binding there (a buffer as the
    client ID it was registered under) and the stub's ``wire`` when the
    launch was windowed."""
    spec = generate_program(seed)
    deployment = deploy_dopencl(
        make_ib_cpu_cluster(spec["n_servers"]),
        coherence_protocol=spec["protocol"],
        batch_window=window,
    )
    driver, client = deployment.driver, deployment.driver.gcf.name
    expected, observed = {}, []
    enqueue = deployment.api.clEnqueueNDRangeKernel

    def launch(queue, kernel, *args, **kwargs):
        event = enqueue(queue, kernel, *args, **kwargs)
        expected[event.id] = list(kernel.wire)
        return event

    deployment.api.clEnqueueNDRangeKernel = launch
    for daemon in deployment.daemons:
        handlers = daemon.gcf._request_handlers
        run = handlers[P.EnqueueKernelRequest]

        def spy(msg, t, sender, _run=run, _daemon=daemon):
            kernel = _daemon.registry.peek(client, msg.kernel_id)
            ids = {id(obj): key for key, obj in _daemon.registry._objects[client].items()}
            observed.append((msg.event_id, [
                ids[id(a)] if id(a) in ids else a.nbytes if isinstance(a, LocalMemory) else a
                for a in kernel.args
            ]))
            return _run(msg, t, sender)

        handlers[P.EnqueueKernelRequest] = spy
    ProgramRun.execute(deployment.api, spec)
    return expected, observed, driver.stats


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), window=st.sampled_from([1, 2, 3, 5, 32]))
def test_drawn_programs_launch_with_the_arguments_they_set(seed, window):
    expected, observed, stats = _launch_bindings(seed, window)
    assert len(observed) == len(expected)
    for event_id, bound in observed:
        assert bound == pytest.approx(expected[event_id])
    assert stats.kernels_created_on_launch <= len(expected)
    assert stats.folded_kernel_args <= 4 * len(expected)
