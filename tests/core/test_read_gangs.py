"""A blocking read gangs its source's stranded siblings onto its own
download, and only then: one rule, the same with pushes on and off.

* A gang sibling moves the sections the client lacks (all owned by the
  read's source), never the whole buffer: a sibling its source holds
  only in part comes back with the client's bytes elsewhere, as
  ``NativeAPI`` computes them.
* A read a current push serves downloads nothing of its own, so it
  gangs nothing: no ``CoalescedBufferDownload`` goes out, and a
  stranded sibling stays Invalid on the client until it is read.
* Pushes never cost a read round trips: on every conformance seed of
  the tier-1 range, ``full`` (pushes on) makes no more round trips than
  ``push_off``.
"""

import numpy as np
import pytest

import repro.core.protocol.messages as P
from repro.bench.conformance import CONFIGS, generate_program, run_program
from repro.core.coherence.directory import CLIENT, State
from repro.hw import Host, WESTMERE_NODE
from repro.hw.cluster import make_ib_cpu_cluster
from repro.net.gcf import GCFProcess
from repro.ocl import CL_MEM_READ_WRITE
from repro.testbed import deploy_dopencl, native_api_on

TOUCH = """
__kernel void touch(__global int *x, const int base) {
    int i = (int)get_global_id(0) + base;
    x[i] = x[i] + 1;
}
"""

N = 256  # ints
A0 = np.arange(N, dtype=np.int32) * 3
B0 = np.arange(N, dtype=np.int32) * 5 + 1


def _setup(cl, devices):
    ctx = cl.clCreateContext(devices)
    queues = [cl.clCreateCommandQueue(ctx, d) for d in devices]
    program = cl.clCreateProgramWithSource(ctx, TOUCH)
    cl.clBuildProgram(program)
    a, b = (cl.clCreateBuffer(ctx, CL_MEM_READ_WRITE, N * 4) for _ in range(2))
    return queues, program, a, b


def _touch(cl, program, queue, buf, base, items):
    kernel = cl.clCreateKernel(program, "touch")
    cl.clSetKernelArg(kernel, 0, buf)
    cl.clSetKernelArg(kernel, 1, base)
    return cl.clEnqueueNDRangeKernel(queue, kernel, (items,))


def _partly_stranded_sibling(cl, devices):
    """Write ``a`` and ``b``, read ``a``; then touch ``a[0:16]`` and all
    of ``b`` on the last device, finish, read ``b`` and then ``a``."""
    queues, program, a, b = _setup(cl, devices)
    cl.clEnqueueWriteBuffer(queues[0], a, True, 0, A0)
    cl.clEnqueueWriteBuffer(queues[0], b, True, 0, B0)
    cl.clEnqueueReadBuffer(queues[0], a)
    _touch(cl, program, queues[-1], a, 0, 16)
    _touch(cl, program, queues[-1], b, 0, N)
    cl.clFinish(queues[-1])
    got_b = cl.clEnqueueReadBuffer(queues[-1], b)[0].view(np.int32)
    got_a = cl.clEnqueueReadBuffer(queues[-1], a)[0].view(np.int32)
    return got_a, got_b


def _native():
    cl = native_api_on(Host(WESTMERE_NODE))
    return _partly_stranded_sibling(cl, cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:1])


CELLS = [
    pytest.param(dict(coherence_protocol=p, push_transfers=push), id=f"{p}-push_{'on' if push else 'off'}")
    for p in ("msi", "mosi")
    for push in (True, False)
] + [pytest.param(dict(batch_window=0), id="reference")]


@pytest.mark.parametrize("options", CELLS)
def test_a_gang_sibling_moves_only_the_sections_the_client_lacks(options):
    deployment = deploy_dopencl(make_ib_cpu_cluster(2), **options)
    cl = deployment.api
    got_a, got_b = _partly_stranded_sibling(cl, cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:2])
    want_a, want_b = _native()
    np.testing.assert_array_equal(got_b, want_b)
    np.testing.assert_array_equal(got_a, want_a)


def test_a_read_a_push_serves_gangs_nothing(monkeypatch):
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    cl = deployment.api
    driver = deployment.driver
    (queue,), program, a, b = _setup(cl, cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])[:1])
    cl.clEnqueueWriteBuffer(queue, a, True, 0, A0)
    cl.clEnqueueWriteBuffer(queue, b, True, 0, B0)
    cl.clEnqueueReadBuffer(queue, b)
    # Three rounds of a's producer->client edge make its next launch
    # carry a push hint; b, written once, predicts none.
    for _ in range(3):
        _touch(cl, program, queue, a, 0, N)
        cl.clEnqueueReadBuffer(queue, a)
    _touch(cl, program, queue, b, 0, N)
    _touch(cl, program, queue, a, 0, N)
    assert driver._push_due(a)
    sent = []
    batch = GCFProcess.request_batch

    def request_batch(self, target, msgs, *args, **kwargs):
        sent.extend(msgs)
        return batch(self, target, msgs, *args, **kwargs)

    monkeypatch.setattr(GCFProcess, "request_batch", request_batch)
    got = cl.clEnqueueReadBuffer(queue, a)[0].view(np.int32)
    assert driver.stats.push_commits >= 1
    assert not [m for m in sent if isinstance(m, P.CoalescedBufferDownload)]
    assert b.coherence.segments[0][CLIENT] == State.INVALID
    np.testing.assert_array_equal(got, A0 + 4)
    np.testing.assert_array_equal(cl.clEnqueueReadBuffer(queue, b)[0].view(np.int32), B0 + 1)


#: The seeds of the round-trip gate: ``full`` against ``push_off``.
GATE_SEEDS = range(60)


def test_pushes_never_cost_a_read_round_trips():
    worse = {}
    for seed in GATE_SEEDS:
        program = generate_program(seed)
        full, off = (
            run_program(program, dict(CONFIGS[name]))["stats"]["round_trips"] for name in ("full", "push_off")
        )
        if full > off:
            worse[seed] = (full, off)
    assert not worse, f"full > push_off round trips (seed: (full, push_off)): {worse}"
