"""Bounded virtual time: a deployment's timelines prune behind the
cluster-wide clock floor (the slowest client clock), and no number moves.

The floor argument is in docs/architecture.md ("Virtual time"); here a
long multi-tenant run checks that the live reservations stop growing and
the clocks end where they did before pruning existed, and the
conformance programs run with pruning forced at every allocation (at the
real threshold they never reach it) must print what they print unforced,
without one request landing behind a horizon.
"""

import numpy as np
import pytest

from repro.bench import conformance
from repro.bench.multiclient import MULTI_SOURCE
from repro.hw.cluster import make_multi_client_gpu_server
from repro.ocl.constants import CL_DEVICE_TYPE_GPU, CL_MEM_WRITE_ONLY
from repro.sim import timeline as timeline_module
from repro.testbed import deploy_dopencl

ROUNDS = 1000
WINDOW = 100
ELEMS = 32

#: Each tenant's client clock after the 1 000 rounds, recorded with
#: pruning off (since a launch carries its kernel's creation and the
#: argument values its daemon lacks; since messages cross as positional
#: values; and since a ``clFinish`` learns the launch's completion from
#: its notification: each round's batch is the launch alone, 4 B smaller
#: with its unused lists sent as ``None``, the daemon CPU runs no Finish,
#: and the client resumes at the notification's arrival, not the Finish
#: reply's — about 0.26 % earlier after 1 000 rounds; and since a
#: ``np.float32`` argument crosses as a 5-byte single, not a 9-byte
#: double: about 0.02 % earlier again; and since a launch no longer
#: carries the 1-byte ``None`` of the direct broadcast's replica list
#: ahead of its argument entries: about 0.003 % earlier again).
FINAL_CLOCKS = [
    "0x1.2322f10853a7bp-2",
    "0x1.22b14e86555e2p-2",
    "0x1.22ed4f5b5508ep-2",
    "0x1.2329503054b3bp-2",
]


def _live(deployment) -> int:
    return sum(len(tl) for tls in deployment.timelines().values() for tl in tls)


def test_a_long_multi_tenant_run_keeps_its_timelines_bounded():
    deployment = deploy_dopencl(make_multi_client_gpu_server(4), n_clients=4)
    tenants = []
    for i, cl in enumerate(deployment.apis):
        gpu = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0], CL_DEVICE_TYPE_GPU)[i]
        ctx = cl.clCreateContext([gpu])
        queue = cl.clCreateCommandQueue(ctx, gpu)
        program = cl.clCreateProgramWithSource(ctx, MULTI_SOURCE)
        cl.clBuildProgram(program)
        tenants.append((cl, queue, program, cl.clCreateBuffer(ctx, CL_MEM_WRITE_ONLY, ELEMS * 4)))
    live = []
    for r in range(ROUNDS):
        for n, (cl, queue, program, buf) in enumerate(tenants):
            kernel = cl.clCreateKernel(program, "fill")
            cl.clSetKernelArg(kernel, 0, buf)
            cl.clSetKernelArg(kernel, 1, np.float32(r))
            cl.clSetKernelArg(kernel, 2, n + 1)
            cl.clEnqueueNDRangeKernel(queue, kernel, (ELEMS,))
            cl.clFinish(queue)
            cl.clReleaseKernel(kernel)
        live.append(_live(deployment))
    # Each timeline's count saws between what survives a prune and twice
    # that, out of step with the others: compare the peaks of the first
    # and the last 100 rounds, allowing a little drift between them.
    assert max(live[-WINDOW:]) <= max(live[:WINDOW]) + 2 * timeline_module.PRUNE_AT
    assert sum(tl.pruned for tls in deployment.timelines().values() for tl in tls) > 50 * live[-1]
    assert [cl.now.hex() for cl, *_ in tenants] == FINAL_CLOCKS
    for n, (cl, queue, _program, buf) in enumerate(tenants):
        data, _event = cl.clEnqueueReadBuffer(queue, buf)
        np.testing.assert_array_equal(
            data.view(np.float32)[: n + 1], np.float32(ROUNDS - 1) + np.arange(n + 1, dtype=np.float32)
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["--seeds", "6"],
        ["--clients", "4", "--seeds", "3"],
        ["--faults", "--seeds", "2"],
    ],
    ids=["solo", "clients", "faults"],
)
def test_conformance_is_unmoved_by_pruning_at_every_allocation(argv, monkeypatch, capsys):
    assert conformance.main(argv) == 0
    unforced = capsys.readouterr().out
    dropped = []
    prune = timeline_module.Timeline.prune

    def counting_prune(self, floor):
        dropped.append(prune(self, floor))
        return dropped[-1]

    monkeypatch.setattr(timeline_module, "PRUNE_AT", 0)
    monkeypatch.setattr(timeline_module.Timeline, "prune", counting_prune)
    assert conformance.main(argv) == 0  # a TimelineError would raise out of here
    assert capsys.readouterr().out == unforced
    assert sum(dropped) > 0
