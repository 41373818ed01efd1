"""Regression: a staged push must survive an aborted client fetch.

The PR-9 race: a completion notification stages a push payload for a
buffer, then a blocking read's *demand* fetch for that buffer dies
(daemon unreachable, retries exhausted).  The driver rolls the
optimistic ``acquire_read`` back with
:meth:`~repro.core.coherence.planner.TransferPlanner.abort_fetch`
— which must be a pure directory rollback: the write epoch stays
untouched and the staged entry stays parked, so the application-level
retry read consumes the pushed bytes instead of re-fetching from a
daemon that may still be unreachable.  An abort that bumped the epoch
(or dropped the staging) would silently turn every raced push into a
wasted one.
"""

import numpy as np

from repro.bench.conformance import BUFFER_ELEMS, PROGRAM_SOURCE
from repro.core.coherence.directory import CLIENT, State
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl.constants import CL_MEM_COPY_HOST_PTR, CL_MEM_READ_WRITE
from repro.testbed import deploy_dopencl

#: Producer rounds: rounds 1-2 teach the planner the stable
#: server->client edge (two closed kernel epochs with the client in the
#: reader set), round 4's launch carries the hint.
ROUNDS = 4

#: Both protocols push to a client consumer (under MOSI the client is
#: the only party a push may target); each test runs under both.
PROTOCOLS = ("msi", "mosi")


def _deployment_with_a_staged_push(protocol):
    """Drive the producer->demand-read loop until a push payload is
    parked in the driver's staging, then stop *before* any sync point
    touches the buffer again."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(1), coherence_protocol=protocol)
    cl = deployment.api
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])
    ctx = cl.clCreateContext(devices)
    queue = cl.clCreateCommandQueue(ctx, devices[0])
    program = cl.clCreateProgramWithSource(ctx, PROGRAM_SOURCE)
    cl.clBuildProgram(program)
    seed = np.zeros(BUFFER_ELEMS, dtype=np.float32)
    buf = cl.clCreateBuffer(
        ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, seed.nbytes, seed
    )
    for r in range(ROUNDS):
        kernel = cl.clCreateKernel(program, "fill")
        cl.clSetKernelArg(kernel, 0, buf)
        cl.clSetKernelArg(kernel, 1, np.float32(1.0 + r))
        cl.clSetKernelArg(kernel, 2, BUFFER_ELEMS)
        cl.clEnqueueNDRangeKernel(queue, kernel, (BUFFER_ELEMS,))
        if r < ROUNDS - 1:
            # Demand read: records the client in the epoch's reader set.
            cl.clEnqueueReadBuffer(queue, buf)
        else:
            # Final round: the completion notification (carrying the
            # push payload) lands at this finish; nothing consumes it.
            cl.clFinish(queue)
    return deployment, cl, queue, buf


def test_the_loop_genuinely_stages_a_push():
    """Sanity for the fixture itself: the final launch was hinted and
    its payload is parked at the hinted (current) epoch."""
    for protocol in PROTOCOLS:
        deployment, _cl, _queue, buf = _deployment_with_a_staged_push(protocol)
        driver = deployment.driver
        assert driver.stats.speculative_pushes == 1, protocol
        assert buf.id in driver._staged_pushes, protocol
        staged_epoch, _payload, _arrival = driver._staged_pushes[buf.id]
        assert staged_epoch == buf.planner.epoch, protocol


def test_staged_push_survives_an_aborted_fetch_and_feeds_the_retry():
    for protocol in PROTOCOLS:
        _abort_a_fetch_then_read(protocol)


def _abort_a_fetch_then_read(protocol):
    deployment, cl, queue, buf = _deployment_with_a_staged_push(protocol)
    driver = deployment.driver
    staged_epoch = driver._staged_pushes[buf.id][0]
    # The race: a blocking read's optimistic acquire marks the client
    # valid, then the physical fetch dies and the driver rolls back.
    plan = buf.planner.acquire_read(CLIENT)
    assert plan, "client copy should have been invalid (a fetch was planned)"
    buf.planner.abort_fetch(CLIENT, "injected: daemon unreachable mid-fetch")
    # The rollback re-invalidates the client's entry (the demoted owner
    # keeps its valid copy — demotion is conservative), leaves the
    # write epoch untouched, and keeps the staged entry parked and
    # current; nothing is counted wasted.
    assert buf.planner.directory.state[CLIENT] == State.INVALID
    assert buf.planner.client_download_source() is not None
    assert buf.planner.epoch == staged_epoch
    assert driver._staged_pushes[buf.id][0] == staged_epoch
    assert driver.stats.wasted_pushes == 0
    # The retry read consumes the parked push: pushed bytes, one commit,
    # and no demand fetch round trip.
    commits = driver.stats.push_commits
    fetches = driver.stats.bulk_fetches
    data, _event = cl.clEnqueueReadBuffer(queue, buf)
    assert driver.stats.push_commits == commits + 1
    assert driver.stats.bulk_fetches == fetches
    expected = np.float32(ROUNDS) + np.arange(BUFFER_ELEMS, dtype=np.float32)
    np.testing.assert_array_equal(np.asarray(data).view(np.float32), expected)
    assert driver.stats.wasted_pushes == 0
