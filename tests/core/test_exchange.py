"""The one client exchange primitive and its replay contract.

Every synchronous client->daemon exchange runs through
``Transport.exchange`` (``core/client/resilience.py``), so its protocol
is stated once: attempt under the retry loop, resume at the latest
arrival, *then* raise the first error reply.  Each test here pins a
defect the hand-rolled copies had drifted into.
"""

import numpy as np
import pytest

import repro.core.protocol.messages as P
from repro.bench.conformance import (
    CONFIGS,
    _semantics,
    generate_program,
    run_program_resilient,
)
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_READ_WRITE, CLError
from repro.sim.faults import FaultAction, FaultPlan
from repro.testbed import deploy_dopencl


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
@pytest.mark.parametrize("leg", ("BuildProgramRequest", "BuildProgramResponse"))
def test_dropped_build_leg_is_absorbed(leg, seed):
    """``clBuildProgram`` with the program cache off is a synchronous
    fan-out like any other: a dropped request *or* reply leg costs one
    retry (a replayed build is a deterministic rebuild) instead of
    escaping the ``cl*`` call as the simulator's ``MessageDropped``."""
    spec, flags = generate_program(seed), dict(CONFIGS["cache_off"])
    baseline = run_program_resilient(spec, flags, None)
    plan = FaultPlan([FaultAction("drop", nth=1, tag=leg)], max_transfers=100_000)
    faulted = run_program_resilient(spec, flags, plan)
    assert faulted["injector"]["injected_drops"] == 1
    assert faulted["stats"]["retries"] == 1
    assert faulted["stats"]["dead_daemons"] == 0
    assert _semantics(faulted) == _semantics(baseline)


def _live_queue():
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    api = deployment.api
    devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    ctx = api.clCreateContext(devices)
    queue = api.clCreateCommandQueue(ctx, devices[0])
    api.clCreateBuffer(ctx, CL_MEM_READ_WRITE, 16)
    api.clFinish(queue)  # the daemon now holds the context and queue
    return deployment.driver, queue


def _spy_outcomes(monkeypatch, gcf, name):
    outcomes = []

    def spy(*args, _send=getattr(gcf, name)):
        outcomes.append(_send(*args))
        return outcomes[-1]

    monkeypatch.setattr(gcf, name, spy)
    return outcomes


def test_rejected_upload_init_costs_its_round_trip(monkeypatch):
    """An error reply costs the round trip that carried it: the client
    clock stands at (or past) the rejected init's reply arrival when the
    ``CLError`` raises — it used to stay at the send time."""
    driver, queue = _live_queue()
    replies = _spy_outcomes(monkeypatch, driver.gcf, "request")
    init = P.CoalescedBufferUpload(
        queue_id=queue.id, buffer_ids=[999999], event_ids=[driver.new_id()],
        nbytes_list=[16],
    )
    sent_at = driver.clock.now
    with pytest.raises(CLError):
        driver.send_bulk([queue.server], lambda conn: init, [np.ones(16, np.uint8)], 16)
    assert replies[-1].response.error
    assert driver.clock.now >= replies[-1].reply_arrival > sent_at
    assert driver.stats.bulk_sends == 0  # the payload never streamed


def test_rejected_fetch_costs_its_round_trip(monkeypatch):
    driver, queue = _live_queue()
    replies = _spy_outcomes(monkeypatch, driver.gcf, "fetch_bulk")
    request = P.CoalescedBufferDownload(
        queue_id=queue.id, buffer_ids=[999999], event_ids=[driver.new_id()],
        nbytes_list=[16],
    )
    sent_at = driver.clock.now
    with pytest.raises(CLError):
        driver._fetch_bulk_prefixed(queue.server, lambda: request, [])
    assert replies[-1].response.error
    assert driver.clock.now >= replies[-1].reply_arrival > sent_at


def test_error_replies_raise_after_every_server_answered():
    """A fan-out contacts every server before the first error reply
    raises (``check=False`` hands all of them back instead)."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(2))
    driver = deployment.driver
    api = deployment.api
    api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
    servers = driver.connections()
    before = driver.stats.requests
    with pytest.raises(CLError):
        driver.fanout(servers, lambda conn: P.FinishRequest(queue_id=999999))
    assert driver.stats.requests == before + 2
    outcomes = driver.fanout(
        servers, lambda conn: P.FinishRequest(queue_id=999999), check=False
    )
    assert [bool(o.response.error) for o in outcomes.values()] == [True, True]
