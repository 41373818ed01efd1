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
from repro.hw.cluster import make_ib_cpu_cluster
from repro.ocl import CL_MEM_READ_WRITE, CLError
from repro.testbed import deploy_dopencl


def _live_queue(batch_window=None):
    deployment = deploy_dopencl(make_ib_cpu_cluster(1), batch_window=batch_window)
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
    ``CLError`` raises — it used to stay at the send time.  Only the
    reference path (``batch_window=0``) sends an upload init of its own."""
    driver, queue = _live_queue(batch_window=0)
    replies = _spy_outcomes(monkeypatch, driver.gcf, "request")
    init = P.BufferDataUpload(
        buffer_id=999999, queue_id=queue.id, event_id=driver.new_id(), offset=0,
        nbytes=16, wait_event_ids=[],
    )
    sent_at = driver.clock.now
    with pytest.raises(CLError):
        driver.send_bulk([queue.server], lambda conn: init, np.ones(16, np.uint8), 16)
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
        driver.transport.fetch(queue.server, request)
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
