"""Exactly-once batch replay: (client, epoch, seq) identity + daemon dedupe."""

import pytest

from repro.core.protocol import messages as P
from repro.hw.cluster import make_ib_cpu_cluster
from repro.testbed import deploy_dopencl


@pytest.fixture()
def rig():
    """A deployed single-server testbed with one queue already created."""
    deployment = deploy_dopencl(make_ib_cpu_cluster(1))
    cl = deployment.api
    devices = cl.clGetDeviceIDs(cl.clGetPlatformIDs()[0])
    ctx = cl.clCreateContext(devices)
    queue = cl.clCreateCommandQueue(ctx, devices[0])
    cl.clFinish(queue)  # drain the windows: creations are on the daemon now
    return deployment, queue


def test_stamped_batch_is_deduped_on_replay(rig):
    deployment, queue = rig
    driver, daemon = deployment.driver, deployment.daemons[0]
    msgs = [P.FlushRequest(queue_id=queue.id)]
    received = daemon.gcf.stats.batched_commands_received

    outcome1 = driver.gcf.request_batch(daemon.gcf, msgs, driver.clock.now, seq=7)
    assert daemon.gcf.stats.batched_commands_received == received + 1
    assert daemon.gcf.stats.deduped_batches == 0

    # The wire-level replay of the same (client, epoch, seq): the daemon
    # answers from its reply cache without re-running any handler.
    outcome2 = driver.gcf.request_batch(daemon.gcf, msgs, driver.clock.now, seq=7)
    assert daemon.gcf.stats.batched_commands_received == received + 1
    assert daemon.gcf.stats.deduped_batches == 1
    assert outcome2.responses == outcome1.responses


def test_epoch_isolates_replay_identity(rig):
    deployment, queue = rig
    driver, daemon = deployment.driver, deployment.daemons[0]
    msgs = [P.FlushRequest(queue_id=queue.id)]
    driver.gcf.request_batch(daemon.gcf, msgs, driver.clock.now, epoch=0, seq=3)
    received = daemon.gcf.stats.batched_commands_received
    # Same seq in the next epoch (a reconnected client) is a new batch.
    driver.gcf.request_batch(daemon.gcf, msgs, driver.clock.now, epoch=1, seq=3)
    assert daemon.gcf.stats.batched_commands_received == received + 1
    assert daemon.gcf.stats.deduped_batches == 0


def test_unstamped_batches_are_never_deduped(rig):
    deployment, queue = rig
    driver, daemon = deployment.driver, deployment.daemons[0]
    msgs = [P.FlushRequest(queue_id=queue.id)]
    received = daemon.gcf.stats.batched_commands_received
    for _ in range(2):  # the legacy shape: identical sends both execute
        driver.gcf.request_batch(daemon.gcf, msgs, driver.clock.now)
    assert daemon.gcf.stats.batched_commands_received == received + 2
    assert daemon.gcf.stats.deduped_batches == 0


def test_unstamped_batch_wire_shape_is_unchanged(rig):
    """Replay identity must be free on the happy path: an unstamped
    CommandBatch encodes without epoch/seq, so the default-config wire
    bytes are exactly the pre-replay ones (the benchdiff gate)."""
    from repro.net.messages import CommandBatch

    unstamped = CommandBatch(commands=[b"x"])
    assert "seq" not in unstamped.to_payload()
    assert "epoch" not in unstamped.to_payload()
    stamped = CommandBatch(commands=[b"x"], epoch=0, seq=0)
    assert stamped.to_payload()["seq"] == 0
    # The payload dict is shallow: the codec reads the message's own
    # field objects, no per-encode deep copy.
    assert stamped.to_payload()["commands"] is stamped.commands
    assert stamped.wire_size > unstamped.wire_size
    # Decoding the legacy payload yields the unstamped defaults.
    assert CommandBatch.from_wire(unstamped.cached_wire()).seq == -1


def test_replay_cache_is_bounded(rig):
    deployment, queue = rig
    driver, daemon = deployment.driver, deployment.daemons[0]
    msgs = [P.FlushRequest(queue_id=queue.id)]
    # Push seq 0 out of the (512-entry) cache, then replay it: the cache
    # must have evicted it, so the replay executes instead of deduping.
    for seq in range(520):
        driver.gcf.request_batch(daemon.gcf, msgs, driver.clock.now, seq=seq)
    received = daemon.gcf.stats.batched_commands_received
    driver.gcf.request_batch(daemon.gcf, msgs, driver.clock.now, seq=0)
    assert daemon.gcf.stats.batched_commands_received == received + 1
    assert daemon.gcf.stats.deduped_batches == 0


def test_netstats_has_resilience_counters(rig):
    deployment, _queue = rig
    snapshot = deployment.driver.stats.snapshot()
    for key in ("timeouts", "retries", "replayed_batches", "deduped_batches",
                "evicted_replicas", "dead_daemons", "lost_notifications"):
        assert snapshot[key] == 0, f"{key} must exist and start at zero"
