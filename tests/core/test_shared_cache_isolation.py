"""Cross-client isolation of the daemon's shared caches.

One daemon serves many tenants through three shared, bounded caches:

* the batch receiver's :class:`~repro.net.messages.WireDecodeCache` —
  keyed by raw wire bytes, so N clients submitting the byte-identical
  batched command pay for one decode.  Sharing the decoded *message*
  must never share registry state: objects stay namespaced per sending
  client;
* the batch **replay-dedupe** cache — keyed ``(sender name, epoch,
  seq)``; a replayed batch from client A must be re-answered with A's
  cached response and never with B's, even when both stamped the same
  ``(epoch, seq)``;
* the :class:`~repro.core.daemon.buildcache.ProgramBuildCache` — keyed
  by ``(source digest, build options)``; build outcomes are shared
  across tenants (one compile per cluster) and outlive any tenant's
  program objects, but never count against a tenant's registry quota
  and never leak registry state between namespaces.
"""

import pytest

from repro.clc.driver import program_digest
from repro.core.daemon import Daemon
from repro.core.daemon.admission import AdmissionPolicy
from repro.core.protocol import messages as P
from repro.hw import Host
from repro.hw.specs import GIGABIT_ETHERNET, GPU_SERVER, WESTMERE_NODE
from repro.net import GCFProcess, Network
from repro.ocl import CLError
from repro.ocl.context import Context
from repro.ocl.event import UserEvent
from repro.ocl.program import Program


@pytest.fixture
def daemon_and_net():
    net = Network(GIGABIT_ETHERNET)
    server = net.add_host(Host(GPU_SERVER, name="srv"))
    return Daemon(server, net), net


def connect_client(net, daemon, name):
    host = net.add_host(Host(WESTMERE_NODE, name=f"{name}-host"))
    client = GCFProcess(name, host, net)
    client.connect(daemon.gcf, 0.0)
    return client


def test_identical_clients_share_one_decode_but_not_one_registry(daemon_and_net):
    """Four tenants send the byte-identical creation command: the daemon
    decodes it once (3 cache hits) yet materialises four *distinct*
    context objects, one per client namespace."""
    daemon, net = daemon_and_net
    clients = [connect_client(net, daemon, f"c{i}") for i in range(4)]
    for client in clients:
        out = client.request_batch(
            daemon.gcf, [P.CreateContextRequest(context_id=1, device_ids=[0])], 0.0
        )
        assert out.responses == []  # a success lists no replies
    assert daemon.gcf.stats.decode_cache_hits == len(clients) - 1
    contexts = [daemon.registry.get(c.name, 1, Context) for c in clients]
    assert len({id(ctx) for ctx in contexts}) == len(clients)
    assert sorted(daemon.registry.client_names()) == sorted(c.name for c in clients)


def test_replayed_batch_is_answered_from_the_senders_own_entry(daemon_and_net):
    """Clients A and B stamp batches with the *same* ``(epoch, seq)``
    but different outcomes (A's creation fails on an unknown context,
    B's succeeds).  Each replay must dedupe against the sender's own
    cached response — A keeps seeing its error, B its success — and must
    not re-run any handler."""
    daemon, net = daemon_and_net
    a = connect_client(net, daemon, "a")
    b = connect_client(net, daemon, "b")
    b.request_batch(
        daemon.gcf, [P.CreateContextRequest(context_id=1, device_ids=[0])], 0.0
    )
    a_cmd = [P.CreateUserEventRequest(event_id=5, context_id=999)]  # unknown ctx
    b_cmd = [P.CreateUserEventRequest(event_id=5, context_id=1)]
    a_first = a.request_batch(daemon.gcf, a_cmd, 1.0, epoch=0, seq=0)
    b_first = b.request_batch(daemon.gcf, b_cmd, 1.0, epoch=0, seq=0)
    assert a_first.responses[0].error
    assert b_first.responses == []  # a success lists no replies
    executed = daemon.gcf.stats.batched_commands_received
    a_replay = a.request_batch(daemon.gcf, a_cmd, 2.0, epoch=0, seq=0)
    b_replay = b.request_batch(daemon.gcf, b_cmd, 2.0, epoch=0, seq=0)
    assert daemon.gcf.stats.deduped_batches == 2
    assert daemon.gcf.stats.batched_commands_received == executed  # no re-run
    # Same (epoch, seq), opposite outcomes: the replies never crossed.
    assert a_replay.responses[0].error == a_first.responses[0].error != 0
    assert b_replay.responses == []
    assert daemon.registry.get("b", 5, UserEvent) is not None
    with pytest.raises(CLError):
        daemon.registry.get("a", 5, UserEvent)


def test_replay_identity_includes_the_epoch(daemon_and_net):
    """A reconnecting client bumps its epoch: the same ``seq`` under a
    new epoch is a *fresh* batch (handlers run again), never a dedupe
    against the previous life."""
    daemon, net = daemon_and_net
    a = connect_client(net, daemon, "a")
    a.request_batch(
        daemon.gcf, [P.CreateContextRequest(context_id=1, device_ids=[0])], 0.0
    )
    cmd = [P.CreateUserEventRequest(event_id=7, context_id=1)]
    first = a.request_batch(daemon.gcf, cmd, 1.0, epoch=0, seq=3)
    assert first.responses == []  # a success lists no replies
    executed = daemon.gcf.stats.batched_commands_received
    fresh = a.request_batch(daemon.gcf, cmd, 2.0, epoch=1, seq=3)
    assert daemon.gcf.stats.deduped_batches == 0
    assert daemon.gcf.stats.batched_commands_received == executed + 1
    # The handler genuinely re-ran: the second creation of the same ID
    # is a real (failed) execution, not a replayed success.
    assert fresh.responses[0].error


_SHARED_SOURCE = """
__kernel void scale(__global float *x, const float f, const int n) {
    int i = (int)get_global_id(0);
    if (i < n) x[i] = x[i] * f;
}
"""

_BUILD_SEQUENCE = [
    P.CreateContextRequest(context_id=1, device_ids=[0]),
    P.CreateProgramWithSourceRequest(
        program_id=2, context_id=1, source=_SHARED_SOURCE
    ),
    P.BuildProgramCachedRequest(program_id=2, digest=program_digest(_SHARED_SOURCE)),
]


def _create_and_build(client, daemon, t):
    """The creations and the pipeline's cached build ride one batch;
    the replies its failed commands answer (none when all succeed)."""
    return client.request_batch(daemon.gcf, list(_BUILD_SEQUENCE), t).responses


def test_cross_client_build_shares_the_compile_but_not_the_program(daemon_and_net):
    """Tenant A builds, then *releases* its program; tenant B builds the
    same source.  The daemon compiles once — the cache entry outlives
    A's program object — yet each tenant only ever held a program in its
    own registry namespace."""
    daemon, net = daemon_and_net
    a = connect_client(net, daemon, "a")
    b = connect_client(net, daemon, "b")
    assert not _create_and_build(a, daemon, 0.0)
    a.request_batch(daemon.gcf, [P.ReleaseProgramRequest(program_id=2)], 1.0)
    assert not _create_and_build(b, daemon, 2.0)
    assert daemon.gcf.stats.programs_built == 1
    assert daemon.gcf.stats.build_cache_hits == 1
    # The shared entry never blurred the namespaces: B holds its own
    # program, A's is gone.
    assert daemon.registry.get("b", 2, Program) is not None
    with pytest.raises(CLError):
        daemon.registry.get("a", 2, Program)


def test_build_cache_entries_do_not_consume_registry_quota():
    """Quota accounting: cached build outcomes are daemon infrastructure,
    not client objects — they neither block a tenant at its registry
    quota nor charge other tenants who hit them."""
    net = Network(GIGABIT_ETHERNET)
    server = net.add_host(Host(GPU_SERVER, name="srv"))
    daemon = Daemon(server, net, admission=AdmissionPolicy(max_objects_per_client=2))
    a = connect_client(net, daemon, "a")
    assert not _create_and_build(a, daemon, 0.0)
    # A is at quota (context + program); one more creation is rejected.
    rejected = a.request_batch(
        daemon.gcf, [P.CreateUserEventRequest(event_id=3, context_id=1)], 1.0
    )
    assert rejected.responses[0].error
    assert daemon.gcf.stats.quota_rejections == 1
    # Releasing the program frees quota even though the build outcome
    # stays cached: the entry belongs to the daemon, not to A.
    a.request_batch(daemon.gcf, [P.ReleaseProgramRequest(program_id=2)], 2.0)
    assert len(daemon.buildcache) == 1
    # (A fresh ID: the rejected creation above poisoned ID 3.)
    ok = a.request_batch(
        daemon.gcf, [P.CreateUserEventRequest(event_id=4, context_id=1)], 3.0
    )
    assert ok.responses == []  # a success lists no replies
    # A second tenant at the same quota builds the shared source: the
    # cache answers the build without charging anyone's namespace.
    b = connect_client(net, daemon, "b")
    assert not _create_and_build(b, daemon, 4.0)
    assert daemon.gcf.stats.programs_built == 1
    assert daemon.gcf.stats.build_cache_hits == 1
    assert daemon.gcf.stats.quota_rejections == 1  # unchanged


def test_unstamped_batches_skip_the_replay_cache(daemon_and_net):
    """Identity-less batches (``seq < 0``, the happy path) must never
    dedupe, even when byte-identical and from the same sender."""
    daemon, net = daemon_and_net
    a = connect_client(net, daemon, "a")
    batch = [P.CreateContextRequest(context_id=1, device_ids=[0])]
    first = a.request_batch(daemon.gcf, batch, 0.0)
    again = a.request_batch(daemon.gcf, batch, 1.0)
    assert daemon.gcf.stats.deduped_batches == 0
    assert first.responses == []  # a success lists no replies
    assert again.responses[0].error  # context 1 already exists: real re-run
