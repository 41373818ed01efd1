import pytest

from repro.hw import GIGABIT_ETHERNET, Host, WESTMERE_NODE
from repro.net import (
    GCFProcess,
    Network,
    Notification,
    Request,
    RequestOutcome,
    Response,
    message_type,
)
from repro.net.link import ConnectionRefused, NetworkError


@message_type
class PingRequest(Request):
    payload: str


@message_type
class PingResponse(Response):
    echoed: str


@message_type
class StatusNote(Notification):
    status: int


@pytest.fixture
def pair():
    net = Network(GIGABIT_ETHERNET)
    ha = net.add_host(Host(WESTMERE_NODE, name="client-host"))
    hb = net.add_host(Host(WESTMERE_NODE, name="server-host"))
    a = GCFProcess("client", ha, net)
    b = GCFProcess("server", hb, net)
    return net, a, b


def test_request_response_round_trip(pair):
    net, a, b = pair

    @b.on_request(PingRequest)
    def handle(msg, t, sender):
        return PingResponse(echoed=msg.payload.upper()), t + 1e-6

    outcome = a.request(b, PingRequest(payload="hello"), t=0.0)
    assert outcome.response.echoed == "HELLO"
    assert outcome.reply_arrival > 2 * GIGABIT_ETHERNET.latency
    assert outcome.request_arrival < outcome.handled_at < outcome.reply_arrival


def test_request_without_handler_raises(pair):
    _, a, b = pair
    with pytest.raises(NetworkError):
        a.request(b, PingRequest(payload="x"), t=0.0)


def test_handler_cannot_travel_back_in_time(pair):
    _, a, b = pair

    @b.on_request(PingRequest)
    def handle(msg, t, sender):
        return PingResponse(echoed=""), t - 1.0

    with pytest.raises(NetworkError):
        a.request(b, PingRequest(payload="x"), t=0.0)


def test_bulk_source_cannot_travel_back_in_time_either(pair):
    """``fetch_bulk`` shares the round-trip body of ``request``: the
    monotonic ``t_done`` check guards bulk sources too."""
    _, a, b = pair

    @b.on_bulk_source(PingRequest)
    def source(msg, t, sender):
        return PingResponse(echoed=""), t - 1.0, b"xyz", 3

    with pytest.raises(NetworkError):
        a.fetch_bulk(b, PingRequest(payload="x"), 0.0)


def test_every_leg_of_every_round_trip_is_tagged(pair, monkeypatch):
    """Fault plans address transfers by tag: both control legs of a
    request, a batch *and* a bulk fetch carry their message's class
    name, and all three hand back the one outcome class."""
    net, a, b = pair
    b.install_batch_dispatch()

    @b.on_request(PingRequest)
    def handle(msg, t, sender):
        return PingResponse(echoed=msg.payload), t

    @b.on_bulk_source(PingRequest)
    def source(msg, t, sender):
        return PingResponse(echoed=""), t, b"xyz", 3

    tags = []
    transfer = net.transfer

    def spy(src, dst, ready, nbytes, tag=None):
        tags.append(tag)
        return transfer(src, dst, ready, nbytes, tag=tag)

    monkeypatch.setattr(net, "transfer", spy)
    ping = PingRequest(payload="x")
    outcomes = [a.request(b, ping, 0.0), a.request_batch(b, [ping], 0.0), a.fetch_bulk(b, ping, 0.0)]
    assert tags == [
        "PingRequest", "PingResponse",
        "CommandBatch", "CommandBatchResponse",
        "PingRequest", "PingResponse", "bulk:PingRequest",
    ]
    assert [type(o) for o in outcomes] == [RequestOutcome] * 3
    assert outcomes[1].responses == [outcomes[0].response]
    assert bytes(outcomes[2].payload) == b"xyz"
    assert outcomes[2].arrival > outcomes[2].reply_arrival


def test_requests_serialise_on_server_cpu(pair):
    _, a, b = pair

    @b.on_request(PingRequest)
    def handle(msg, t, sender):
        return PingResponse(echoed=msg.payload), t + 1e-3  # 1 ms of work

    o1 = a.request(b, PingRequest(payload="1"), t=0.0)
    o2 = a.request(b, PingRequest(payload="2"), t=0.0)
    assert o2.handled_at >= o1.handled_at  # same CPU, sequential dispatch


def test_notification_is_one_way(pair):
    _, a, b = pair
    seen = []

    @b.on_notification(StatusNote)
    def handle(msg, t, sender):
        seen.append((msg.status, t, sender.name))

    arrival = a.notify(b, StatusNote(status=7), t=0.0)
    assert seen == [(7, arrival, "client")]


def test_connect_disconnect(pair):
    _, a, b = pair
    t = a.connect(b, 0.0)
    assert t > 0
    assert "server" in a.peers and "client" in b.peers
    a.disconnect(b, t)
    assert "server" not in a.peers and "client" not in b.peers


def test_disconnect_without_connect_raises(pair):
    _, a, b = pair
    with pytest.raises(NetworkError):
        a.disconnect(b, 0.0)


def test_connect_handler_can_refuse(pair):
    _, a, b = pair

    @b.on_connect
    def refuse(name, payload, t):
        raise ConnectionRefused("bad auth")

    with pytest.raises(ConnectionRefused):
        a.connect(b, 0.0)


def _upload_sink(b):
    """Accept ``PingRequest`` uploads on ``b``; returns the list the sink
    appends each landed ``(payload, arrival)`` to."""
    landed = []

    @b.on_request(PingRequest)
    def init(msg, t, sender):
        return PingResponse(echoed="ok"), t

    @b.on_bulk_sink(PingRequest)
    def sink(msg, payload, t, sender):
        landed.append((payload, t))

    return landed


def _upload(a, b, nbytes, t):
    """One ``send_bulk`` of ``nbytes`` (the payload object is a token:
    only ``nbytes`` is priced) and its effective bandwidth."""
    outcome = a.send_bulk(b, PingRequest(payload="start"), b"token", nbytes, t)
    return outcome, nbytes / (outcome.arrival - outcome.sent_at)


def test_stream_bulk_transfer(pair):
    _, a, b = pair
    landed = _upload_sink(b)
    outcome, bandwidth = _upload(a, b, 100 << 20, 0.0)
    assert outcome.arrival > outcome.reply_arrival > outcome.sent_at
    assert landed == [(b"token", outcome.arrival)]
    # Large streams approach the effective bandwidth.
    assert bandwidth == pytest.approx(GIGABIT_ETHERNET.effective_bandwidth, rel=0.05)


def test_stream_with_init_request(pair):
    _, a, b = pair
    _upload_sink(b)
    outcome, _ = _upload(a, b, 1 << 20, 0.0)
    # The payload starts after the full init round trip.
    assert outcome.reply_arrival > 2 * GIGABIT_ETHERNET.latency
    assert a.stats.requests == 1 and a.stats.bulk_sends == 1


def test_small_stream_less_efficient_than_large(pair):
    _, a, b = pair
    _upload_sink(b)
    _, small = _upload(a, b, 1 << 20, 100.0)
    _, large = _upload(a, b, 512 << 20, 200.0)
    assert small < large


def test_message_wire_round_trip():
    from repro.net import Message

    msg = PingRequest(payload="abc")
    out = Message.from_wire(msg.to_wire())
    assert isinstance(out, PingRequest)
    assert out.payload == "abc"


def test_wire_size_includes_header():
    from repro.net.messages import MESSAGE_HEADER_BYTES

    msg = PingRequest(payload="")
    assert msg.wire_size == len(msg.to_wire()) + MESSAGE_HEADER_BYTES


# ----------------------------------------------------------------------
# batched call forwarding (CommandBatch round trips)
# ----------------------------------------------------------------------
def _install_ping_and_batch(b):
    """Register a ping handler and the stock batch dispatcher."""

    @b.on_request(PingRequest)
    def handle(msg, t, sender):
        return PingResponse(echoed=msg.payload.upper()), t + 1e-6

    b.install_batch_dispatch()


def test_request_batch_one_round_trip(pair):
    _, a, b = pair
    _install_ping_and_batch(b)
    msgs = [PingRequest(payload=f"m{i}") for i in range(8)]
    outcome = a.request_batch(b, msgs, t=0.0)
    assert [r.echoed for r in outcome.responses] == [f"M{i}" for i in range(8)]
    # One batch == one round trip, regardless of command count.
    assert a.stats.round_trips == 1
    assert a.stats.batches == 1 and a.stats.batched_commands == 8
    assert a.stats.requests == 0


def test_request_batch_cheaper_than_n_requests(pair):
    net, a, b = pair
    _install_ping_and_batch(b)
    msgs = [PingRequest(payload=f"m{i}") for i in range(10)]
    batch_outcome = a.request_batch(b, msgs, t=0.0)
    single = [a.request(b, m, t=0.0) for m in msgs]
    # Latency: one shared round trip beats the last of ten sequential ones.
    assert batch_outcome.round_trip < sum(o.round_trip for o in single)
    # Wire bytes: one envelope header instead of ten.
    from repro.net.messages import CommandBatch, MESSAGE_HEADER_BYTES

    batch_bytes = CommandBatch(commands=[m.to_wire() for m in msgs]).wire_size
    assert batch_bytes < sum(m.wire_size for m in msgs)


def test_batch_replies_price_exactly_as_their_encodings(pair):
    """A fixed batch whose replies come from the handler, the guard and
    ``on_error``: the replies cross as objects, and the bytes and the
    virtual time they cost are pinned to what the encoded replies cost."""
    _, a, b = pair

    @b.on_request(PingRequest)
    def handle(msg, t, sender):
        return PingResponse(echoed=msg.payload.upper()), t + 1e-6

    b.install_batch_dispatch(
        on_error=lambda detail: PingResponse(echoed=detail),
        guard=lambda sub, sender: PingResponse(echoed="guarded") if sub.payload == "m2" else None,
    )
    msgs = [PingRequest(payload=f"m{i}") for i in range(4)] + [StatusNote(status=1)]
    outcome = a.request_batch(b, msgs, 0.0)
    assert [r.echoed for r in outcome.responses] == [
        "M0", "M1", "guarded", "M3", "StatusNote cannot be batch-forwarded",
    ]
    assert (a.stats.bytes_sent, a.stats.bytes_received) == (359, 440)
    assert outcome.reply_arrival == 0.00023051999999999995


def test_request_batch_needs_batch_handler(pair):
    _, a, b = pair

    @b.on_request(PingRequest)
    def handle(msg, t, sender):
        return PingResponse(echoed=""), t

    with pytest.raises(NetworkError, match="command batches"):
        a.request_batch(b, [PingRequest(payload="x")], t=0.0)


def test_request_batch_rejects_empty_window(pair):
    _, a, b = pair
    _install_ping_and_batch(b)
    with pytest.raises(ValueError):
        a.request_batch(b, [], t=0.0)


def test_stats_track_requests_and_bytes(pair):
    _, a, b = pair
    _install_ping_and_batch(b)
    a.request(b, PingRequest(payload="x"), t=0.0)
    a.notify(b, StatusNote(status=1), t=0.0)
    assert a.stats.requests == 1
    assert a.stats.notifications == 1
    assert a.stats.bytes_sent > 0 and a.stats.bytes_received > 0
    snap = a.stats.snapshot()
    assert snap["round_trips"] == 1

