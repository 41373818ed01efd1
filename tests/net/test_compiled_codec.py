"""The per-class wire codecs compiled at registration, against the
generic value-by-value walk they replaced.

``reference_encode`` / ``reference_size`` are that walk, kept here
verbatim as the oracle: one ``isinstance`` ladder per value, over the
``[name, to_payload()]`` envelope (a nested message is the ``bytes`` of
its own envelope's encoding).  Every registered message class must
produce the same bytes, the same size (with and without a cached
encoding) and the same decoded message through its compiled codec, and
reject the same values with :class:`CodecError`.
"""

import dataclasses
import enum
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import conformance
from repro.core.protocol import messages as P
from repro.net.codec import CodecError, decode, encode, encoded_size
from repro.net.messages import (
    MESSAGE_HEADER_BYTES,
    CommandBatch,
    CommandBatchResponse,
    Message,
    Response,
    registered_types,
)
from repro.ocl.errors import ErrorCode

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


# ----------------------------------------------------------------------
# the oracle: the generic codec as it was before the dispatch tables
# ----------------------------------------------------------------------
def _envelope(msg):
    return [type(msg).__name__, msg.to_payload()]


def reference_size(value):
    if isinstance(value, Message):
        return 5 + reference_size(_envelope(value))
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, (int, np.integer)):
        if not _INT64_MIN <= int(value) <= _INT64_MAX:
            raise CodecError(f"integer out of 64-bit range: {value}")
        return 9
    if isinstance(value, (float, np.floating)):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if isinstance(value, memoryview):
        return 5 + value.nbytes
    if isinstance(value, (list, tuple)):
        return 5 + sum(reference_size(item) for item in value)
    if isinstance(value, dict):
        total = 5
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            total += reference_size(key) + reference_size(item)
        return total
    if isinstance(value, np.ndarray):
        if value.ndim != 1:
            raise CodecError(f"only 1-D arrays are encodable, got shape {value.shape}")
        if value.dtype.hasobject:
            raise CodecError("object-dtype arrays are not encodable")
        return 1 + reference_size(value.dtype.str) + 4 + value.nbytes
    raise CodecError(f"cannot encode value of type {type(value).__name__}")


def _reference_encode_into(value, out):
    if isinstance(value, Message):
        value = reference_encode(_envelope(value))
    if value is None:
        out.append(0x00)
    elif value is True:
        out.append(0x02)
    elif value is False:
        out.append(0x01)
    elif isinstance(value, (int, np.integer)):
        out.append(0x03)
        try:
            out += struct.pack("<q", int(value))
        except struct.error as exc:
            raise CodecError(f"integer out of 64-bit range: {value}") from exc
    elif isinstance(value, (float, np.floating)):
        out.append(0x04)
        out += struct.pack("<d", float(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(0x05)
        out += struct.pack("<I", len(data))
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        if isinstance(value, memoryview) and not value.c_contiguous:
            value = bytes(value)
        nbytes = value.nbytes if isinstance(value, memoryview) else len(value)
        out.append(0x06)
        out += struct.pack("<I", nbytes)
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(0x07)
        out += struct.pack("<I", len(value))
        for item in value:
            _reference_encode_into(item, out)
    elif isinstance(value, dict):
        out.append(0x08)
        out += struct.pack("<I", len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            _reference_encode_into(key, out)
            _reference_encode_into(item, out)
    elif isinstance(value, np.ndarray):
        if value.ndim != 1:
            raise CodecError(f"only 1-D arrays are encodable, got shape {value.shape}")
        if value.dtype.hasobject:
            raise CodecError("object-dtype arrays are not encodable")
        arr = np.ascontiguousarray(value)
        out.append(0x09)
        _reference_encode_into(arr.dtype.str, out)
        out += struct.pack("<I", arr.nbytes)
        out += memoryview(arr).cast("B")
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def reference_encode(value):
    out = bytearray()
    _reference_encode_into(value, out)
    return bytes(out)


# ----------------------------------------------------------------------
# what every message must satisfy
# ----------------------------------------------------------------------
def assert_codec_equivalent(msg):
    """Bytes and sizes of ``msg`` agree with the oracle; returns the wire."""
    envelope = _envelope(msg)
    wire = msg.to_wire()
    assert wire == reference_encode(envelope)
    assert wire == encode(envelope)  # the value-level codec agrees too
    assert "_cached_wire" not in msg.__dict__
    assert msg.wire_size == reference_size(envelope) + MESSAGE_HEADER_BYTES
    assert msg.wire_size == encoded_size(envelope) + MESSAGE_HEADER_BYTES
    assert msg.wire_size == len(wire) + MESSAGE_HEADER_BYTES
    assert msg.cached_wire() == wire
    assert msg.wire_size == len(wire) + MESSAGE_HEADER_BYTES  # now from the cached bytes
    del msg.__dict__["_cached_wire"]
    # The compiled decoder and the generic decode-then-construct agree.
    back = Message.from_wire(wire)
    assert type(back) is type(msg)
    assert back.to_wire() == wire
    assert back.to_wire() == type(msg)(**decode(wire)[1]).to_wire()
    return wire


REPRO_TYPES = sorted(
    (cls for cls in registered_types().values() if cls.__module__.startswith("repro.")),
    key=lambda cls: cls.__name__,
)


def test_every_protocol_class_is_covered():
    assert P.Ack in REPRO_TYPES and CommandBatch in REPRO_TYPES
    assert len(REPRO_TYPES) >= 48


# ----------------------------------------------------------------------
# hypothesis: any encodable value in any field of any class
# ----------------------------------------------------------------------
class Colour(enum.IntEnum):
    RED = 1
    DEEP = 2**40


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=_INT64_MIN, max_value=_INT64_MAX)
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
    | st.binary(max_size=12)
)
#: Values that come back equal from a round trip.
plain_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)
#: Values with the same bytes as a plain one but another Python type.
_exotic = (
    st.sampled_from(list(Colour))
    | st.integers(min_value=-(2**31), max_value=2**31 - 1).map(np.int64)
    | st.integers(min_value=0, max_value=255).map(np.uint8)
    | st.floats(allow_nan=False, width=32).map(np.float32)
    | st.floats(allow_nan=False).map(np.float64)
    | st.binary(max_size=12).map(bytearray)
    | st.binary(max_size=12).map(memoryview)
    | st.binary(min_size=2, max_size=12).map(lambda b: memoryview(b)[::2])  # not contiguous
    | st.lists(st.integers(0, 200), max_size=6).map(lambda xs: np.array(xs, dtype="<i4"))
    | st.lists(st.integers(0, 200), max_size=6).map(lambda xs: np.array(xs, dtype="<f8")[::2])
)
any_values = st.recursive(
    _scalars | _exotic,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


def _build(cls, data, values):
    names = [f.name for f in dataclasses.fields(cls)]
    fields = {name: data.draw(values, label=name) for name in names}
    if cls is CommandBatch:  # the one field the wire layer itself reads
        fields["seq"] = data.draw(st.integers(min_value=-2, max_value=2), label="seq")
    return cls(**fields)


@pytest.mark.parametrize("cls", REPRO_TYPES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_compiled_codec_matches_generic_walk(cls, data):
    assert_codec_equivalent(_build(cls, data, any_values))


@pytest.mark.parametrize("cls", REPRO_TYPES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_round_trip_restores_the_message(cls, data):
    msg = _build(cls, data, plain_values)
    if cls is CommandBatch and msg.seq < 0:
        # An identity-less batch does not send epoch/seq: they come
        # back as the defaults.
        msg = dataclasses.replace(msg, epoch=0, seq=-1)
    assert Message.from_wire(msg.to_wire()) == msg


RESPONSE_TYPES = [cls for cls in REPRO_TYPES if issubclass(cls, Response)]


@pytest.mark.parametrize("cls", RESPONSE_TYPES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_object_replies_price_and_encode_as_their_encodings(cls, data):
    """A batch carries its replies as objects: priced and encoded
    exactly like the envelope holding their encodings."""
    replies = [_build(cls, data, any_values) for _ in range(data.draw(st.integers(0, 3)))]
    as_objects = CommandBatchResponse(results=replies)
    as_bytes = CommandBatchResponse(results=[reply.to_wire() for reply in replies])
    assert as_objects.wire_size == as_bytes.wire_size
    assert as_objects.to_wire() == as_bytes.to_wire()


# ----------------------------------------------------------------------
# hand-made edges
# ----------------------------------------------------------------------
_STRIDED = np.arange(12, dtype=np.uint8).reshape(3, 4).T  # neither C- nor 1-D

#: A batch reply the way the batch receiver builds it: replies as objects.
OBJECT_REPLIES = CommandBatchResponse(
    results=[
        P.Ack(),
        P.Ack(error=ErrorCode.CL_INVALID_VALUE, detail="poisoned"),
        P.BuildProgramResponse(kernels={"k": {"num_args": 1, "arg_kinds": ["buffer"]}}),
    ]
)

EDGE_MESSAGES = [
    P.Ack(error=ErrorCode.CL_INVALID_VALUE, detail="IntEnum in an int field"),
    P.Ack(error=Colour.DEEP),
    P.SetKernelArgRequest(kernel_id=np.int64(7), index=True, kind="value", value=np.float32(1.5)),
    P.SetKernelArgRequest(kernel_id=1, index=0, kind="value", value=np.arange(9, dtype="<f4")[::2]),
    P.SetUserEventStatusRequest(event_id=1, status=np.int32(-5), min_time=3),  # int for a float
    P.SetUserEventStatusRequest(event_id=1, status=0, min_time=np.float64(0.25)),
    P.EventCompleteNotification(
        event_id=3,
        status=0,
        completed_at=1.5,
        push_buffer_ids=(4, 5, 6),
        push_epochs=[1, 2, 3],
        push_targets=["client", "node1", "ünïcode"],
        push_payloads=[memoryview(b"abcd"), memoryview(_STRIDED), bytearray(b"xy")],
    ),
    P.EnqueueKernelRequest(queue_id=1, kernel_id=2, event_id=3, global_size=(4, 4), local_size=[2, 2]),
    P.ListDevicesResponse(
        device_ids=[1, 2],
        infos=[{"name": "gpu", "limits": {"dims": [1024, 1024, 64], "mem": 2**40, "ecc": None}}, {}],
    ),
    P.BuildProgramResponse(kernels={"k": {"num_args": 2, "arg_kinds": ["buffer", "value"]}}),
    P.CreateProgramWithBinaryRequest(program_id=1, context_id=2, binary=np.arange(5, dtype="<i4")),
    P.ServerInfoRequest(),  # no fields at all
    CommandBatch(commands=[P.Ack().to_wire(), P.FlushRequest(queue_id=1).to_wire()]),  # unstamped
    CommandBatch(commands=[P.Ack().to_wire()], epoch=2, seq=5),
    CommandBatch(commands=[], epoch=7, seq=-1),  # epoch without seq: still unstamped
    CommandBatchResponse(results=[P.Ack().to_wire()] * 3),
    OBJECT_REPLIES,
]


@pytest.mark.parametrize(
    "msg",
    EDGE_MESSAGES,
    ids=lambda msg: "ObjectReplies" if msg is OBJECT_REPLIES else type(msg).__name__,
)
def test_edge_values_keep_their_exact_bytes(msg):
    assert_codec_equivalent(msg)


def test_list_and_tuple_encode_identically():
    as_list = P.CreateContextRequest(context_id=1, device_ids=[1, 2, 3])
    as_tuple = P.CreateContextRequest(context_id=1, device_ids=(1, 2, 3))
    assert as_list.to_wire() == as_tuple.to_wire()
    assert Message.from_wire(as_tuple.to_wire()) == as_list


def test_unstamped_batch_leaves_its_identity_off_the_wire():
    unstamped = CommandBatch(commands=[b"x"])
    assert decode(unstamped.to_wire()) == ["CommandBatch", {"commands": [b"x"]}]
    assert Message.from_wire(unstamped.to_wire()) == unstamped
    stamped = CommandBatch(commands=[b"x"], epoch=1, seq=0)
    assert decode(stamped.to_wire())[1] == {"commands": [b"x"], "epoch": 1, "seq": 0}
    assert Message.from_wire(stamped.to_wire()) == stamped


UNENCODABLE = [
    P.Ack(error=2**63),
    P.Ack(error=-(2**63) - 1),
    P.CreateQueueRequest(queue_id=np.uint64(2**63), context_id=1, device_id=1),
    P.ServerInfoResponse(info={1: "int key"}),
    P.ListDevicesResponse(device_ids=[1], infos=[{"nested": {(1, 2): "tuple key"}}]),
    P.SetKernelArgRequest(kernel_id=1, index=0, kind="value", value=np.zeros((2, 2))),
    P.SetKernelArgRequest(kernel_id=1, index=0, kind="value", value=np.array(3.5)),
    P.SetKernelArgRequest(kernel_id=1, index=0, kind="value", value=np.array([object()])),
    P.SetKernelArgRequest(kernel_id=1, index=0, kind="value", value=object()),
    P.SetKernelArgRequest(kernel_id=1, index=0, kind="value", value=[1, {2, 3}]),
    CommandBatch(commands=[b"x"], epoch=2**70, seq=1),
]


@pytest.mark.parametrize("msg", UNENCODABLE, ids=lambda msg: type(msg).__name__)
def test_unencodable_values_raise_codec_error_from_both_entry_points(msg):
    with pytest.raises(CodecError):
        reference_encode(_envelope(msg))
    with pytest.raises(CodecError):
        msg.to_wire()
    with pytest.raises(CodecError):
        msg.wire_size
    with pytest.raises(CodecError):
        msg.cached_wire()
    assert "_cached_wire" not in msg.__dict__


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_from_wire_rejects_damaged_wire_with_codec_error(data):
    wire = data.draw(st.sampled_from(EDGE_MESSAGES)).to_wire()
    cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    with pytest.raises(CodecError):
        Message.from_wire(wire[:cut])
    with pytest.raises(CodecError):
        Message.from_wire(wire + b"\x00")
    flipped = bytearray(wire)
    flipped[cut] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        Message.from_wire(bytes(flipped))  # may still be a valid message
    except CodecError:
        pass


@pytest.mark.parametrize(
    "envelope", [1, [], ["Ack"], ["Ack", {}, 3], [["Ack"], {}], [None, {}], {"Ack": {}}]
)
def test_from_wire_rejects_a_non_envelope(envelope):
    with pytest.raises(CodecError):
        Message.from_wire(encode(envelope))


def test_from_wire_accepts_any_buffer():
    msg = EDGE_MESSAGES[0]
    wire = msg.to_wire()
    assert Message.from_wire(bytearray(wire)) == Message.from_wire(memoryview(wire)) == msg


def test_undecorated_message_class_says_so():
    class Bare(Message):
        pass

    with pytest.raises(TypeError, match="not a @message_type"):
        Bare().to_wire()


# ----------------------------------------------------------------------
# the messages a real run sends
# ----------------------------------------------------------------------
def test_conformance_seed_corpus(monkeypatch):
    """Every message two ``full``-config conformance programs encode or
    size, replayed through the oracle (a launch now carries what a
    program's kernel creations and argument updates sent, so one
    program no longer reaches the corpus floor)."""
    seen = []
    to_wire, encoded = Message.to_wire, Message.encoded_size
    monkeypatch.setattr(Message, "to_wire", lambda self: (seen.append(self), to_wire(self))[1])
    monkeypatch.setattr(
        Message, "encoded_size", lambda self: (seen.append(self), encoded(self))[1]
    )
    for seed in (3, 0):
        conformance.run_program(conformance.generate_program(seed), conformance.CONFIGS["full"])
    monkeypatch.undo()
    assert len(seen) > 100
    assert len({type(msg) for msg in seen}) >= 12
    for msg in seen:
        # A fresh copy: sent messages may carry a cached encoding.
        assert_codec_equivalent(dataclasses.replace(msg))
