"""The per-class wire codecs compiled at registration, against a generic
value-by-value walk of the positional format.

``reference_encode`` / ``reference_message`` are that walk, written
independently of :mod:`repro.net.codec` as the oracle: one
``isinstance`` ladder per value (integer widths found by trying
``struct.pack``), and a message as its class id (CRC-32 of the class
name, low 16 bits), its field count and its values, trailing fields
whose encoding equals their default's left out (a nested message is the
``bytes`` of its own encoding).  Every registered message class must
produce the same bytes, the same size (with and without a cached
encoding) and the same decoded message through its compiled codec, and
reject the same values with :class:`CodecError`.
"""

import dataclasses
import enum
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import conformance
from repro.core.protocol import messages as P
from repro.net.codec import CodecError, encode
from repro.net.messages import (
    MESSAGE_HEADER_BYTES,
    CommandBatch,
    CommandBatchResponse,
    Message,
    Response,
    class_id,
    registered_types,
)
from repro.ocl.errors import ErrorCode

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


# ----------------------------------------------------------------------
# the oracle: a generic walk of the positional format
# ----------------------------------------------------------------------
def _reference_head(tag, n, out):
    out += struct.pack("<BB", tag, n) if n < 256 else struct.pack("<BI", tag + 1, n)


def _reference_encode_into(value, out):
    if isinstance(value, Message):
        value = reference_message(value)
    if value is None:
        out.append(0xC0)
    elif value is True:
        out.append(0xC3)
    elif value is False:
        out.append(0xC2)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        if -32 <= value <= 127:
            out += struct.pack("<b", value)
            return
        for tag, fmt in ((0xD0, "<b"), (0xD1, "<h"), (0xD2, "<i"), (0xD3, "<q")):
            try:
                packed = struct.pack(fmt, value)
            except struct.error:
                continue
            out.append(tag)
            out += packed
            return
        raise CodecError(f"integer out of 64-bit range: {value}")
    elif isinstance(value, np.float32):
        out += b"\xce" + value.astype("<f4").tobytes()
    elif isinstance(value, (float, np.floating)):
        out += struct.pack("<Bd", 0xCD, float(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        _reference_head(0xC6, len(data), out)
        out += data
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        _reference_head(0xC4, len(data), out)
        out += data
    elif isinstance(value, (list, tuple)):
        _reference_head(0xC8, len(value), out)
        for item in value:
            _reference_encode_into(item, out)
    elif isinstance(value, dict):
        _reference_head(0xCA, len(value), out)
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
        out.append(0xCC)
        _reference_encode_into(arr.dtype.str, out)
        out += struct.pack("<I", arr.nbytes)
        out += arr.tobytes()
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def reference_encode(value):
    out = bytearray()
    _reference_encode_into(value, out)
    return bytes(out)


def reference_message(msg):
    fields = dataclasses.fields(msg)
    values = [reference_encode(getattr(msg, f.name)) for f in fields]
    n = len(values)
    while n and fields[n - 1].default is not dataclasses.MISSING:
        if values[n - 1] != reference_encode(fields[n - 1].default):
            break
        n -= 1
    cid = zlib.crc32(type(msg).__name__.encode("utf-8")) & 0xFFFF
    return struct.pack("<HB", cid, n) + b"".join(values[:n])


# ----------------------------------------------------------------------
# what every message must satisfy
# ----------------------------------------------------------------------
def assert_codec_equivalent(msg):
    """Bytes and sizes of ``msg`` agree with the oracle; returns the wire."""
    wire = msg.to_wire()
    assert wire == reference_message(msg)
    assert "_cached_wire" not in msg.__dict__
    assert msg.encoded_size() == len(wire)
    assert msg.wire_size == len(wire) + MESSAGE_HEADER_BYTES
    assert msg.cached_wire() == wire
    assert msg.wire_size == len(wire) + MESSAGE_HEADER_BYTES  # now from the cached bytes
    del msg.__dict__["_cached_wire"]
    back = Message.from_wire(wire)
    assert type(back) is type(msg)
    assert back.to_wire() == wire
    return wire


REPRO_TYPES = sorted(
    (cls for cls in registered_types().values() if cls.__module__.startswith("repro.")),
    key=lambda cls: cls.__name__,
)


def test_every_protocol_class_is_covered():
    assert P.Ack in REPRO_TYPES and CommandBatch in REPRO_TYPES
    assert len(REPRO_TYPES) >= 45


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
#: Values of another Python type than a plain one, with the same bytes
#: (but a ``np.float32``, which is a single).
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
    assert Message.from_wire(msg.to_wire()) == msg


def _required(cls):
    return [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]


@pytest.mark.parametrize("cls", REPRO_TYPES, ids=lambda cls: cls.__name__)
def test_trailing_defaults_are_left_out(cls):
    """A message holding its defaults sends its required fields only;
    setting the last field sends every field."""
    required = _required(cls)
    msg = cls(**{f.name: 7 for f in required})
    wire = assert_codec_equivalent(msg)
    assert wire[2] == len(required)
    fields = dataclasses.fields(cls)
    if len(fields) > len(required):
        last = dataclasses.replace(msg, **{fields[-1].name: "set"})
        assert assert_codec_equivalent(last)[2] == len(fields)
        assert Message.from_wire(last.to_wire()) == last


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
        push_payloads=[memoryview(b"abcd"), memoryview(_STRIDED), bytearray(b"xy")],
    ),
    P.LeaseGrantedNotification(ticket="t-1", auth_id="ünïcode", server_names=["node1", "ünïcode", ""]),
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
    CommandBatch(commands=[], epoch=7, seq=-1),  # epoch without seq: seq left out
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
    assert unstamped.to_wire() == class_id("CommandBatch").to_bytes(2, "little") + b"\x01" + encode([b"x"])
    assert Message.from_wire(unstamped.to_wire()) == unstamped
    stamped = CommandBatch(commands=[b"x"], epoch=1, seq=0)
    assert stamped.to_wire() == unstamped.to_wire()[:2] + b"\x03" + encode([b"x"]) + b"\x01\x00"
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
        reference_message(msg)
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
    """A plain value's encoding is not a message (no class id, or one
    no class has, or a count the class cannot take)."""
    with pytest.raises(CodecError):
        Message.from_wire(encode(envelope))


def _head(cls, count):
    return class_id(cls.__name__).to_bytes(2, "little") + bytes([count])


_ACK = P.Ack(error=3, detail="x")
_UNUSED_ID = next(cid for cid in range(1 << 16) if cid not in map(class_id, registered_types()))
MALFORMED = {
    "unknown class id": _UNUSED_ID.to_bytes(2, "little") + _ACK.to_wire()[2:],
    "no field count": _ACK.to_wire()[:2],
    "truncated value": _ACK.to_wire()[:-1],
    "a value missing": _head(P.Ack, 2) + encode(3),
    "too many fields": _head(P.Ack, 3) + _ACK.to_wire()[3:] + encode(0),
    "required field missing": _head(P.CreateContextRequest, 1) + encode(1),
    "trailing bytes": _ACK.to_wire() + encode(0),
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED)
def test_from_wire_rejects_malformed_messages(data):
    with pytest.raises(CodecError):
        Message.from_wire(data)


def test_from_wire_fills_in_defaults_of_fields_not_sent():
    assert Message.from_wire(_ACK.to_wire()) == _ACK
    assert Message.from_wire(_head(P.Ack, 0)) == P.Ack()
    assert Message.from_wire(_head(P.Ack, 1) + encode(3)) == P.Ack(error=3)


_IDS_AND_SIZES = """
import dataclasses, json, sys
for module in sys.argv[1:]:
    __import__(module)
from repro.net.messages import class_id, registered_types
out = {}
for name, cls in sorted(registered_types().items()):
    msg = cls(**{f.name: 7 for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING})
    out[name] = [class_id(name), msg.wire_size]
print(json.dumps(out))
"""


def test_class_ids_and_sizes_do_not_depend_on_import_order():
    """In fresh interpreters, importing the protocol modules in another
    order (or after an unrelated registration) changes no id and no
    size."""
    orders = (
        ["repro.core.protocol.messages"],
        ["repro.testbed", "repro.net.messages"],
        ["tests.net.test_gcf", "repro.core.protocol.messages"],
    )
    root = Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"}
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _IDS_AND_SIZES, *order],
                capture_output=True, text=True, check=True, cwd=root, env=env,
            ).stdout
        )
        for order in orders
    ]
    protocol = {name for name in runs[0]}
    assert len(protocol) >= 45
    for run in runs[1:]:
        assert {name: run[name] for name in protocol} == runs[0]


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
