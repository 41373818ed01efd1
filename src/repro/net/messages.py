"""Message base classes, the wire-type registry, and the batch envelope.

A message class declares its payload fields as a dataclass; the registry
assigns each class a stable wire name and class id.  ``to_wire`` produces its bytes in
the :mod:`repro.net.codec` format, and ``wire_size`` — the length of those
bytes plus the protocol header — is what the network model charges for
message-based communication.  Inside the simulator a message crosses by
reference: :class:`~repro.net.gcf.GCFProcess` hands the receiver the
object and charges its ``wire_size``.  The one exception is a
:class:`CommandBatch`, whose commands are encoded by the sender and
decoded by the receiver.

Positional wire form
--------------------

A message crosses as its class id (2 bytes, little-endian), the number
of fields sent (1 byte) and those fields' values in declaration order,
in the :mod:`repro.net.codec` format.  Field names and defaults are the
receiver's to know: trailing fields that encode exactly as their
defaults are left out (an identity-less :class:`CommandBatch` sends no
``epoch``/``seq``).  The class id is the low 16 bits of the CRC-32 of
the wire name, so no import order moves an id or a size;
:func:`message_type` rejects a class whose id is taken, and compiles its
codec once (the id and the defaults' encodings are constants, values go
through the codec's exact-type tables).

A message held in another message's field (a
:class:`CommandBatchResponse`'s replies) is a value like any other: the
codec encodes it as the ``bytes`` of its own encoding and sizes it as
that ``bytes`` value, so the envelope prices exactly like one carrying
the encoded replies.

``wire_size`` never encodes: it is the length of the cached encoding
when the message has one (see below), else 3 plus the sizes of the
values sent (``wire_size == len(to_wire()) + MESSAGE_HEADER_BYTES``
either way).

:class:`CommandBatch` / :class:`CommandBatchResponse` are the transport
envelope for *asynchronous batched call forwarding*: a window of
enqueue-class commands coalesced into one message paying one protocol
header and one network round trip, instead of one per command.

Encoding caches
---------------

Messages are *frozen by convention*: once a request has been appended to
a send window (or dispatched), or a reply handed back, its payload
fields must not be mutated — the receiver holds the same object.  That
contract makes the two caches of the batched commands safe:

* :meth:`Message.cached_wire` memoises ``to_wire()`` per instance, so a
  command replicated into N send windows (the same instance, deduplicated
  by the client driver's ``fanout_deferred``) is encoded once and the
  bytes are reused for every window — and sized by their length;
* :class:`WireDecodeCache` is a bounded LRU from raw wire bytes to the
  decoded message, so a batch receiver decodes byte-identical commands
  once.  Decoded instances are shared — the handlers treat them as
  read-only.
"""

from __future__ import annotations

import dataclasses
import operator
import zlib
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Tuple, Type, TypeVar

from repro.net.codec import DECODERS, ENCODERS, SIZERS, CodecError, encode, head_size

#: Fixed per-message protocol overhead (framing, transport headers, GCF
#: message envelope) in bytes.
MESSAGE_HEADER_BYTES = 64

_REGISTRY: Dict[str, Type["Message"]] = {}

#: Class id -> class.
_BY_ID: Dict[int, Type["Message"]] = {}

M = TypeVar("M", bound="Message")


def class_id(wire_name: str) -> int:
    """The class id a wire name travels as (module docstring)."""
    return zlib.crc32(wire_name.encode("utf-8")) & 0xFFFF


class _Codec(NamedTuple):
    """One class's compiled codec."""

    fields: Tuple[str, ...]
    encode: Callable[["Message"], bytes]
    size: Callable[["Message"], int]
    decode: Callable[[bytes], "Message"]


def _encoding(value: Any) -> bytearray:
    out = bytearray()  # not ``encode``: the perf harness counts its calls
    ENCODERS[type(value)](value, out)
    return out


def _compile_codec(cls: Type["Message"]) -> _Codec:
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    if len(names) > 255:
        raise ValueError(f"{cls.__name__} has more than 255 fields")
    if len(names) == 1:  # ``attrgetter`` of one name returns no tuple
        get = operator.attrgetter(names[0])
        values_of = lambda msg: (get(msg),)  # noqa: E731
    else:
        values_of = operator.attrgetter(*names) if names else lambda msg: ()
    # Only the trailing run of fields with a plain default may be left
    # out: (default, its encoding), last field first.
    required = len(fields)
    while required and fields[required - 1].default is not dataclasses.MISSING:
        required -= 1
    trailing = tuple((f.default, encode(f.default)) for f in reversed(fields[required:]))
    head = class_id(cls.__name__).to_bytes(2, "little")

    def sent(values: Tuple[Any, ...]) -> int:
        """How many leading values cross (the rest encode as defaults)."""
        n = len(values)
        for default, wire in trailing:
            value = values[n - 1]
            if value is not default:
                if SIZERS[type(value)](value) != len(wire) or _encoding(value) != wire:
                    break
            n -= 1
        return n

    def encode_message(msg: "Message") -> bytes:
        values = values_of(msg)
        n = sent(values)
        out = bytearray(head)
        out.append(n)
        for value in values[:n]:
            ENCODERS[type(value)](value, out)
        return bytes(out)

    def size_message(msg: "Message") -> int:
        values = values_of(msg)
        total = 3
        for value in values[: sent(values)]:
            total += SIZERS[type(value)](value)
        return total

    def decode_message(data: bytes) -> "Message":
        n = data[2]
        if n > len(names):
            raise CodecError(f"{cls.__name__} has {len(names)} fields, {n} were sent")
        if n < required:
            raise CodecError(f"{cls.__name__} field {names[n]!r} is required but was not sent")
        values, offset = [], 3
        try:
            for _ in range(n):
                value, offset = DECODERS[data[offset]](data, offset + 1)
                values.append(value)
        except IndexError:  # no tag byte where a value should start
            raise CodecError(f"truncated {cls.__name__}: {n} fields announced") from None
        if offset != len(data):
            raise CodecError(f"{len(data) - offset} trailing bytes after {cls.__name__}")
        return cls(*values)

    return _Codec(names, encode_message, size_message, decode_message)


def _encode_nested(msg: "Message", out: bytearray) -> None:
    ENCODERS[bytes](msg.to_wire(), out)


def _size_nested(msg: "Message") -> int:
    n = msg.encoded_size()
    return head_size(n) + n  # a bytes value: its head, the encoding


def message_type(cls: Type[M]) -> Type[M]:
    """Class decorator: make ``cls`` a dataclass, compile its wire codec,
    register its wire name and class id and make its instances values the
    codec can nest (module docstring)."""
    cls = dataclasses.dataclass(cls)
    wire_name, cid = cls.__name__, class_id(cls.__name__)
    if _REGISTRY.get(wire_name, cls) is not cls:
        raise ValueError(f"duplicate message type {wire_name!r}")
    if _BY_ID.get(cid, cls) is not cls:
        raise ValueError(f"{wire_name!r} has the class id {cid:#06x} of {_BY_ID[cid].__name__!r}")
    cls._codec = _compile_codec(cls)
    cls.bare = cls._codec.fields == ("error", "detail")
    ENCODERS[cls] = _encode_nested
    SIZERS[cls] = _size_nested
    _REGISTRY[wire_name] = cls
    _BY_ID[cid] = cls
    return cls


def registered_types() -> Dict[str, Type["Message"]]:
    """A copy of the wire-name -> message-class registry."""
    return dict(_REGISTRY)


class Message:
    """Base class for all wire messages."""

    @property
    def _codec(self) -> _Codec:
        """The compiled codec; :func:`message_type` sets it per class."""
        raise TypeError(f"{type(self).__name__} is not a @message_type dataclass")

    def to_wire(self) -> bytes:
        """Encode the message into its wire bytes (uncached)."""
        return self._codec.encode(self)

    def cached_wire(self) -> bytes:
        """``to_wire()`` memoised on the instance.

        Valid only under the frozen-by-convention contract (module
        docstring): the payload must not change after the first call.
        The forwarding pipeline uses this so a command instance shared
        across N send windows pays one encoding, not N.
        """
        wire = self.__dict__.get("_cached_wire")
        if wire is None:
            wire = self.to_wire()
            self.__dict__["_cached_wire"] = wire
        return wire

    def encoded_size(self) -> int:
        """``len(to_wire())`` without encoding: the length of the cached
        encoding if there is one (frozen by convention, so still the
        message's), else computed arithmetically from the values."""
        wire = self.__dict__.get("_cached_wire")
        if wire is not None:
            return len(wire)
        return self._codec.size(self)

    @property
    def wire_size(self) -> int:
        """Bytes on the wire including the protocol header."""
        return self.encoded_size() + MESSAGE_HEADER_BYTES

    @staticmethod
    def from_wire(data: bytes) -> "Message":
        """Decode wire bytes back into a fresh message instance.

        Raises :class:`CodecError` for anything that is not a registered
        class's encoding: an unknown class id, more fields than the class
        has, fewer than it requires, a value the codec rejects (truncated,
        unknown tag, ...), trailing bytes."""
        if len(data) < 3:
            raise CodecError("truncated message: no class id and field count")
        cid = data[0] | data[1] << 8
        cls = _BY_ID.get(cid)
        if cls is None:
            raise CodecError(f"unknown message class id {cid:#06x}")
        return cls._codec.decode(data)


class WireDecodeCache:
    """Bounded LRU mapping raw wire bytes -> decoded :class:`Message`.

    Shared-instance semantics: a hit returns the *same* message object as
    the first decode, so callers must not mutate what they get back (see
    module docstring).  ``hits`` counts reused decodes — what a batch
    receiver reports as ``NetStats.decode_cache_hits``.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = int(maxsize)
        self.hits = 0
        self._entries: "OrderedDict[bytes, Message]" = OrderedDict()

    def decode(self, raw: bytes) -> "Message":
        """Decode ``raw``, reusing (and refreshing) a cached instance."""
        key = bytes(raw)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        msg = Message.from_wire(key)
        if self.maxsize > 0:
            self._entries[key] = msg
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return msg

    def __len__(self) -> int:
        return len(self._entries)


class Request(Message):
    """A message that expects a :class:`Response`."""


class Response(Message):
    """Reply to a :class:`Request`."""

    #: Set by :func:`message_type`: the only fields are ``error`` and
    #: ``detail`` (see :class:`CommandBatchResponse`).
    bare = False


class Notification(Message):
    """One-way asynchronous message (e.g. an event status update)."""


@message_type
class CommandBatch(Request):
    """A coalesced send window of forwarded commands.

    ``commands`` holds each deferred command's full wire encoding (its
    ``to_wire()`` bytes), in client program order.  The whole batch pays
    one :data:`MESSAGE_HEADER_BYTES` header and one network round trip;
    the receiver decodes each sub-command once and dispatches it to the
    handler registered for its type, in order.

    ``epoch``/``seq`` form the batch's *replay identity* (together with
    the sending process name): when the client dispatches with a retry
    policy it stamps each batch with its connection epoch and a
    monotonically increasing sequence number, and the daemon's dispatch
    dedupe re-answers an already-executed (epoch, seq) from its cached
    reply instead of re-running the handlers — at-least-once on the wire,
    exactly-once in effect.  ``seq < 0`` (the default) means "no replay
    identity": both fields then hold their defaults, so they are left off
    the wire (module docstring) and replay identity costs the happy path
    nothing.
    """

    commands: List[bytes]
    epoch: int = 0
    seq: int = -1



@message_type
class CommandBatchResponse(Response):
    """Per-command responses of a :class:`CommandBatch`, in batch order.

    ``results[i]`` is the response answering the ``i``-th sub-command —
    whether its handler ran, the dispatch guard short-circuited it (a
    command poisoned by a failed creation), or it could not be
    dispatched at all.  Failures are therefore always reported
    *positionally*: the sender settles each deferred command's outcome
    from the single reply, attributing any error to the exact call that
    caused it — unless every reply is a :attr:`Response.bare` success:
    then ``results`` is empty, and the reply costs about one reply's
    bytes.  The responses are carried as objects and priced as their
    encodings (module docstring).
    """

    results: List[Response]
    error: int = 0
    detail: str = ""
