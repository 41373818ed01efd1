"""Message base classes, the wire-type registry, and the batch envelope.

A message class declares its payload fields as a dataclass; the registry
assigns each class a stable wire name.  ``to_wire`` produces its bytes in
the :mod:`repro.net.codec` format, and ``wire_size`` — the length of those
bytes plus the protocol header — is what the network model charges for
message-based communication.  Inside the simulator a message crosses by
reference: :class:`~repro.net.gcf.GCFProcess` hands the receiver the
object and charges its ``wire_size``.  The one exception is a
:class:`CommandBatch`, whose commands are encoded by the sender and
decoded by the receiver.

Compiled at registration
------------------------

A message's wire form is ``[wire name, {field: value, ...}]``, and all of
it but the values is known when the class is declared, so
:func:`message_type` compiles each class's codec once: the envelope head
(up to the field count) and every field key are pre-encoded constants,
values go through the codec's exact-type tables, no payload dict is
built.  Decoding compares head and keys by slice and dispatches values by
tag byte; valid wire data laid out differently (fields reordered, a
defaulted field left out) is decoded generically and checked against the
class.  :meth:`Message.to_payload` is the same payload as a dict, for
tests and oracles: ``to_wire() == encode([name, to_payload()])``.

A message held in another message's field (a
:class:`CommandBatchResponse`'s replies) is a value like any other: the
codec encodes it as the ``bytes`` of its own encoding and sizes it as
``5 + encoded_size()``, so the envelope prices exactly like one carrying
the encoded replies.

``wire_size`` never encodes: it is the length of the cached encoding
when the message has one (see below), else the class's constant part
plus the value sizes (``wire_size == len(to_wire()) +
MESSAGE_HEADER_BYTES`` either way).

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
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type, TypeVar

from repro.net.codec import DECODERS, ENCODERS, SIZERS, CodecError, decode, encode

#: Fixed per-message protocol overhead (framing, transport headers, GCF
#: message envelope) in bytes.
MESSAGE_HEADER_BYTES = 64

_REGISTRY: Dict[str, Type["Message"]] = {}

#: Wire name as bytes -> the class's compiled decoder.
_DECODERS: Dict[bytes, Callable[[bytes], Optional["Message"]]] = {}

M = TypeVar("M", bound="Message")


class _Codec(NamedTuple):
    """One class's compiled codec over a tuple of its fields."""

    fields: Tuple[str, ...]
    encode: Callable[["Message"], bytes]
    size: Callable[["Message"], int]
    #: The message, or ``None`` if ``data`` is not laid out as
    #: ``encode`` writes it (every field, in order).
    decode: Callable[[bytes], Optional["Message"]]


def _compile_codec(cls: Type["Message"], fields: Tuple[str, ...]) -> _Codec:
    # ``[name, {`` + field count: an empty-payload envelope, recounted.
    head = encode([cls.__name__, {}])[:-4] + len(fields).to_bytes(4, "little")
    keyed = tuple((name, encode(name)) for name in fields)
    constant = len(head) + sum(len(key) for _, key in keyed)

    def encode_message(msg: "Message") -> bytes:
        out = bytearray(head)
        for name, key in keyed:
            out += key
            value = getattr(msg, name)
            ENCODERS[type(value)](value, out)
        return bytes(out)

    def size_message(msg: "Message") -> int:
        total = constant
        for name in fields:
            value = getattr(msg, name)
            total += SIZERS[type(value)](value)
        return total

    def decode_message(data: bytes) -> Optional["Message"]:
        offset = len(head)
        if data[:offset] != head:
            return None
        values = []
        try:
            for _, key in keyed:
                start = offset + len(key)
                if data[offset:start] != key:
                    return None
                value, offset = DECODERS[data[start]](data, start + 1)
                values.append(value)
        except IndexError:  # truncated, or no such tag
            return None
        return cls(*values) if offset == len(data) else None

    return _Codec(fields, encode_message, size_message, decode_message)


def _encode_nested(msg: "Message", out: bytearray) -> None:
    ENCODERS[bytes](msg.to_wire(), out)


def _size_nested(msg: "Message") -> int:
    return 5 + msg.encoded_size()  # a bytes value: tag, length, the encoding


def message_type(cls: Type[M]) -> Type[M]:
    """Class decorator: make ``cls`` a dataclass, compile its wire codec,
    register its wire name and make its instances values the codec can
    nest (module docstring)."""
    cls = dataclasses.dataclass(cls)
    wire_name = cls.__name__
    if wire_name in _REGISTRY and _REGISTRY[wire_name] is not cls:
        raise ValueError(f"duplicate message type {wire_name!r}")
    cls._codec = _compile_codec(cls, tuple(f.name for f in dataclasses.fields(cls)))
    _DECODERS[wire_name.encode("utf-8")] = cls._codec.decode
    ENCODERS[cls] = _encode_nested
    SIZERS[cls] = _size_nested
    _REGISTRY[wire_name] = cls
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

    def to_payload(self) -> Dict[str, Any]:
        """The message's payload fields as a plain (encodable) dict.

        Shallow: the values are the message's own field objects, not
        copies — the codec only reads them, and messages are frozen by
        convention (module docstring)."""
        return {name: getattr(self, name) for name in self._codec.fields}

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

        Raises :class:`CodecError` for anything that is not the encoding
        of a registered class's payload: bytes the codec rejects, an
        envelope that is not ``[name, {...}]``, an unknown name, an
        unknown field, a missing field that has no default."""
        # The wire name's bytes sit behind the list head (5 bytes) and
        # their own string head (tag, then the length at 6..10).
        name_end = 10 + int.from_bytes(data[6:10], "little")
        decoder = _DECODERS.get(bytes(data[10:name_end]))
        msg = decoder(data) if decoder is not None else None
        if msg is not None:
            return msg
        decoded = decode(data)
        if not (isinstance(decoded, list) and len(decoded) == 2):
            raise CodecError("malformed message envelope")
        wire_name, payload = decoded
        cls = _REGISTRY.get(wire_name) if isinstance(wire_name, str) else None
        if cls is None:
            raise CodecError(f"unknown message type {wire_name!r}")
        try:
            return cls(**payload)
        except TypeError as exc:  # not a dict / unknown field / required field missing
            raise CodecError(f"malformed {wire_name} payload: {exc}") from exc


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
    identity": the two fields are omitted from the payload entirely so
    the happy-path wire encoding is byte-identical to the pre-resilience
    format.
    """

    commands: List[bytes]
    epoch: int = 0
    seq: int = -1


# An identity-less batch (``seq < 0``) is the one message that does not
# send all its fields: a second codec over ``commands`` alone, picked per
# instance.  (Decoding needs nothing: both left-out fields have defaults.)
_STAMPED_BATCH = CommandBatch._codec
_UNSTAMPED_BATCH = _compile_codec(CommandBatch, ("commands",))
CommandBatch._codec = property(
    lambda self: _STAMPED_BATCH if self.seq >= 0 else _UNSTAMPED_BATCH
)


@message_type
class CommandBatchResponse(Response):
    """Per-command responses of a :class:`CommandBatch`, in batch order.

    ``results[i]`` is the response answering the ``i``-th sub-command —
    whether its handler ran, the dispatch guard short-circuited it (a
    command poisoned by a failed creation), or it could not be
    dispatched at all.  Failures are therefore always reported
    *positionally*: the sender settles each deferred command's outcome
    from the single reply, attributing any error to the exact call that
    caused it.  The responses are carried as objects and priced as their
    encodings (module docstring).
    """

    results: List[Response]
    error: int = 0
    detail: str = ""
