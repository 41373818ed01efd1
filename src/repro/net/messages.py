"""Message base classes, the wire-type registry, and the batch envelope.

A message class declares its payload fields as a dataclass; the registry
assigns each class a stable wire name.  ``to_wire`` produces real bytes via
:mod:`repro.net.codec` — the byte count (plus the protocol header) is what
the network model charges for message-based communication.

``wire_size`` is computed arithmetically via :func:`repro.net.codec.
encoded_size` — charging a message's cost never materialises its
encoding (the zero-copy property; ``wire_size == len(to_wire()) +
MESSAGE_HEADER_BYTES`` is guaranteed by the codec's size arithmetic).

:class:`CommandBatch` / :class:`CommandBatchResponse` are the transport
envelope for *asynchronous batched call forwarding*: a window of
enqueue-class commands coalesced into one message paying one protocol
header and one network round trip, instead of one per command.

Encoding caches
---------------

Messages submitted to the forwarding pipeline are *frozen by convention*:
once a request has been appended to a send window (or dispatched), its
payload fields must not be mutated.  That contract makes two caches safe:

* :meth:`Message.cached_wire` memoises ``to_wire()`` per instance, so a
  command replicated into N send windows (the same instance, deduplicated
  by the client driver's ``fanout_deferred``) is encoded once and the
  bytes are reused for every window;
* :class:`WireDecodeCache` is a bounded LRU from raw wire bytes to the
  decoded message, so byte-identical commands or replies (e.g. the
  ubiquitous success ``Ack``) are decoded once per process.  Decoded
  instances are shared — callers must treat them as read-only, which
  both the daemon handlers and the client reply-settling path do.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Type, TypeVar

from repro.net.codec import CodecError, decode, encode, encoded_size

#: Fixed per-message protocol overhead (framing, transport headers, GCF
#: message envelope) in bytes.
MESSAGE_HEADER_BYTES = 64

_REGISTRY: Dict[str, Type["Message"]] = {}

M = TypeVar("M", bound="Message")


def message_type(cls: Type[M]) -> Type[M]:
    """Class decorator: make ``cls`` a dataclass and register its wire name."""
    cls = dataclasses.dataclass(cls)
    cls._payload_fields = tuple(f.name for f in dataclasses.fields(cls))
    wire_name = cls.__name__
    if wire_name in _REGISTRY and _REGISTRY[wire_name] is not cls:
        raise ValueError(f"duplicate message type {wire_name!r}")
    _REGISTRY[wire_name] = cls
    return cls


def registered_types() -> Dict[str, Type["Message"]]:
    """A copy of the wire-name -> message-class registry."""
    return dict(_REGISTRY)


class Message:
    """Base class for all wire messages."""

    #: Payload field names in declaration order, computed once per
    #: class by :func:`message_type` (``None`` on undecorated classes).
    _payload_fields: Optional[Tuple[str, ...]] = None

    def to_payload(self) -> Dict[str, Any]:
        """The message's payload fields as a plain (encodable) dict.

        Shallow: the values are the message's own field objects, not
        copies — the codec only reads them, and messages are frozen by
        convention (module docstring)."""
        if self._payload_fields is None:
            raise TypeError(f"{type(self).__name__} is not a @message_type dataclass")
        return {name: getattr(self, name) for name in self._payload_fields}

    def to_wire(self) -> bytes:
        """Encode the message into its wire bytes (uncached)."""
        return encode([type(self).__name__, self.to_payload()])

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

    @property
    def wire_size(self) -> int:
        """Bytes on the wire including the protocol header.

        Computed without encoding the message (see module docstring)."""
        return encoded_size([type(self).__name__, self.to_payload()]) + MESSAGE_HEADER_BYTES

    @staticmethod
    def from_wire(data: bytes) -> "Message":
        """Decode wire bytes back into a fresh message instance."""
        decoded = decode(data)
        if not (isinstance(decoded, list) and len(decoded) == 2):
            raise CodecError("malformed message envelope")
        wire_name, payload = decoded
        cls = _REGISTRY.get(wire_name)
        if cls is None:
            raise CodecError(f"unknown message type {wire_name!r}")
        return cls(**payload)


class WireDecodeCache:
    """Bounded LRU mapping raw wire bytes -> decoded :class:`Message`.

    Shared-instance semantics: a hit returns the *same* message object as
    the first decode, so callers must not mutate what they get back (see
    module docstring).  ``hits`` counts reused decodes — the quantity the
    daemon reply cache and the client reply-settling path report through
    ``NetStats.decode_cache_hits``.
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
        msg = Message.from_wire(raw)
        if self.maxsize > 0:
            self._entries[key] = msg
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return msg

    def __len__(self) -> int:
        return len(self._entries)


class ReplyCache:
    """Bounded LRU keyed by a request's wire bytes, storing the response
    it produced together with that response's encoding.

    The daemon's batch dispatcher *always* executes the handler (handlers
    have side effects — the cache must never skip them); the cache only
    removes the cost of re-encoding an identical reply.  On replay, if
    the fresh response compares equal to the cached one, the cached wire
    bytes are reused and ``hits`` is bumped (reported through
    ``NetStats.reply_cache_hits``); otherwise the entry is refreshed.
    In steady state almost every deferred command answers the same
    success ``Ack``, so hit rates are high.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = int(maxsize)
        self.hits = 0
        self._entries: "OrderedDict[bytes, Tuple[Message, bytes]]" = OrderedDict()

    def encode(self, request_wire: bytes, response: "Message") -> bytes:
        """Return ``response``'s wire bytes, reusing the cached encoding
        when this request digest previously produced an equal response."""
        key = bytes(request_wire)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            cached_response, cached_wire = cached
            try:
                same = cached_response == response
            except Exception:  # unhashable/array-valued payloads: no reuse
                same = False
            if same:
                self.hits += 1
                return cached_wire
        wire = response.to_wire()
        if self.maxsize > 0:
            self._entries[key] = (response, wire)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return wire

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

    def to_payload(self) -> Dict[str, Any]:
        """Payload dict; drops the replay identity when it is unset."""
        payload = super().to_payload()
        if self.seq < 0:
            del payload["epoch"]
            del payload["seq"]
        return payload


@message_type
class CommandBatchResponse(Response):
    """Per-command responses of a :class:`CommandBatch`, in batch order.

    ``results[i]`` is the wire encoding of the response answering the
    ``i``-th sub-command — whether its handler ran, the dispatch guard
    short-circuited it (a command poisoned by a failed creation), or it
    could not be dispatched at all.  Failures are therefore always
    reported *positionally*: the sender decodes the slots and settles
    each deferred command's outcome (error checks, response callbacks)
    from the single reply, attributing any error to the exact call that
    caused it.
    """

    results: List[bytes]
    error: int = 0
    detail: str = ""
