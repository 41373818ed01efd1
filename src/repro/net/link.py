"""Network-layer errors.

All of them derive from :class:`NetworkError`, which itself derives from
:class:`repro.sim.errors.CommunicationError`.  Client resilience code
catches :class:`CommunicationError` to mean "the message did not make it";
see :mod:`repro.core.client.resilience` for the mapping to OpenCL error
codes.
"""

from repro.sim.errors import CommunicationError


class NetworkError(CommunicationError):
    """Base class for simulated network failures (unknown host, send on a
    disconnected endpoint, ...)."""


class HostUnreachable(NetworkError):
    """The destination host is not attached to the network."""


class ConnectionRefused(NetworkError):
    """The destination process rejected the connection (e.g. an invalid
    authentication ID in managed mode)."""


class MessageDropped(NetworkError):
    """An injected fault discarded this message in flight.

    The sender observes a timeout (the retry machinery charges the
    configured timeout penalty); the receiver never sees the bytes.
    """


class LinkSevered(NetworkError):
    """The link between two specific hosts is (possibly temporarily) down.

    Unlike :class:`MessageDropped` this is sticky: every transfer between
    the severed pair fails until the fault plan heals the link.
    """


class StreamTruncated(NetworkError):
    """An in-flight bulk payload was cut short.

    The receiver must treat the partial data as garbage; the sender retries
    the whole stream (init + payload + sink) from the top.
    """


class ConnectionReset(NetworkError):
    """The remote process is gone (crashed daemon) — not a transient loss.

    Retrying is pointless: the client declares the daemon dead immediately
    instead of spending its retry budget.
    """
