"""Simulated network + communication framework.

The stack, bottom-up:

* :mod:`repro.net.frames` — wire-time arithmetic for a link technology.
* :mod:`repro.net.nic` / :mod:`repro.net.link` — per-host full-duplex NIC
  timelines; shared-NIC contention is what produces the growing transfer
  times in the paper's Fig. 6.
* :mod:`repro.net.network` — host registry and host-to-host transfers.
* :mod:`repro.net.codec` — tagged binary wire codec (message sizes are
  the exact lengths of their encodings, not guesses).
* :mod:`repro.net.messages` — message base classes and the type registry.
* :mod:`repro.net.gcf` — the Generic Communication Framework look-alike the
  paper builds on ([15], [16]): process objects, request/response
  (message-based communication) and bulk data streams (stream-based
  communication).
* :mod:`repro.net.iperf` — the bandwidth measurement tool used for the
  Fig. 8 reference line.
"""

from repro.net.codec import CodecError, decode, encode, encoded_size
from repro.net.frames import transfer_duration
from repro.net.link import (
    ConnectionRefused,
    ConnectionReset,
    HostUnreachable,
    LinkSevered,
    MessageDropped,
    NetworkError,
    StreamTruncated,
)
from repro.sim.errors import CommunicationError
from repro.net.messages import (
    CommandBatch,
    CommandBatchResponse,
    Message,
    Notification,
    Request,
    Response,
    message_type,
)
from repro.net.network import Network
from repro.net.nic import NIC
from repro.net.gcf import GCFProcess, NetStats, RequestOutcome
from repro.net.streams import as_byte_view, as_uint8_array, payload_nbytes
from repro.net.iperf import IperfResult, run_iperf

__all__ = [
    "CodecError",
    "CommandBatch",
    "CommandBatchResponse",
    "CommunicationError",
    "ConnectionRefused",
    "ConnectionReset",
    "GCFProcess",
    "HostUnreachable",
    "IperfResult",
    "LinkSevered",
    "Message",
    "MessageDropped",
    "NIC",
    "NetStats",
    "Network",
    "NetworkError",
    "StreamTruncated",
    "Notification",
    "Request",
    "RequestOutcome",
    "Response",
    "as_byte_view",
    "as_uint8_array",
    "decode",
    "encode",
    "encoded_size",
    "message_type",
    "payload_nbytes",
    "run_iperf",
    "transfer_duration",
]
