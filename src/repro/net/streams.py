"""Stream-based bulk data transfer: results and zero-copy payload views.

The stream path (Section III-B) moves raw binary payloads; the helpers
here let both endpoints hand buffers straight through the buffer protocol
without intermediate ``tobytes()``/``bytearray`` copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


def as_byte_view(payload: Any) -> memoryview:
    """A flat, read-capable ``uint8`` view of ``payload`` without copying.

    Accepts ``bytes``, ``bytearray``, ``memoryview`` and contiguous
    ``numpy.ndarray`` payloads; non-contiguous arrays are the single case
    that forces a compacting copy.
    """
    if isinstance(payload, np.ndarray):
        return memoryview(np.ascontiguousarray(payload)).cast("B")
    view = memoryview(payload)
    if not view.c_contiguous:  # cast('B') requires C-contiguity
        view = memoryview(bytes(view))
    return view.cast("B")


def as_uint8_array(payload: Any) -> np.ndarray:
    """A read-only ``uint8`` ndarray view over ``payload`` (zero-copy)."""
    if isinstance(payload, np.ndarray) and payload.dtype == np.uint8 and payload.ndim == 1:
        return payload
    return np.frombuffer(as_byte_view(payload), dtype=np.uint8)


def payload_nbytes(payload: Any) -> int:
    """Byte length of a bulk payload without materialising it."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    return memoryview(payload).nbytes


def split_sections(payload: Any, nbytes_list) -> list:
    """Per-section ``uint8`` views of a coalesced bulk payload.

    A merged transfer's payload arrives either as the sender's list of
    per-section buffers (the zero-copy path — each element becomes its
    own view) or as one flat concatenation (a decoded stream), which is
    split at the byte counts in ``nbytes_list``.  The single splitting
    rule shared by both ends of the wire, so section boundaries can
    never drift between the daemon's sink and the client's fetch."""
    if isinstance(payload, (list, tuple)):
        return [as_uint8_array(part) for part in payload]
    flat = as_uint8_array(payload)
    sections, cursor = [], 0
    for nbytes in nbytes_list:
        sections.append(flat[cursor : cursor + nbytes])
        cursor += nbytes
    return sections


@dataclass(frozen=True)
class StreamResult:
    """Timing of one bulk transfer.

    ``requested_at`` — when the sender initiated the stream;
    ``started_at`` — when the raw payload began flowing (after the
    initialising request/response exchange);
    ``arrival`` — when the last byte reached the destination.
    """

    requested_at: float
    started_at: float
    arrival: float
    nbytes: int

    @property
    def total_time(self) -> float:
        """Init exchange plus payload time."""
        return self.arrival - self.requested_at

    @property
    def effective_bandwidth(self) -> float:
        """Bytes per second over the whole transfer."""
        if self.total_time <= 0.0:
            return float("inf")
        return self.nbytes / self.total_time
