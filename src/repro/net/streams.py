"""Stream-based bulk data transfer: zero-copy payload views.

The stream path (Section III-B) moves raw binary payloads; the helpers
here let both endpoints hand buffers straight through the buffer protocol
without intermediate ``tobytes()``/``bytearray`` copies.
"""

from __future__ import annotations

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

