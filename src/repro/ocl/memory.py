"""Buffer memory objects."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ocl.constants import (
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_READ_ONLY,
    CL_MEM_READ_WRITE,
    CL_MEM_USE_HOST_PTR,
    CL_MEM_WRITE_ONLY,
    ErrorCode,
)
from repro.ocl.context import Context
from repro.ocl.errors import CLError, require

_ACCESS_FLAGS = CL_MEM_READ_WRITE | CL_MEM_READ_ONLY | CL_MEM_WRITE_ONLY


def check_buffer_args(flags: int, size: int, max_alloc: int) -> None:
    """``clCreateBuffer``'s checks that need no device memory: a positive
    size within ``CL_DEVICE_MAX_MEM_ALLOC_SIZE``, one access mode."""
    require(size > 0, ErrorCode.CL_INVALID_BUFFER_SIZE, f"size must be positive, got {size}")
    access = flags & _ACCESS_FLAGS
    if access not in (0, CL_MEM_READ_WRITE, CL_MEM_READ_ONLY, CL_MEM_WRITE_ONLY):
        raise CLError(ErrorCode.CL_INVALID_VALUE, "conflicting access flags")
    require(
        size <= max_alloc,
        ErrorCode.CL_INVALID_BUFFER_SIZE,
        f"size {size} exceeds CL_DEVICE_MAX_MEM_ALLOC_SIZE ({max_alloc})",
    )


class LentStorage:
    """One storage rule for a copy of a buffer's bytes (``array``): a view
    that leaves its store is lent, and the owner copies only when it next
    writes.  Until then the storage is shared, read-only to the lender and
    to every holder that adopted it."""

    array: np.ndarray
    #: The storage is shared: lent out, or adopted from its lender.
    lent = False
    #: Copies a write took because the storage was shared.
    cow_copies = 0

    def lend(self) -> np.ndarray:
        """The whole storage, read-only, for a receiver to adopt."""
        self.array.flags.writeable, self.lent = False, True
        return self.array

    def adopt(self, data: np.ndarray) -> None:
        """Take a lent view as this copy's storage: no copy."""
        self.array, self.lent = data, True

    def own(self) -> np.ndarray:
        """The storage, private: a shared one is copied first."""
        if self.lent:
            self.array, self.lent = self.array.copy(), False
            self.cow_copies += 1
        return self.array

    def store(self, offset: int, raw: np.ndarray) -> None:
        """Copy ``raw`` in at ``offset``; over a shared storage a whole
        write takes a new array and copies nothing old."""
        if self.lent and raw.size == self.array.size:
            self.array, self.lent = raw.copy(), False
        else:
            self.own()[offset : offset + raw.size] = raw


class Buffer(LentStorage):
    """``clCreateBuffer`` result: ``size`` bytes of device memory.

    Backed by one NumPy byte array (the authoritative copy on the owning
    host).  Distributed replication/coherence is dOpenCL's job, layered
    above this runtime (Section III-D)."""

    def __init__(
        self,
        context: Context,
        flags: int,
        size: int,
        host_data: Optional[np.ndarray] = None,
    ) -> None:
        check_buffer_args(flags, size, min(d.hw.spec.max_alloc for d in context.devices))
        if flags & (CL_MEM_COPY_HOST_PTR | CL_MEM_USE_HOST_PTR):
            require(
                host_data is not None,
                ErrorCode.CL_INVALID_HOST_PTR,
                "flags require host data",
            )
        elif host_data is not None:
            raise CLError(
                ErrorCode.CL_INVALID_HOST_PTR,
                "host data passed without CL_MEM_COPY_HOST_PTR/CL_MEM_USE_HOST_PTR",
            )
        self.context = context
        self.flags = flags or CL_MEM_READ_WRITE
        self.size = int(size)
        self.array = np.zeros(self.size, dtype=np.uint8)
        if host_data is not None:
            raw = np.ascontiguousarray(host_data).view(np.uint8).ravel()
            require(
                raw.size == self.size,
                ErrorCode.CL_INVALID_HOST_PTR,
                f"host data is {raw.size} bytes, buffer is {self.size}",
            )
            self.array[:] = raw
        # Device memory accounting (frees on release).
        self._accounted = []
        try:
            for dev in context.devices:
                dev.hw.allocate_mem(self.size)
                self._accounted.append(dev)
        except MemoryError as exc:
            for dev in self._accounted:
                dev.hw.free_mem(self.size)
            raise CLError(ErrorCode.CL_MEM_OBJECT_ALLOCATION_FAILURE, str(exc)) from exc
        self.refcount = 1
        self.released = False
        #: What last wrote this copy: the writing command's event, or the
        #: time a write outside any queue (a peer transfer, a push
        #: commit) landed.  Coherence transfers read no earlier than it.
        self.last_write: Optional[object] = None

    def write_landed(self) -> Optional[float]:
        """When the copy's last write lands (0.0 if none is recorded), or
        ``None`` while the command writing it has not resolved."""
        last = self.last_write
        if last is None:
            return 0.0
        if isinstance(last, float):
            return last
        return last.end

    @property
    def readable(self) -> bool:
        return not (self.flags & CL_MEM_WRITE_ONLY)

    @property
    def writable(self) -> bool:
        return not (self.flags & CL_MEM_READ_ONLY)

    def typed_view(self, dtype: np.dtype) -> np.ndarray:
        """View the backing store as ``dtype`` (for kernel arguments)."""
        self._check_alive()
        if self.size % dtype.itemsize:
            raise CLError(
                ErrorCode.CL_INVALID_BUFFER_SIZE,
                f"buffer size {self.size} is not a multiple of {dtype} itemsize",
            )
        return self.array.view(dtype)

    def view(self, offset: int, nbytes: int) -> np.ndarray:
        """A validated, read-only view of ``nbytes`` bytes at ``offset``
        that its caller consumes before it returns; bytes that leave the
        buffer are lent (:meth:`lend`)."""
        self._check_alive()
        self._check_range(offset, nbytes)
        out = self.array[offset : offset + nbytes]
        out.flags.writeable = False
        return out

    def write(self, offset: int, data: np.ndarray) -> int:
        self._check_alive()
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        self._check_range(offset, raw.size)
        self.store(offset, raw)
        return raw.size

    def _check_range(self, offset: int, nbytes: int) -> None:
        require(
            0 <= offset and nbytes >= 0 and offset + nbytes <= self.size,
            ErrorCode.CL_INVALID_VALUE,
            f"range [{offset}, {offset + nbytes}) outside buffer of {self.size} bytes",
        )

    def _check_alive(self) -> None:
        if self.released:
            raise CLError(ErrorCode.CL_INVALID_MEM_OBJECT, "buffer was released")

    def retain(self) -> None:
        self.refcount += 1

    def release(self) -> None:
        self.refcount -= 1
        if self.refcount <= 0 and not self.released:
            self.released = True
            for dev in self._accounted:
                dev.hw.free_mem(self.size)
            self._accounted = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Buffer {self.size}B flags=0x{self.flags:x}>"
