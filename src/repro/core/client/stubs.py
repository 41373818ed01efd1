"""Client-side stubs for remote OpenCL objects.

"Stubs enable an OpenCL application to control remote objects such that
these do not have to be transferred to the client" (Section III-D).
Simple stubs (devices, command queues) map one-to-one onto a remote
object; *compound* stubs (contexts, programs, kernels, memory objects)
keep one client handle consistent with one remote object per server.

Stubs expose the attribute shapes the ICD loader and applications expect
(``.platform``, ``.context``, ``.program``), so unmodified application
code works against them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clc.access import Launch, launch_sections
from repro.clc.driver import program_digest
from repro.core.coherence.directory import MOSIDirectory, MSIDirectory
from repro.core.coherence.planner import TransferPlanner
from repro.net.codec import encode
from repro.ocl.constants import (
    CL_COMMAND_USER,
    CL_COMPLETE,
    CL_MEM_COPY_HOST_PTR,
    CL_MEM_USE_HOST_PTR,
    CL_QUEUED,
    CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE,
    ErrorCode,
)
from repro.ocl.errors import CLError
from repro.ocl.memory import LentStorage


class RemoteDevice:
    """Simple stub for a device on a server.

    All info was shipped at connect time, so ``get_info`` never touches
    the network ("most information on other OpenCL management objects is
    immutable and provided to the client driver during object creation",
    Section III-B).
    """

    def __init__(self, platform, server, remote_id: int, info: Dict[str, object]) -> None:
        self.platform = platform
        self.server = server
        self.remote_id = remote_id
        self._info = dict(info)
        self.available = True

    @property
    def name(self) -> str:
        """The device's advertised name."""
        return str(self._info.get("NAME", "?"))

    @property
    def type_bits(self) -> int:
        """``CL_DEVICE_TYPE`` bit mask."""
        return int(self._info.get("TYPE", 0))

    def info(self) -> Dict[str, object]:
        """The cached info dict plus live availability."""
        out = dict(self._info)
        out["AVAILABLE"] = self.available
        return out

    def get_info(self, key: str) -> object:
        """One ``clGetDeviceInfo`` key, answered from the client cache."""
        info = self.info()
        if key not in info:
            raise CLError(ErrorCode.CL_INVALID_VALUE, f"unknown device info key {key!r}")
        return info[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteDevice {self.name!r} on {self.server.name!r} id={self.remote_id}>"


class ContextStub:
    """Compound stub: one remote context per involved server.

    "The contexts on a particular server are only associated with the
    devices that are hosted by that server, while the context represented
    by the compound stub is associated with all devices" (Section III-D).
    """

    def __init__(self, driver, stub_id: int, devices: List[RemoteDevice]) -> None:
        self.driver = driver
        self.id = stub_id
        self.devices = list(devices)
        self.platform = driver.platform
        # server name -> devices of this context on that server
        self.server_devices: Dict[str, List[RemoteDevice]] = {}
        for dev in devices:
            self.server_devices.setdefault(dev.server.name, []).append(dev)
        self.servers = [dev.server for dev in devices]
        seen = set()
        self.unique_servers = []
        for dev in devices:
            if dev.server.name not in seen:
                seen.add(dev.server.name)
                self.unique_servers.append(dev.server)
        # Hidden per-server queues used by the coherence protocol for
        # transfers when the app has no queue on the owning server.
        self._internal_queues: Dict[str, "QueueStub"] = {}
        #: Live buffer stubs of this context, registered at creation —
        #: the candidate pool the read-coalescing planner scans for
        #: sibling dirty buffers to gang onto one download fetch
        #: (``clReleaseMemObject`` removes a released buffer).
        self.live_buffers: List["BufferStub"] = []
        self.refcount = 1

    @property
    def server_names(self) -> List[str]:
        """Names of the context's servers, first-seen order."""
        return [s.name for s in self.unique_servers]

    def retain(self) -> None:
        """``clRetainContext``."""
        self.refcount += 1

    def release(self) -> None:
        """``clReleaseContext`` (remote release handled by the API)."""
        self.refcount -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ContextStub #{self.id} servers={self.server_names}>"


class QueueStub:
    """Simple stub: a command queue on exactly one server.

    ``last_event_id`` tracks the event of the most recent forwarded
    command on this queue: for in-order queues every command implicitly
    depends on its predecessor, and recording the edge on the stubs
    keeps the window graph's dependency closure complete even after the
    predecessor left its send window.  ``tail_event_id`` is the event of
    the last command its daemon queued — those plus the driver's own
    coherence transfers on it: what a ``clFinish`` waits for."""

    def __init__(self, context: ContextStub, stub_id: int, device: RemoteDevice, properties: int) -> None:
        self.context = context
        self.id = stub_id
        self.device = device
        self.server = device.server
        self.properties = properties
        self.last_event_id: Optional[int] = None
        self.tail_event_id: Optional[int] = None
        self.refcount = 1

    @property
    def in_order(self) -> bool:
        """Whether the queue executes commands in submission order."""
        return not (self.properties & CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE)

    def retain(self) -> None:
        """``clRetainCommandQueue``."""
        self.refcount += 1

    def release(self) -> None:
        """``clReleaseCommandQueue`` (remote release handled by the API)."""
        self.refcount -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueueStub #{self.id} on {self.server.name!r}>"


class Resident:
    """The residency record every compound stub shares: which servers
    hold the object, and in what state (``holders``: server name ->
    state — a kernel's bound argument encodings; ``None`` for a buffer
    copy or an event replica).

    The reference path creates a compound object on every server of its
    context and records them all.  On the pipeline an object exists only
    where a command used it: :meth:`place` decides whether a command
    bound for a server must carry, or be preceded by, its creation."""

    holders: Dict[str, object]

    def place(self, server: str, state: object = None) -> bool:
        """Record ``server`` as holding the object; True when it did not
        (the command bound there creates it first)."""
        if server in self.holders:
            return False
        self.holders[server] = state
        return True


class BufferStub(Resident, LentStorage):
    """Compound stub with coherence state (Section III-D).

    Holds the client's copy of the data plus the MSI/MOSI directory over
    {client} ∪ servers of the context.  A download or a push adopts the
    daemon's lent storage (:class:`~repro.ocl.memory.LentStorage`); a
    read assembled from sections keeps each as a lent piece
    (:meth:`keep_section`).
    """

    #: The client copy in pieces: sorted ``(offset, read-only view)``
    #: pairs that cover the buffer, while ``array`` is absent; ``None``
    #: while ``array`` is the whole copy.  A read copies straight out of
    #: the pieces (:meth:`copy_out`); any other use of ``array`` merges
    #: them into one private array first (:meth:`__getattr__`).
    pieces: Optional[List[Tuple[int, np.ndarray]]] = None

    def __init__(
        self,
        context: ContextStub,
        stub_id: int,
        flags: int,
        size: int,
        protocol: str = "msi",
    ) -> None:
        self.context = context
        self.id = stub_id
        self.flags = flags
        self.size = int(size)
        #: The client copy.  Its bytes mean something only while the
        #: directory calls the client valid: a whole-buffer write streams
        #: the application's array and leaves this copy stale (Invalid).
        self.array = np.zeros(self.size, dtype=np.uint8)
        directory_cls = {"msi": MSIDirectory, "mosi": MOSIDirectory}.get(protocol)
        if directory_cls is None:
            raise CLError(ErrorCode.CL_INVALID_VALUE, f"unknown coherence protocol {protocol!r}")
        self.coherence = directory_cls(context.server_names, self.size)
        #: The planning facade every coherence operation routes through
        #: (PR 9): delegates state to ``self.coherence``, records the
        #: per-epoch access history and emits push hints.
        self.planner = TransferPlanner(self.coherence)
        #: ID of the event produced by the last forwarded command that
        #: writes this buffer — a kernel launch or a gated upload (None
        #: before any).  Sync points that target the buffer (blocking
        #: reads, coherence downloads) seed their dependency closure
        #: with it, so the chain stays traceable even after the writer
        #: left its send window.
        self.last_write_event: Optional[int] = None
        #: True while every copy (client and daemons) still holds the
        #: initial zeros — nothing has written the buffer anywhere, so no
        #: data movement can be needed to validate a copy.
        self.pristine = True
        self.holders = {}
        self.refcount = 1
        self.released = False

    @property
    def remote_flags(self) -> int:
        """The flags a server copy is created with: a plain allocation
        (host data reaches servers through coherence uploads)."""
        return self.flags & ~(CL_MEM_COPY_HOST_PTR | CL_MEM_USE_HOST_PTR)

    def check_range(self, offset: int, nbytes: int) -> None:
        """Validate a host access range against the buffer, raising
        ``CL_INVALID_VALUE`` for out-of-range ``offset``/``nbytes``.
        Transfer enqueues call this *before* touching planner or
        directory state, so a rejected call leaves nothing mutated."""
        if self.released:
            raise CLError(ErrorCode.CL_INVALID_MEM_OBJECT, "buffer was released")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise CLError(
                ErrorCode.CL_INVALID_VALUE,
                f"range [{offset}, {offset + nbytes}) outside buffer of {self.size} bytes",
            )

    def write_host(self, offset: int, raw: np.ndarray) -> None:
        """Overwrite ``raw.size`` bytes of the client's copy at ``offset``."""
        self.check_range(offset, raw.size)
        self.pristine = False
        self.store(offset, raw)

    def read_host(self, offset: int, nbytes: int) -> np.ndarray:
        """Copy ``nbytes`` bytes out of the client's copy at ``offset``."""
        self.check_range(offset, nbytes)
        if self.pieces is None:
            return self.array[offset : offset + nbytes].copy()
        out = np.empty(nbytes, dtype=np.uint8)
        self.copy_out(out, offset)
        return out

    def copy_out(self, out: np.ndarray, offset: int) -> None:
        """Fill ``out`` with the client copy's bytes from ``offset``:
        one copy per byte, from each piece it spans."""
        if self.pieces is None:
            out[:] = self.array[offset : offset + out.size]
            return
        end = offset + out.size
        for start, piece in self.pieces:
            lo, hi = max(start, offset), min(start + piece.size, end)
            if lo < hi:
                out[lo - offset : hi - offset] = piece[lo - start : hi - start]

    def adopt(self, data: np.ndarray) -> None:
        """Take a lent view as the whole copy (no copy): the pieces go."""
        self.array, self.lent, self.pieces = data, True, None

    def keep_section(self, offset: int, view: np.ndarray) -> None:
        """Hold ``view``, a lent section a read landed, as the copy's
        bytes at ``offset``: it replaces the pieces it covers, and no
        byte is copied.  The copy stays cut where the directory's
        segments are: one cut finer than three pieces a segment (a
        section landed inside each) is merged into one private array."""
        end = offset + view.size
        pieces = self.pieces or [(0, self.__dict__.pop("array"))]
        self.pieces = (
            [(s, p[: offset - s]) for s, p in pieces if s < offset]
            + [(offset, view)]
            + [(max(s, end), p[max(s, end) - s :]) for s, p in pieces if s + p.size > end]
        )
        self.lent = True
        if len(self.pieces) > 3 * len(self.coherence.segments):
            self.flatten()

    def flatten(self) -> None:
        """Merge the pieces into one private array: the whole copy."""
        array = np.empty(self.size, dtype=np.uint8)
        self.copy_out(array, 0)
        self.array, self.lent, self.pieces = array, False, None

    def __getattr__(self, name: str):
        # Called only for a missing attribute: ``array`` while the copy
        # is held in pieces.  Its user gets them merged first.
        if name == "array" and self.pieces is not None:
            self.flatten()
            return self.array
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def retain(self) -> None:
        """``clRetainMemObject``."""
        self.refcount += 1

    def release(self) -> None:
        """``clReleaseMemObject``: drops to zero -> buffer is gone."""
        self.refcount -= 1
        if self.refcount <= 0:
            self.released = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BufferStub #{self.id} {self.size}B {self.coherence!r}>"


class ProgramStub:
    """Compound stub: program replicated to every server of the context.

    ``kernel_meta`` caches the per-kernel argument metadata the build
    replies ship (``BuildProgramResponse.kernels``); it is what lets
    ``clCreateKernel`` assemble a :class:`KernelStub` without a
    synchronous round trip (the handle-promise design)."""

    def __init__(self, context: ContextStub, stub_id: int, source: str) -> None:
        self.context = context
        self.id = stub_id
        self.source = source
        self.options = ""
        self.build_status: str = "NONE"
        self.build_logs: Dict[str, str] = {}
        self.kernel_meta: Dict[str, Dict[str, object]] = {}
        self.refcount = 1
        #: The serialized program blob this stub was created from
        #: (``clCreateProgramWithBinary``), or ``None`` for
        #: source-created programs.
        self.binary: Optional[bytes] = None
        self._digest: Optional[str] = None

    @property
    def digest(self) -> str:
        """Content address of the source (``sha256`` hex, computed
        lazily once) — the key the build-cache pipeline rides on."""
        if self._digest is None:
            self._digest = program_digest(self.source)
        return self._digest

    def build_info(self, key: str) -> object:
        """``clGetProgramBuildInfo``: STATUS / LOG / OPTIONS."""
        if key == "STATUS":
            return self.build_status
        if key == "LOG":
            return "\n".join(
                f"[{server}] {log}" for server, log in self.build_logs.items() if log
            )
        if key == "OPTIONS":
            return self.options
        raise CLError(ErrorCode.CL_INVALID_VALUE, f"unknown build info key {key!r}")

    def retain(self) -> None:
        """``clRetainProgram``."""
        self.refcount += 1

    def release(self) -> None:
        """``clReleaseProgram`` (remote release handled by the API)."""
        self.refcount -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProgramStub #{self.id} status={self.build_status}>"


def _hull(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
    """The smallest ``(offset, nbytes)`` section holding two sections."""
    if not a[1]:
        return b
    if not b[1]:
        return a
    lo, hi = min(a[0], b[0]), max(a[0] + a[1], b[0] + b[1])
    return lo, hi - lo


class KernelStub(Resident):
    """Compound stub: argument metadata cached client-side from the
    build reply, argument values as set.  On the pipeline a daemon gets
    the kernel and each value from the first launch there that needs it;
    a holder's state is ``{index: wire encoding}`` of the values bound there."""

    def __init__(
        self,
        program: ProgramStub,
        stub_id: int,
        name: str,
        num_args: int,
        arg_kinds: List[str],
        arg_types: List[str],
        writable_buffer_args: List[int],
        access: Optional[Dict[int, tuple]] = None,
    ) -> None:
        self.program = program
        self.context = program.context
        self.id = stub_id
        self.name = name
        self.num_args = num_args
        self.arg_kinds = list(arg_kinds)
        self.arg_types = list(arg_types)
        self.writable_buffer_args = set(writable_buffer_args)
        #: ``{parameter index: (read, write, cover)}`` access summaries
        #: (:mod:`repro.clc.access`); a parameter without one may touch
        #: every byte.
        self.access = access or {}
        self.args: List[object] = [None] * num_args
        self.args_set: List[bool] = [False] * num_args
        self.wire: List[object] = [None] * num_args  #: each value as a launch entry carries it
        self.encoded: List[bytes] = [b""] * num_args  #: each ``wire`` value's encoding
        self.holders = {}
        self.holds_program = False  #: retained its program until its last release
        self.refcount = 1

    def buffer_args(self) -> List[BufferStub]:
        """The currently bound buffer arguments (coherence planning)."""
        return [a for a in self.args if isinstance(a, BufferStub)]

    def sections(self, launch: Launch) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, Tuple[int, int]]]:
        """``(acquired, written)``: per bound buffer id, the ``(offset,
        nbytes)`` hull of what ``launch`` may read or write, and of what
        it may write, over every parameter the buffer is bound to."""
        acquired: Dict[int, Tuple[int, int]] = {}
        written: Dict[int, Tuple[int, int]] = {}
        for i, value in enumerate(self.args):
            if not isinstance(value, BufferStub):
                continue
            access = self.access.get(i)
            whole = (0, value.size)
            read, write = launch_sections(access, value.size, launch) if access else (whole, whole)
            if i not in self.writable_buffer_args:
                write = (0, 0)
            written[value.id] = _hull(written.get(value.id, (0, 0)), write)
            acquired[value.id] = _hull(acquired.get(value.id, (0, 0)), _hull(read, write))
        return acquired, written

    def set_wire(self, index: int, value: object) -> None:
        """Record argument ``index`` as a launch entry carries it,
        encoding it once for :meth:`ship_to`'s comparisons."""
        self.wire[index] = value
        self.encoded[index] = encode(value)

    def ship_to(self, server: str):
        """What a launch on ``server`` carries, recorded as held there:
        whether it creates the kernel, and the ``[index, value]`` entries
        the daemon has not bound.  Values compare by wire encoding (``1``,
        ``1.0``, ``True``, ``0.0``, ``-0.0`` differ); a NaN always re-ships."""
        create = self.place(server, {})
        held = self.holders[server]
        entries = [
            [i, v]
            for i, (v, e) in enumerate(zip(self.wire, self.encoded))
            if held.get(i) != e or v != v
        ]
        held.update((i, self.encoded[i]) for i, _ in entries)
        return create, entries

    def retain(self) -> None:
        """``clRetainKernel``."""
        self.refcount += 1

    def release(self) -> None:
        """``clReleaseKernel`` (remote release handled by the API)."""
        self.refcount -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelStub #{self.id} {self.name!r}>"


class EventStub(Resident):
    """Client-side handle for a remote event.

    The *original* event lives on ``owner_server``; the servers in
    ``holders`` got a user-event replica with the same ID — every other
    server of the context on the reference path, on the pipeline the
    servers where a command waited on the unresolved event.  When the
    daemon's completion callback arrives, the client records the arrival
    time and relays the status to every holder (Section III-D); an
    event with no holders (an internal transfer event) relays nowhere.

    With asynchronous batched forwarding the command that produces this
    event may still sit in a send window; the driver attaches a *flush
    hook* so that waiting on the stub first pushes the window out and the
    stub resolves from the batch reply's completion notification.
    """

    def __init__(self, context: ContextStub, stub_id: int, owner_server: Optional[str], command_type: int) -> None:
        self.context = context
        self.id = stub_id
        self.owner_server = owner_server
        self.command_type = command_type
        #: Virtual time the completion became known on the client.
        self.completion_arrival: Optional[float] = None
        #: Completion time on the owning server (from the notification).
        self.completed_at: Optional[float] = None
        self.holders = {}
        #: IDs of the events this event's producing command waits on
        #: (its wait list), recorded at enqueue time.  The window
        #: graph's closure walk follows these even after the producer
        #: has left its send window — a dispatched launch can still sit
        #: pending daemon-side on an unresolved dependency, and the
        #: windows of that dependency's producers must drain for this
        #: event to ever resolve.
        self.depends_on: tuple = ()
        #: Driver-installed callable flushing the forwarding this event's
        #: resolution depends on (see class docstring).
        self._flush_hook = None
        #: Set to ``(error_code, reason)`` when the daemon homing this
        #: event was declared dead before the completion arrived: the
        #: event can never resolve, and waiting on it raises the recorded
        #: error instead of the generic deadlock diagnostic.
        self.poisoned: Optional[tuple] = None
        self.refcount = 1

    def attach_flush_hook(self, hook) -> None:
        """Install the driver's flush-on-wait callable."""
        self._flush_hook = hook

    @property
    def resolved(self) -> bool:
        """Whether the completion has reached the client."""
        return self.completion_arrival is not None

    @property
    def status(self) -> int:
        """``clGetEventInfo(STATUS)`` equivalent."""
        return CL_COMPLETE if self.resolved else CL_QUEUED

    def mark_complete(self, completed_at: float, arrival: float) -> None:
        """Record the completion notification (driver callback)."""
        self.completed_at = completed_at
        self.completion_arrival = arrival

    def wait(self, t: float) -> float:
        """Resolve the event, draining send windows via the flush hook;
        returns the virtual time the waiter resumes."""
        if not self.resolved and self.poisoned is not None:
            code, reason = self.poisoned
            raise CLError(ErrorCode(code), reason)
        if not self.resolved and self._flush_hook is not None:
            self._flush_hook(self)  # drain send windows; may resolve us
        if not self.resolved:
            if self.poisoned is not None:  # the flush itself killed the owner
                code, reason = self.poisoned
                raise CLError(ErrorCode(code), reason)
            raise CLError(
                ErrorCode.CL_INVALID_EVENT_WAIT_LIST,
                "deadlock: waiting on an event that can never complete",
            )
        return max(t, self.completion_arrival)

    def retain(self) -> None:
        """``clRetainEvent``."""
        self.refcount += 1

    def release(self) -> None:
        """``clReleaseEvent``."""
        self.refcount -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"done@{self.completion_arrival:.6f}" if self.resolved else "pending"
        return f"<EventStub #{self.id} owner={self.owner_server!r} {state}>"


class UserEventStub(EventStub):
    """``clCreateUserEvent`` through dOpenCL: every copy is a replica —
    on all servers (reference path), or where commands wait on it."""

    def __init__(self, context: ContextStub, stub_id: int) -> None:
        super().__init__(context, stub_id, owner_server=None, command_type=CL_COMMAND_USER)


class ServerHandle:
    """The ``cl_server_WWU`` object returned by ``clConnectServerWWU``."""

    def __init__(self, connection) -> None:
        self.connection = connection

    @property
    def name(self) -> str:
        """The server's (host) name."""
        return self.connection.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServerHandle {self.name!r}>"
