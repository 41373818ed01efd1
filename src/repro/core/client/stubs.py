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

from typing import Dict, List, Optional

import numpy as np

from repro.clc.driver import program_digest
from repro.core.coherence.directory import MOSIDirectory, MSIDirectory
from repro.core.coherence.planner import TransferPlanner
from repro.ocl.constants import (
    CL_COMMAND_USER,
    CL_COMPLETE,
    CL_QUEUED,
    CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE,
    ErrorCode,
)
from repro.ocl.errors import CLError


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
        #: (released entries are pruned on each scan).
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
    predecessor left its send window."""

    def __init__(self, context: ContextStub, stub_id: int, device: RemoteDevice, properties: int) -> None:
        self.context = context
        self.id = stub_id
        self.device = device
        self.server = device.server
        self.properties = properties
        self.last_event_id: Optional[int] = None
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


class BufferStub:
    """Compound stub with coherence state (Section III-D).

    Holds the client's copy of the data plus the MSI/MOSI directory over
    {client} ∪ servers of the context.
    """

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
        self.data = np.zeros(self.size, dtype=np.uint8)
        directory_cls = {"msi": MSIDirectory, "mosi": MOSIDirectory}.get(protocol)
        if directory_cls is None:
            raise CLError(ErrorCode.CL_INVALID_VALUE, f"unknown coherence protocol {protocol!r}")
        self.coherence = directory_cls(context.server_names)
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
        self.refcount = 1
        self.released = False

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
        self.data[offset : offset + raw.size] = raw

    def read_host(self, offset: int, nbytes: int) -> np.ndarray:
        """Copy ``nbytes`` bytes out of the client's copy at ``offset``."""
        self.check_range(offset, nbytes)
        return self.data[offset : offset + nbytes].copy()

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


class KernelStub:
    """Compound stub: kernel replicated everywhere; argument metadata
    cached client-side from the first server's response."""

    def __init__(
        self,
        program: ProgramStub,
        stub_id: int,
        name: str,
        num_args: int,
        arg_kinds: List[str],
        arg_types: List[str],
        writable_buffer_args: List[int],
    ) -> None:
        self.program = program
        self.context = program.context
        self.id = stub_id
        self.name = name
        self.num_args = num_args
        self.arg_kinds = list(arg_kinds)
        self.arg_types = list(arg_types)
        self.writable_buffer_args = set(writable_buffer_args)
        self.args: List[object] = [None] * num_args
        self.args_set: List[bool] = [False] * num_args
        self.refcount = 1

    def buffer_args(self) -> List[BufferStub]:
        """The currently bound buffer arguments (coherence planning)."""
        return [a for a in self.args if isinstance(a, BufferStub)]

    def retain(self) -> None:
        """``clRetainKernel``."""
        self.refcount += 1

    def release(self) -> None:
        """``clReleaseKernel`` (remote release handled by the API)."""
        self.refcount -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelStub #{self.id} {self.name!r}>"


class EventStub:
    """Client-side handle for a remote event.

    The *original* event lives on ``owner_server``; every other server of
    the context got a user-event replica with the same ID.  When the
    daemon's completion callback arrives, the client records the arrival
    time and replicates the status (Section III-D).

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
        #: True when user-event replicas of this event were created on
        #: other servers (so a completion must be relayed to them); the
        #: driver sets it.  Events without replicas — internal transfer
        #: and read events — need (and get) no relay traffic.
        self.has_replicas = False
        #: Names of the servers the driver created those replicas on
        #: (set alongside ``has_replicas``) — the single source for the
        #: Section III-F direct-broadcast target list, so it can never
        #: drift from where the replicas actually live.
        self.replica_servers: tuple = ()
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
    """``clCreateUserEvent`` through dOpenCL: replicas on all servers."""

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
