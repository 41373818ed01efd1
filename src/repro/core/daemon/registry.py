"""Object registry: client-assigned IDs -> native OpenCL objects.

Each connected client has its own ID namespace (IDs are allocated by that
client's driver).  "On the server, the daemon replaces these IDs by the
associated remote objects and calls the corresponding function of its
standard OpenCL implementation" (Section III-D).

With fully deferred creation calls the registry also tracks **poisoned
provisional IDs**: when a deferred creation fails (a buffer exceeding
device memory, a queue on a dead context), the ID the client promised
never materialises — it is recorded as poisoned, and every later command
that reads or would extend it is rejected with the original error
*without executing* (the daemon's batch-dispatch guard consults
:meth:`Registry.poison_info`).  Client drivers never reuse IDs, so a
poisoned ID stays poisoned until the client disconnects.

The registry also keeps the **object census** (:attr:`Registry.census`):
per kind (``Buffer``, ``UserEvent``, ``Kernel``, ...) how many objects
were created and how many of them any command ever named — looked up by
a handler, or named by a batched command the dispatch guard skipped.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type, TypeVar

from repro.ocl.constants import ErrorCode
from repro.ocl.errors import CLError

T = TypeVar("T")

_KIND_ERRORS = {
    "Context": ErrorCode.CL_INVALID_CONTEXT,
    "CommandQueue": ErrorCode.CL_INVALID_COMMAND_QUEUE,
    "Buffer": ErrorCode.CL_INVALID_MEM_OBJECT,
    "Program": ErrorCode.CL_INVALID_PROGRAM,
    "Kernel": ErrorCode.CL_INVALID_KERNEL,
    "Event": ErrorCode.CL_INVALID_EVENT,
    "UserEvent": ErrorCode.CL_INVALID_EVENT,
}


class Registry:
    """Per-client ID -> object mapping (plus poisoned-ID bookkeeping)."""

    def __init__(self) -> None:
        self._objects: Dict[str, Dict[int, object]] = {}
        #: client -> {poisoned id -> (error code int, detail)}.
        self._poisoned: Dict[str, Dict[int, Tuple[int, str]]] = {}
        #: kind -> ``[created, named]`` (see the module docstring).
        self.census: Dict[str, List[int]] = {}
        #: client -> ids of its live objects some command has named.
        self._named: Dict[str, Set[int]] = {}

    def client_names(self) -> Iterator[str]:
        """Clients that currently own registered objects."""
        return iter(self._objects)

    def put(self, client: str, obj_id: int, obj: object) -> object:
        """Register ``obj`` under the client-assigned unique ID."""
        table = self._objects.setdefault(client, {})
        if obj_id in table:
            raise CLError(
                ErrorCode.CL_INVALID_VALUE,
                f"duplicate object ID {obj_id} for client {client!r}",
            )
        table[obj_id] = obj
        self.census.setdefault(type(obj).__name__, [0, 0])[0] += 1
        return obj

    def name(self, client: str, ids: Iterable[int]) -> None:
        """Record that a command named ``ids`` (unknown ids are skipped)."""
        table = self._objects.get(client, {})
        named = self._named.setdefault(client, set())
        for obj_id in ids:
            obj = table.get(obj_id)
            if obj is not None and obj_id not in named:
                named.add(obj_id)
                self.census[type(obj).__name__][1] += 1

    def get(self, client: str, obj_id: int, expected: Optional[Type[T]] = None) -> T:
        """Look an object up, optionally type-checked (faithful CLError).
        A poisoned ID re-raises the failure that poisoned it — whether
        the object never materialised (failed creation) or exists but
        diverged from the client's picture of it (a skipped in-place
        mutation) — so even synchronous paths (stream inits) attribute
        the error to its cause and never execute against stale state."""
        hit = self.poison_info(client, (obj_id,))
        if hit is not None:
            pid, code, detail = hit
            raise CLError(
                ErrorCode(code), f"ID {pid} was poisoned by a failed command: {detail}"
            )
        obj = self._objects.get(client, {}).get(obj_id)
        if obj is None:
            code = _KIND_ERRORS.get(expected.__name__, ErrorCode.CL_INVALID_VALUE) if expected else ErrorCode.CL_INVALID_VALUE
            raise CLError(code, f"no object with ID {obj_id} for client {client!r}")
        if expected is not None and not isinstance(obj, expected):
            raise CLError(
                _KIND_ERRORS.get(expected.__name__, ErrorCode.CL_INVALID_VALUE),
                f"object {obj_id} is a {type(obj).__name__}, expected {expected.__name__}",
            )
        self.name(client, (obj_id,))
        return obj

    def peek(self, client: str, obj_id: int) -> Optional[object]:
        """The object registered under ``obj_id``, or ``None`` — no
        error, no type check (for callers probing whether a deferred
        creation has replayed yet)."""
        return self._objects.get(client, {}).get(obj_id)

    def objects(self) -> Iterator[object]:
        """Every registered object, of every client."""
        return (obj for table in self._objects.values() for obj in table.values())

    def pop(self, client: str, obj_id: int) -> object:
        """Remove and return an object (the release handlers)."""
        table = self._objects.get(client, {})
        obj = table.pop(obj_id, None)
        if obj is None:
            raise CLError(ErrorCode.CL_INVALID_VALUE, f"no object with ID {obj_id}")
        self._named.get(client, set()).discard(obj_id)
        return obj

    def drop_client(self, client: str) -> Iterator[Tuple[int, object]]:
        """Remove and yield all of a client's objects (disconnect cleanup,
        including its poisoned-ID table)."""
        self._poisoned.pop(client, None)
        self._named.pop(client, None)
        table = self._objects.pop(client, {})
        return iter(table.items())

    # -- poisoned provisional IDs (deferred-creation failures) ----------
    def poison(self, client: str, ids: Iterable[int], error: int, detail: str) -> None:
        """Record provisional ``ids`` as poisoned by a failed creation
        (first failure wins per ID — the earliest cause is the one worth
        reporting)."""
        table = self._poisoned.setdefault(client, {})
        for obj_id in ids:
            table.setdefault(obj_id, (int(error), detail))

    def unpoison(self, client: str, obj_id: int) -> bool:
        """Clear a poisoned ID (the client released the failed handle);
        returns whether an entry was removed."""
        table = self._poisoned.get(client)
        if not table:
            return False
        return table.pop(obj_id, None) is not None

    def poison_info(
        self, client: str, ids: Iterable[int]
    ) -> Optional[Tuple[int, int, str]]:
        """``(id, error, detail)`` of the first poisoned ID among
        ``ids``, or ``None`` — the batch-dispatch guard's query."""
        table = self._poisoned.get(client)
        if not table:
            return None
        for obj_id in ids:
            hit = table.get(obj_id)
            if hit is not None:
                return obj_id, hit[0], hit[1]
        return None

    def count(self, client: str) -> int:
        """How many objects ``client`` currently owns."""
        return len(self._objects.get(client, {}))
