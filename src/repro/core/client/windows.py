"""Dependency-tracked send windows (the client's window graph).

PR 1 modeled each connection's send window as a flat list of deferred
requests; every sync point drained *every* window.  This module replaces
the flat lists with a small dependency layer: each windowed command
records the client handle IDs it **reads** and the IDs it **writes**
(creations and data/completion productions), so a synchronization point
that targets one handle — ``clWaitForEvents``, a blocking transfer —
can flush only the windows in the transitive dependency closure of that
handle, while ``clFinish`` keeps its full-drain semantics.

Two structural facts keep the graph small and the closure sound:

* **Within one window, program order is dependency order.**  A command
  can only refer to handles the application already held when it was
  issued, and the daemon replays a batch in client program order — so
  same-window dependencies (a launch after its kernel's creation) need
  no edges at all: flushing a window flushes every prefix.
* **Cross-window edges only arise through events** (a completion
  produced on one daemon gating a command on another) and through
  buffer data, which the coherence layer moves *eagerly* via streams
  (every stream flushes its target window first).  The closure
  therefore recurses only through unresolved event handles; replica
  bookkeeping (``CreateUserEventRequest`` on non-owning servers) is
  recorded as writing nothing, because a replica never *produces* the
  completion — it receives it.

``clFlush`` adds the third structural element: a **submission
barrier**.  A flush is a per-daemon submission guarantee — everything
the application enqueued on *any* queue of that daemon before the
flush must reach the daemon no later than anything issued after it —
so the window records the barrier position (:meth:`SendWindow.
mark_barrier`) instead of force-dispatching.  Program order inside a
window already makes whole-window dispatch barrier-correct; the rule
with teeth is for *prefix* flushing: a targeted sync point that
dispatches part of a window (and then bypasses it with a synchronous
request or coherence fetch) must dispatch at least up to the **last
barrier** (:attr:`SendWindow.barrier_floor`), or the synchronous
traffic would overtake commands the application explicitly flushed —
the reordering ``clFlush`` forbids.

The windows themselves live on the
:class:`~repro.core.client.connection.ServerConnection` (one
:class:`SendWindow` per connection); the driver owns the closure
computation because it alone knows which handles are events and where
their originals live.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple


class WindowCommand:
    """One deferred request plus its dependency annotation.

    ``reads`` are the client handle IDs the command consumes; ``writes``
    are the IDs this command *produces*: a launch writes its event ID
    and its writable buffer arguments, and a creation writes the
    provisional handle it materialises (so a sync point seeded with a
    promised buffer drains the windows holding its creations — and
    surfaces their failures — before consuming the data).  User-event
    *replica* creations and status updates write nothing: the replica
    registers an event another server produces, and a status reports a
    completion the client already holds, so the graph never needs to
    chase either."""

    __slots__ = ("msg", "reads", "writes")

    def __init__(self, msg, reads: Iterable[int] = (), writes: Iterable[int] = ()) -> None:
        self.msg = msg
        self.reads: Tuple[int, ...] = tuple(reads)
        self.writes: Tuple[int, ...] = tuple(writes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WindowCommand {type(self.msg).__name__} "
            f"reads={self.reads} writes={self.writes}>"
        )


class SendWindow:
    """One connection's ordered window of deferred commands.

    Keeps a write-handle index alongside the command list so the
    closure walk finds a handle's writers by dictionary lookup instead
    of a scan — the walk runs once per drain pass of every targeted
    sync point, over every window — plus the window's ``clFlush``
    **submission barriers** (positions recorded by
    :meth:`mark_barrier`), which :meth:`split_prefix` must never let a
    partial dispatch reorder across."""

    __slots__ = ("commands", "_writers", "_barriers")

    def __init__(self) -> None:
        self.commands: List[WindowCommand] = []
        self._writers: dict = {}
        self._barriers: List[int] = []

    def append(self, command: WindowCommand) -> None:
        """Queue a command at the window's tail (program order)."""
        self.commands.append(command)
        for handle in command.writes:
            self._writers.setdefault(handle, []).append(command)

    def mark_barrier(self) -> bool:
        """Record a ``clFlush`` submission barrier at the window's
        current tail: every command queued so far must reach the daemon
        no later than anything queued (or sent synchronously) after
        this point.  Returns whether a barrier was actually recorded —
        an empty window constrains nothing, and a position already
        marked is not recorded twice."""
        position = len(self.commands)
        if position == 0 or (self._barriers and self._barriers[-1] == position):
            return False
        self._barriers.append(position)
        return True

    @property
    def barrier_floor(self) -> int:
        """The window's last barrier position: a partial dispatch must
        cover at least this many commands (0 = unconstrained)."""
        return self._barriers[-1] if self._barriers else 0

    @property
    def barriers(self) -> Tuple[int, ...]:
        """The recorded barrier positions (introspection for tests)."""
        return tuple(self._barriers)

    def barrier_prefix(self) -> List[WindowCommand]:
        """The commands a barrier forces into any partial dispatch
        (positions below :attr:`barrier_floor`) — the closure walk
        recurses through their dependencies so a barrier-forced launch
        never ships while the producer it waits on sits windowed on
        another daemon."""
        return self.commands[: self.barrier_floor]

    def swap_out(self) -> List[WindowCommand]:
        """Atomically take the current contents, leaving the window
        empty — dispatching may defer *new* commands (completion
        relays), which must land in a fresh window, not the batch being
        sent.  A whole-window dispatch satisfies every barrier, so the
        barrier list resets with it."""
        taken = self.commands
        self.commands = []
        self._writers = {}
        self._barriers = []
        return taken

    def split_prefix(self, relevant) -> List[WindowCommand]:
        """Take the window *prefix* a targeted sync point must dispatch:
        everything up to — and including — the last command whose reads
        or writes intersect ``relevant`` (a set of handle IDs, typically
        a closure's ``seen`` set), extended to the window's
        :attr:`barrier_floor`.

        Commands after that point are causally independent of the
        awaited handles (their writes are outside the closure, and they
        report nothing the closure waits on) and behind no ``clFlush``,
        so they *stay windowed* and ride a later flush — the
        prefix-flushing optimisation: a blocking single-buffer read on
        a multi-command window drains only up to the buffer's producer.
        Reads count as relevance because a windowed status relay (which
        writes nothing) must still go out when its event is awaited.
        Within one window, program order is dependency order, so
        dispatching a prefix can never ship a command ahead of
        something it depends on.

        The **barrier rule**: when anything is dispatched, the prefix
        covers at least the last ``clFlush`` barrier — the caller is a
        targeted sync point about to bypass the window with synchronous
        traffic (a coherence fetch, a wait's follow-up), and commands
        the application explicitly flushed must never be overtaken by
        it.  A window with a barrier therefore dispatches its flushed
        prefix even when no command is relevant.

        Returns ``[]`` — and leaves the window untouched — when no
        command is relevant and no barrier is pending."""
        last = -1
        for i, cmd in enumerate(self.commands):
            if any(h in relevant for h in cmd.writes) or any(
                h in relevant for h in cmd.reads
            ):
                last = i
        cut = max(last + 1, self.barrier_floor)
        if cut == 0:
            return []
        prefix = self.commands[:cut]
        self.commands = self.commands[cut:]
        self._writers = {}
        for cmd in self.commands:
            for handle in cmd.writes:
                self._writers.setdefault(handle, []).append(cmd)
        # cut >= barrier_floor covers every recorded barrier, so none
        # can survive into the suffix.
        self._barriers = []
        return prefix

    def writer_index(self) -> Dict[int, List[WindowCommand]]:
        """The window's handle -> writing-commands index (read-only
        view; the closure walk merges these across windows once per
        pass instead of probing every window per handle)."""
        return self._writers

    def messages(self) -> List[object]:
        """The windowed request messages, in program order."""
        return [c.msg for c in self.commands]

    def __len__(self) -> int:
        return len(self.commands)

    def __bool__(self) -> bool:
        return bool(self.commands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SendWindow {len(self.commands)} commands>"


def closure(
    handles: Iterable[int],
    windows,
    event_of,
) -> Tuple[FrozenSet[str], FrozenSet[int]]:
    """The transitive dependency closure of ``handles``: ``(servers,
    seen)`` — the server names whose windows the closure touches, and
    every handle ID the walk visited (the *relevance set* prefix
    flushing feeds to :meth:`SendWindow.split_prefix`).

    ``windows`` maps server name -> :class:`SendWindow`; ``event_of``
    maps a handle ID to the driver's event stub (or ``None`` for
    non-event handles).  The closure walks:

    * an unresolved event contributes its **owner server** (the window
      holding — or having held — the command that will produce the
      completion must drain for the completion to ever reach the
      client) and recurses into its recorded wait list
      (``EventStub.depends_on``) — this edge survives dispatch: a
      launch already sent to its daemon can still sit pending on an
      unresolved dependency whose producers are windowed elsewhere;
      resolved events contribute nothing;
    * any windowed command *writing* a closure handle contributes its
      server, and its event-reads (an unresolved wait list) recurse —
      the cross-daemon edges described in the module docstring;
    * a server joining the closure contributes its window's
      **barrier-forced prefix** (:meth:`SendWindow.barrier_prefix`):
      prefix flushing will dispatch those commands no matter what
      (they sit before a ``clFlush``), so their writes join the
      relevance set and their event-reads recurse — the barrier edges
      that keep a forced launch's cross-daemon producers draining
      alongside it.

    The per-window writer indexes are merged into one map up front, so
    each handle costs one dictionary lookup instead of one probe per
    window — the walk is O(windowed writes + visited handles), not
    O(handles × windows) (each handle enters the stack at most once:
    membership is checked at push time; each server's barrier prefix is
    expanded at most once, on joining).

    Windows outside the returned set are causally independent of the
    awaited handles and stay untouched — the point of the graph."""
    writers: Dict[int, List[Tuple[str, WindowCommand]]] = {}
    for name, window in windows.items():
        for handle, cmds in window.writer_index().items():
            writers.setdefault(handle, []).extend((name, cmd) for cmd in cmds)
    servers = set()
    seen = set()
    stack = []

    def push(handle: int) -> None:
        if handle not in seen:
            seen.add(handle)
            stack.append(handle)

    def add_server(name: str) -> None:
        if name in servers:
            return
        servers.add(name)
        window = windows.get(name)
        if window is None:
            return
        for cmd in window.barrier_prefix():
            for write in cmd.writes:
                push(write)
            for read in cmd.reads:
                if read not in seen and event_of(read) is not None:
                    push(read)

    for handle in handles:
        push(handle)
    while stack:
        handle = stack.pop()
        stub = event_of(handle)
        if stub is not None:
            if getattr(stub, "resolved", False):
                continue  # completion already known: no dependency left
            owner = getattr(stub, "owner_server", None)
            if owner is not None:
                add_server(owner)
            for dep in getattr(stub, "depends_on", ()):
                push(dep)
        for name, cmd in writers.get(handle, ()):
            add_server(name)
            for read in cmd.reads:
                if read not in seen and event_of(read) is not None:
                    push(read)
    return frozenset(servers), frozenset(seen)

