"""The transfer-planning layer over the pure coherence directories.

PR 9 splits the coherence layer in two (the ROADMAP's "push, don't
fetch" item): :mod:`repro.core.coherence.directory` keeps the *pure
protocol state machines* (per-party M/O/S/I bits, unchanged invariants),
and this module adds the :class:`TransferPlanner` every buffer stub
routes its coherence traffic through.  The planner

* delegates every state transition to the wrapped directory, so with
  ``push_transfers=False`` it is *behaviour-identical* to calling the
  directory raw (property-tested against the pre-refactor oracle in
  ``tests/core/test_planner_equivalence.py``);
* maintains the buffer's **sync-epoch history**: every write (kernel
  launch or host upload, whole or to a section) opens a new epoch, and the set
  of parties that ``acquire_read`` the buffer during an epoch is its
  reader set.  When the next write closes a *kernel* epoch the
  ``(writer, readers)`` pair enters a short history window;
* emits **push hints** from that history: a stable producer->consumer
  edge — the two most recent closed kernel epochs written by the same
  daemon and read by the same consumer — predicts that the *next*
  write by that daemon will be consumed the same way, so the daemon
  can send the replica to the client with the kernel's completion
  notification, overlapping the transfer with the next iteration's
  compute (the HDArray-style schedule derived from observed access
  information).  A push only ever targets the client: a server
  consumer gets its bytes by the demand route when it needs them.

The history drives pushes and nothing else.  Which stranded siblings a
blocking read gangs onto its download is the driver's rule
(``DOpenCLDriver.read_gang``), read from the directories alone
(:meth:`~repro.core.coherence.directory.MSIDirectory.client_misses`),
the same with pushes on and off.

Epochs are the push protocol's safety token: a hint carries the epoch
its kernel's write will create, the daemon labels the pushed bytes
with it, and the client only consumes a staged push
whose epoch equals the buffer's *current* epoch.  Any intervening
write bumps the epoch, so a speculative push that lost the race is
discarded (counted in ``NetStats.wasted_pushes``), never observed.

``split_transfer_plan`` — the regrouping step the driver's coalesced
execution is written against — is re-exported here: plans enter it
through :meth:`TransferPlanner.acquire_read` and leave it grouped per
daemon (pair), exactly as before the split.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, FrozenSet, List, Optional, Set, Tuple

from repro.core.coherence.directory import (
    CLIENT,
    MOSIDirectory,
    MSIDirectory,
    Transfer,
    split_transfer_plan,
)

__all__ = ["TransferPlanner", "split_transfer_plan"]

#: Closed kernel epochs remembered per buffer; two suffice for the
#: stability test, the slack keeps the edge visible across a one-off
#: irregular epoch (e.g. a host write spliced into the loop).
HISTORY_WINDOW = 4

#: Consecutive closed kernel epochs that must agree on (writer,
#: consumer) before a push hint is emitted.
STABLE_EPOCHS = 2


class TransferPlanner:
    """Per-buffer planning facade over one pure coherence directory.

    All directory *state* stays in ``self.directory`` (the object
    ``BufferStub.coherence`` continues to expose); the planner adds the
    access-history bookkeeping and the push prediction on top.  The
    driver plans every transfer and records every write through it; the
    directory's own queries stay reachable as ``planner.directory``.
    """

    def __init__(self, directory: MSIDirectory) -> None:
        self.directory = directory
        #: Monotone per-buffer write counter: bumped by every
        #: write, at *enqueue* time (client program
        #: order), which is what makes the epoch check race-free.
        self.epoch = 0
        self._writer: Optional[str] = None
        self._kernel_epoch = False
        self._readers: Set[str] = set()
        #: Closed kernel epochs, oldest first: ``(writer, readers)``.
        self._history: Deque[Tuple[str, FrozenSet[str]]] = deque(
            maxlen=HISTORY_WINDOW
        )

    # -- pure-state passthroughs --------------------------------------
    def is_valid(self, party: str, offset: int = 0, nbytes: Optional[int] = None) -> bool:
        """Whether ``party`` holds a valid copy of the section (pure
        passthrough)."""
        return self.directory.is_valid(party, offset, nbytes)

    def client_download_sources(self) -> Set[str]:
        """The daemons a client read of the object would download from
        (pure passthrough)."""
        return self.directory.client_download_sources()

    def client_download_source(self) -> "str | None":
        """The one daemon a client read of the object would download
        from, ``None`` when the client copy is already valid or the
        object has several sources (pure passthrough)."""
        return self.directory.client_download_source()

    def evict(self, party: str, reason: str = "") -> int:
        """Replica loss (daemon death): pure state change, no epoch —
        eviction defines no new bytes."""
        return self.directory.evict(party, reason)

    def abort_fetch(self, party: str, reason: str, offset: int = 0, nbytes: Optional[int] = None) -> None:
        """Roll back an optimistic acquire of the section by ``party``
        whose transfer died.  Pure state rollback: the epoch is
        untouched, so a push staged for the *current* version stays
        consumable by the retry."""
        self.directory.abort_fetch(party, reason, offset, nbytes)

    # -- planning (records the access history) ------------------------
    def acquire_read(self, party: str, offset: int = 0, nbytes: Optional[int] = None) -> List[Transfer]:
        """Plan making ``party`` valid on the section; records ``party``
        in the current epoch's reader set."""
        plan = self.directory.acquire_read(party, offset, nbytes)
        self._readers.add(party)
        return plan

    def note_kernel_write(self, party: str, offset: int = 0, nbytes: Optional[int] = None) -> int:
        """A kernel (device-side) write by ``party`` of the section it
        may write (default: the whole object): closes the current epoch
        into the history, opens the next.  Returns the new epoch."""
        return self._note_write(party, True, offset, nbytes)

    def note_host_write(self, party: str) -> int:
        """A host-supplied whole-object write landing on ``party``
        (``clEnqueueWriteBuffer`` / device-side copy): bumps the epoch
        but never enters the prediction history — host writes don't
        form the iterative producer edge the push targets (in OSEM the
        zeroing write *alternates* with the kernel write every subset;
        feeding it to the history would erase the stable edge)."""
        return self._note_write(party, kernel=False)

    def _note_write(self, party: str, kernel: bool, offset: int = 0, nbytes: Optional[int] = None) -> int:
        if self._writer is not None and self._kernel_epoch:
            self._history.append((self._writer, frozenset(self._readers)))
        self.directory.mark_modified(party, offset, nbytes)
        self.epoch += 1
        self._writer = party
        self._kernel_epoch = kernel
        self._readers = set()
        return self.epoch

    # -- prediction ----------------------------------------------------
    def predict_push_target(self, writer: str) -> Optional[str]:
        """:data:`CLIENT` if ``writer``'s upcoming kernel write fits the
        buffer's stable producer->consumer edge and the client is the
        push's consumer; ``None`` otherwise.

        The edge is stable when the :data:`STABLE_EPOCHS` most recent
        closed kernel epochs were written by ``writer`` and share a
        consumer other than the writer.  Under MSI every transfer is
        client-mediated, so any such consumer is served by the push (a
        staged client copy serves both a direct client read and the
        "revalidate client copy" leg of a server miss); under MOSI an
        edge whose consumers are servers only predicts nothing: the
        consumer's hop takes the demand route when it needs the
        bytes."""
        if len(self._history) < STABLE_EPOCHS:
            return None
        recent = list(self._history)[-STABLE_EPOCHS:]
        consumers: Optional[Set[str]] = None
        for epoch_writer, readers in recent:
            if epoch_writer != writer:
                return None
            consumers = set(readers) if consumers is None else consumers & readers
        consumers = (consumers or set()) - {writer}
        if not consumers or (CLIENT not in consumers and isinstance(self.directory, MOSIDirectory)):
            return None
        return CLIENT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TransferPlanner epoch={self.epoch} "
            f"history={list(self._history)!r} {self.directory!r}>"
        )
