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
* maintains the buffer's **sync-epoch history**: every whole-object
  write (kernel launch or host upload) opens a new epoch, and the set
  of parties that ``acquire_read`` the buffer during an epoch is its
  reader set.  When the next write closes a *kernel* epoch the
  ``(writer, readers)`` pair enters a short history window;
* emits **push hints** from that history: a stable producer->consumer
  edge — the two most recent closed kernel epochs written by the same
  daemon and read by the same consumer — predicts that the *next*
  write by that daemon will be consumed the same way, so the daemon
  can stream the replica at kernel completion, overlapping the
  transfer with the next iteration's compute (the HDArray-style
  schedule derived from observed access information).

Epochs are the push protocol's safety token: a hint carries the epoch
its kernel's write will create, the daemon labels the staged bytes and
the commit record with it, and the client only consumes a staged push
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

#: A sibling stays a gang-revalidation candidate for this many write
#: epochs after the client last *demand*-read it.  Matches
#: :data:`HISTORY_WINDOW`: both answer "is this buffer part of the
#: client's current access pattern".
GANG_DEMAND_WINDOW = 4


class TransferPlanner:
    """Per-buffer planning facade over one pure coherence directory.

    All directory *state* stays in ``self.directory`` (the object
    ``BufferStub.coherence`` continues to expose); the planner adds the
    access-history bookkeeping and the push prediction on top.  The
    driver talks to buffers exclusively through this interface.
    """

    def __init__(self, directory: MSIDirectory) -> None:
        self.directory = directory
        #: Monotone per-buffer write counter: bumped by every
        #: whole-object write, at *enqueue* time (client program
        #: order), which is what makes the epoch check race-free.
        self.epoch = 0
        self._writer: Optional[str] = None
        self._kernel_epoch = False
        self._readers: Set[str] = set()
        #: Closed kernel epochs, oldest first: ``(writer, readers)``.
        self._history: Deque[Tuple[str, FrozenSet[str]]] = deque(
            maxlen=HISTORY_WINDOW
        )
        #: Epoch at the client's last *demand* read (the application
        #: explicitly asked for the bytes), ``None`` until the first.
        #: Gang revalidation records plain ``acquire_read`` but not a
        #: demand — otherwise revalidating a buffer would keep it a
        #: candidate forever, circularly.
        self._demand_epoch: Optional[int] = None

    # -- pure-state passthroughs --------------------------------------
    @property
    def state(self):
        """The wrapped directory's per-party state dict."""
        return self.directory.state

    @property
    def data_lost(self) -> bool:
        """Whether every valid copy was lost to daemon failures."""
        return self.directory.data_lost

    def is_valid(self, party: str) -> bool:
        """Whether ``party`` holds a valid copy (pure passthrough)."""
        return self.directory.is_valid(party)

    def client_download_source(self) -> "str | None":
        """The daemon a client read would download from, ``None`` when
        the client copy is already valid (pure passthrough)."""
        return self.directory.client_download_source()

    def evict(self, party: str, reason: str = "") -> int:
        """Replica loss (daemon death): pure state change, no epoch —
        eviction defines no new bytes."""
        return self.directory.evict(party, reason)

    def abort_fetch(self, party: str, reason: str) -> None:
        """Roll back an optimistic acquire of ``party`` whose transfer
        died.  Pure state rollback: the epoch is untouched, so a push
        staged for the *current* version stays consumable by the retry."""
        self.directory.abort_fetch(party, reason)

    # -- planning (records the access history) ------------------------
    def acquire_read(self, party: str) -> List[Transfer]:
        """Plan making ``party`` valid; records ``party`` in the
        current epoch's reader set."""
        plan = self.directory.acquire_read(party)
        self._readers.add(party)
        return plan

    def note_client_demand(self) -> None:
        """The application explicitly read this buffer's bytes on the
        client (blocking read, read-modify-write, copy source).  Demand
        reads — not opportunistic revalidations — are what keep a
        buffer in the client's access pattern (:meth:`gang_candidate`)."""
        self._demand_epoch = self.epoch

    def gang_candidate(self) -> bool:
        """Whether this buffer belongs in a blocking read's
        gang-revalidation fetch, judged by the access history: a buffer
        with no closed kernel epochs yet is always a candidate (no
        evidence either way — the pre-PR-9 behaviour), but once the
        history shows a write pattern, only buffers the client
        *demand*-read within the last :data:`GANG_DEMAND_WINDOW` write
        epochs stay in.  A buffer only ever written for server-side
        consumption (OSEM's forward projections) drops out, so its
        producer daemon stops paying fetch traffic for bytes the client
        never looks at — and once every demanded sibling is served by a
        staged push, the fetch round trip disappears entirely.  The
        driver consults this only when ``push_transfers`` is on: the
        gate is the access-pattern half of the replication schedule, so
        the ablation flag restores unconditional candidacy (pre-refactor
        behaviour) together with switching the pushes off."""
        if not self._history:
            return True
        return (
            self._demand_epoch is not None
            and self.epoch - self._demand_epoch <= GANG_DEMAND_WINDOW
        )

    def note_kernel_write(self, party: str) -> int:
        """A kernel (device-side) whole-object write by ``party``:
        closes the current epoch into the history, opens the next.
        Returns the new epoch."""
        return self._note_write(party, kernel=True)

    def note_host_write(self, party: str) -> int:
        """A host-supplied whole-object write landing on ``party``
        (``clEnqueueWriteBuffer`` / device-side copy): bumps the epoch
        but never enters the prediction history — host writes don't
        form the iterative producer edge the push targets (in OSEM the
        zeroing write *alternates* with the kernel write every subset;
        feeding it to the history would erase the stable edge)."""
        return self._note_write(party, kernel=False)

    def _note_write(self, party: str, kernel: bool) -> int:
        if self._writer is not None and self._kernel_epoch:
            self._history.append((self._writer, frozenset(self._readers)))
        self.directory.mark_modified(party)
        self.epoch += 1
        self._writer = party
        self._kernel_epoch = kernel
        self._readers = set()
        return self.epoch

    # -- prediction ----------------------------------------------------
    def predict_push_target(self, writer: str) -> Optional[str]:
        """The party a push should target if ``writer``'s upcoming
        kernel write fits the buffer's stable producer->consumer edge;
        ``None`` when the history shows no such edge.

        The edge is stable when the :data:`STABLE_EPOCHS` most recent
        closed kernel epochs were written by ``writer`` and share a
        consumer other than the writer.  Under MSI every transfer is
        client-mediated, so the push always targets the client (a
        staged client copy serves both a direct client read and the
        "revalidate client copy" leg of a server miss); under MOSI a
        server consumer receives the replica directly over the peer
        mesh."""
        if len(self._history) < STABLE_EPOCHS:
            return None
        recent = list(self._history)[-STABLE_EPOCHS:]
        consumers: Optional[Set[str]] = None
        for epoch_writer, readers in recent:
            if epoch_writer != writer:
                return None
            consumers = set(readers) if consumers is None else consumers & readers
        consumers = (consumers or set()) - {writer}
        if not consumers:
            return None
        if CLIENT in consumers or not isinstance(self.directory, MOSIDirectory):
            return CLIENT
        return min(consumers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TransferPlanner epoch={self.epoch} "
            f"history={list(self._history)!r} {self.directory!r}>"
        )
