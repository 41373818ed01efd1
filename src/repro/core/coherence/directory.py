"""Directory-based coherence for dOpenCL memory objects.

The paper (Section III-D): *"we use a directory-based implementation of
the MSI (Modified, Shared, Invalid) coherence protocol.  The remote memory
objects are viewed as cached versions (copies) of the client's memory
object stub ... For each memory object stub, the client maintains a status
(initially 'shared') and a list of servers (the directory) which own a
valid remote memory object"*.

These classes are *pure protocol state machines*: an acquire returns a
plan of :class:`Transfer` actions for the client driver to execute (data
movement + virtual-time charging).  In MSI every transfer is
client-mediated ("copying means to upload data", servers never exchange
buffers directly); :class:`MOSIDirectory` implements the Section III-F
extension where servers synchronise "by exchanging their data directly",
adding the Owned state.

With fully deferred creation calls the buffer IDs a plan's transfers
target are *provisional* (handle promises): the server-side copy may not
exist yet when the plan is made.  Execution stays sound because every
transfer is a bulk stream or synchronous request: a coherence upload
carries the creation of a copy its destination lacks, and the other
transfers flush the destination daemon's window first — per-daemon
program order lands a windowed creation before the stream init that
references it.  A failed creation poisons the ID daemon-side, so the
stream init reports the original allocation error rather than a bare
unknown-ID failure.

Invariants (property-tested):

* at most one party is Modified/Owned;
* Modified implies every other party is Invalid;
* at least one party holds a valid copy (the data never vanishes);
* executing the returned plan leaves the requested party valid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ocl.constants import ErrorCode
from repro.ocl.errors import CLError

CLIENT = "client"


class State(str, enum.Enum):
    """Per-party coherence state of one memory object's copy."""

    MODIFIED = "M"
    OWNED = "O"  # MOSI only
    SHARED = "S"
    INVALID = "I"


class CoherenceError(RuntimeError):
    """A protocol invariant was violated (always a bug, never user error)."""


@dataclass(frozen=True)
class Transfer:
    """One data movement the driver must perform: ``src`` holds a valid
    copy, ``dst`` receives one."""

    src: str
    dst: str
    reason: str


def split_transfer_plan(
    plans: Sequence[Tuple[object, Sequence[Transfer]]],
) -> Tuple[
    "Dict[str, List[object]]",
    "Dict[Tuple[str, str], List[object]]",
    "Dict[str, List[object]]",
]:
    """Split per-buffer transfer plans for window-aware coalescing of
    *every* transfer direction.

    ``plans`` is a sequence of ``(key, plan)`` pairs — ``key``
    identifies the memory object (the driver passes the buffer stub),
    ``plan`` the ordered :class:`Transfer` list its directory emitted.
    Returns ``(downloads, peers, uploads)``:

    * ``downloads`` groups server->client downloads by **source
      daemon** — two buffers revalidating the client from the same
      daemon fuse into one ``CoalescedBufferDownload`` fetch (both
      the coherence misses of a kernel launch and the gang
      revalidation of a coalesced blocking read, see
      :meth:`MSIDirectory.client_download_source`);
    * ``peers`` groups direct server-to-server hops (the MOSI
      Section III-F exchanges) by **(source, destination) pair** —
      two buffers moving along the same pair fuse into one
      ``BufferPeerTransferBatch`` round trip;
    * ``uploads`` groups client->server uploads by **destination
      daemon**, exactly as the original (PR-2) upload-only split did.

    Each group preserves the order the plans listed its members in.
    The categorised execution order — all downloads, then all peer
    hops, then all uploads — preserves every per-object data
    dependency because of the structural properties of the MSI/MOSI
    planners (verified by the coalescing property tests):

    * within one object's plan, a client->server upload only ever
      *follows* the download that revalidates the client's copy — so
      running the download phase before the upload phase keeps the
      per-object order intact;
    * an MSI plan never contains a server-to-server hop and a MOSI
      plan is always a single direct hop, so no object's plan orders a
      peer transfer against another category;
    * transfers of different objects are independent (each directory
      governs exactly one object), so regrouping across objects cannot
      reorder anything that matters.

    Directory state is mutated at *planning* time (``acquire_read``),
    never at execution time — grouping therefore leaves the
    directories in exactly the state one-at-a-time execution would.
    """
    downloads: Dict[str, List[object]] = {}
    peers: Dict[Tuple[str, str], List[object]] = {}
    uploads: Dict[str, List[object]] = {}
    for key, plan in plans:
        for transfer in plan:
            if transfer.src == CLIENT and transfer.dst != CLIENT:
                uploads.setdefault(transfer.dst, []).append(key)
            elif transfer.dst == CLIENT and transfer.src != CLIENT:
                downloads.setdefault(transfer.src, []).append(key)
            else:
                peers.setdefault((transfer.src, transfer.dst), []).append(key)
    return downloads, peers, uploads


class MSIDirectory:
    """Client-mediated MSI directory for one memory object."""

    #: Set of states considered valid (readable).
    VALID = (State.MODIFIED, State.SHARED)

    def __init__(self, servers: List[str]) -> None:
        if CLIENT in servers:
            raise CoherenceError(f"{CLIENT!r} is a reserved party name")
        self.state: Dict[str, State] = {CLIENT: State.SHARED}
        for name in servers:
            self.state[name] = State.INVALID
        #: Non-``None`` once every valid copy died with its daemon (see
        #: :meth:`evict`): names the loss for the deterministic
        #: ``CL_DEVICE_NOT_AVAILABLE`` raised by later acquires.
        self.lost_reason: Optional[str] = None
        self._check()

    # -- queries -------------------------------------------------------
    @property
    def parties(self) -> List[str]:
        """Every party tracked: the client plus the context's servers."""
        return list(self.state)

    @property
    def servers(self) -> List[str]:
        """The server parties (everyone but the client)."""
        return [p for p in self.state if p != CLIENT]

    def directory(self) -> List[str]:
        """Servers holding a valid copy (the paper's per-stub server list)."""
        return [p for p in self.servers if self.state[p] in self.VALID]

    def is_valid(self, party: str) -> bool:
        """Whether ``party`` currently holds a readable copy."""
        return self.state[self._known(party)] in self.VALID

    def client_download_source(self) -> "str | None":
        """The server an ``acquire_read(CLIENT)`` would download from
        *right now*, or ``None`` when the client's copy is already
        valid.  Pure (no state change) — the read-coalescing planner's
        candidate test: two buffers answering the same source daemon
        here can ride one ``CoalescedBufferDownload`` fetch, and
        grouping by this value is exactly how
        :func:`split_transfer_plan` would group their individual
        download plans."""
        if self.data_lost:
            # Lost objects are never gang-fetch candidates; the owning
            # read raises deterministically through ``acquire_read``.
            return None
        if self.is_valid(CLIENT):
            return None
        return self._pick_owner()

    @property
    def data_lost(self) -> bool:
        """True when no valid copy survives anywhere (see :meth:`evict`)."""
        return self.lost_reason is not None

    def evict(self, party: str, reason: str = "") -> int:
        """Discard ``party``'s replica because its daemon died.

        Returns 1 when a *valid* copy was discarded (the quantity behind
        ``NetStats.evicted_replicas``), else 0.  If the evicted copy was
        the last valid one the object's data is gone for good: the
        directory records ``lost_reason`` and every later acquire raises
        ``CL_DEVICE_NOT_AVAILABLE`` deterministically — unless a party
        later overwrites the whole object (:meth:`mark_modified`), which
        makes the data well-defined again.  Unknown parties are a no-op
        (the dead daemon never held this object)."""
        if party not in self.state or party == CLIENT:
            return 0
        was_valid = self.state[party] in self.VALID
        self.state[party] = State.INVALID
        if was_valid and not self._holders():
            self.lost_reason = reason or f"only valid copy was on {party!r}"
        self._check()
        return 1 if was_valid else 0

    def _known(self, party: str) -> str:
        if party not in self.state:
            raise CoherenceError(f"unknown party {party!r}")
        return party

    def _holders(self) -> List[str]:
        return [p for p, s in self.state.items() if s in self.VALID]

    def _pick_owner(self) -> str:
        holders = self._holders()
        if not holders:
            if self.data_lost:
                raise CLError(
                    ErrorCode.CL_DEVICE_NOT_AVAILABLE,
                    f"buffer data lost: {self.lost_reason}",
                )
            raise CoherenceError("no valid copy exists anywhere")
        for p in holders:
            if self.state[p] in (State.MODIFIED, State.OWNED):
                return p
        return holders[0]

    # -- operations -------------------------------------------------------
    def acquire_read(self, party: str) -> List[Transfer]:
        """Make ``party`` hold a valid copy; returns the transfer plan.

        MSI routes everything through the client: a server miss first
        revalidates the client's copy (download from the owner), then
        uploads from the client.
        """
        party = self._known(party)
        plan: List[Transfer] = []
        if self.is_valid(party):
            return plan
        if party == CLIENT:
            owner = self._pick_owner()
            plan.append(Transfer(owner, CLIENT, "client read miss"))
            self._demote(owner)
            self.state[CLIENT] = State.SHARED
        else:
            if not self.is_valid(CLIENT):
                owner = self._pick_owner()
                plan.append(Transfer(owner, CLIENT, "revalidate client copy"))
                self._demote(owner)
                self.state[CLIENT] = State.SHARED
            plan.append(Transfer(CLIENT, party, "server read miss"))
            self._demote(CLIENT)  # a Modified client copy is now shared
            self.state[party] = State.SHARED
        self._check()
        return plan

    def _demote(self, owner: str) -> None:
        if self.state[owner] in (State.MODIFIED, State.OWNED):
            self.state[owner] = State.SHARED

    def abort_fetch(self, party: str, reason: str) -> None:
        """Roll back an optimistic ``acquire_read(party)`` whose physical
        transfer failed.

        :meth:`acquire_read` marks ``party`` Shared *before* the bytes
        move; if the transfer then dies (daemon loss, exhausted retries)
        its entry claims a copy it never received.  Re-invalidate it —
        and if the demoted owner has meanwhile been evicted too, the data
        is genuinely gone, so record ``lost_reason`` exactly as
        :meth:`evict` would have."""
        if self.state.get(party) == State.SHARED:
            self.state[party] = State.INVALID
        if not self._holders() and not self.data_lost:
            self.lost_reason = reason
        self._check()

    def mark_modified(self, party: str) -> None:
        """``party`` wrote the object: it becomes Modified, everyone else
        Invalid (kernel wrote a buffer / host overwrote the stub)."""
        party = self._known(party)
        for p in self.state:
            self.state[p] = State.MODIFIED if p == party else State.INVALID
        # A whole-object overwrite defines every byte anew: previously
        # lost data is well-defined again.
        self.lost_reason = None
        self._check()

    def host_overwrite(self) -> None:
        """``clEnqueueWriteBuffer``: the client's copy becomes the only
        valid one (no fetch needed — the host supplies all the data)."""
        self.mark_modified(CLIENT)

    # -- invariants ------------------------------------------------------
    def _check(self) -> None:
        exclusive = [p for p, s in self.state.items() if s in (State.MODIFIED, State.OWNED)]
        if len(exclusive) > 1:
            raise CoherenceError(f"multiple exclusive holders: {exclusive}")
        for p, s in self.state.items():
            if s == State.MODIFIED:
                others = [q for q in self.state if q != p and self.state[q] != State.INVALID]
                if others:
                    raise CoherenceError(f"{p} is Modified but {others} are not Invalid")
        if not self._holders() and not self.data_lost:
            raise CoherenceError("no valid copy exists anywhere")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{p}={s.value}" for p, s in self.state.items())
        return f"<{type(self).__name__} {inner}>"


class MOSIDirectory(MSIDirectory):
    """Section III-F extension: server-to-server transfer with an Owned
    state — "memory objects on different servers can be synchronized by
    exchanging their data directly"."""

    VALID = (State.MODIFIED, State.OWNED, State.SHARED)

    def acquire_read(self, party: str) -> List[Transfer]:
        """Make ``party`` valid with a single direct hop from the owner
        (server-to-server when both are servers), keeping dirty sharing
        via the Owned state."""
        party = self._known(party)
        plan: List[Transfer] = []
        if self.is_valid(party):
            return plan
        owner = self._pick_owner()
        plan.append(Transfer(owner, party, "direct transfer"))
        if self.state[owner] == State.MODIFIED:
            # The previous modifier keeps ownership (dirty sharing).
            self.state[owner] = State.OWNED if owner != CLIENT else State.SHARED
        self.state[party] = State.SHARED
        self._check()
        return plan
