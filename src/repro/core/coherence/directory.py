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

Validity is kept per *section* (HDArray's array sections): the
directory holds a sorted list of segments of the buffer, each with the
per-party MSI/MOSI state the paper keeps per object, and runs the state
machine on each segment an operation names.  An operation splits the
segments at its bounds, and adjacent segments whose states are equal
merge again, so a whole-buffer write folds the buffer back to one
segment — the paper's one state per object.  A plan's :class:`Transfer`
names the ``(offset, nbytes)`` section it moves; adjacent sections with
the same source and destination merge into one.

Invariants (property-tested, per segment):

* at most one party is Modified/Owned;
* Modified implies every other party is Invalid;
* at least one party holds a valid copy (the data never vanishes);
* executing the returned plan leaves the requested party valid on the
  requested section.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    copy of the section ``[offset, offset + nbytes)``, ``dst`` receives
    it."""

    src: str
    dst: str
    reason: str
    offset: int = 0
    nbytes: int = 0


def split_transfer_plan(
    plans: Sequence[Tuple[object, Sequence[Transfer]]],
) -> Tuple[
    "Dict[str, List[Tuple[object, Transfer]]]",
    "Dict[Tuple[str, str], List[Tuple[object, Transfer]]]",
    "Dict[str, List[Tuple[object, Transfer]]]",
]:
    """Split per-buffer transfer plans for window-aware coalescing of
    *every* transfer direction.

    ``plans`` is a sequence of ``(key, plan)`` pairs — ``key``
    identifies the memory object (the driver passes the buffer stub),
    ``plan`` the ordered :class:`Transfer` list its directory emitted.
    Returns ``(downloads, peers, uploads)``, each group a list of
    ``(key, transfer)`` sections:

    * ``downloads`` groups server->client downloads by **source
      daemon** — two sections revalidating the client from the same
      daemon fuse into one ``CoalescedBufferDownload`` fetch (both
      the coherence misses of a kernel launch and the gang
      revalidation of a coalesced blocking read, see
      :meth:`MSIDirectory.client_download_source`);
    * ``peers`` groups direct server-to-server hops (the MOSI
      Section III-F exchanges) by **(source, destination) pair** —
      two sections moving along the same pair fuse into one
      ``BufferPeerTransferBatch``;
    * ``uploads`` groups client->server uploads by **destination
      daemon**, exactly as the original (PR-2) upload-only split did.

    Each group preserves the order the plans listed its members in.
    The categorised execution order — all downloads, then all peer
    hops, then all uploads — preserves every per-object data
    dependency because of the structural properties of the MSI/MOSI
    planners (verified by the coalescing property tests):

    * within one object's plan, a client->server upload only ever
      *follows* the download that revalidates the client's copy of its
      section — so running the download phase before the upload phase
      keeps the per-object order intact;
    * an MSI plan never contains a server-to-server hop, and a MOSI
      plan moves each section in a single direct hop from its owner, so
      no section's plan orders a peer transfer against another
      category;
    * transfers of different objects are independent (each directory
      governs exactly one object), so regrouping across objects cannot
      reorder anything that matters.

    Directory state is mutated at *planning* time (``acquire_read``),
    never at execution time — grouping therefore leaves the
    directories in exactly the state one-at-a-time execution would.
    """
    downloads: Dict[str, List[Tuple[object, Transfer]]] = {}
    peers: Dict[Tuple[str, str], List[Tuple[object, Transfer]]] = {}
    uploads: Dict[str, List[Tuple[object, Transfer]]] = {}
    for key, plan in plans:
        for transfer in plan:
            if transfer.src == CLIENT and transfer.dst != CLIENT:
                uploads.setdefault(transfer.dst, []).append((key, transfer))
            elif transfer.dst == CLIENT and transfer.src != CLIENT:
                downloads.setdefault(transfer.src, []).append((key, transfer))
            else:
                peers.setdefault((transfer.src, transfer.dst), []).append((key, transfer))
    return downloads, peers, uploads


Segment = Dict[str, State]


class MSIDirectory:
    """Client-mediated MSI directory for one memory object of ``size``
    bytes, its state kept per segment."""

    #: Set of states considered valid (readable).
    VALID = (State.MODIFIED, State.SHARED)

    def __init__(self, servers: List[str], size: int = 1) -> None:
        if CLIENT in servers:
            raise CoherenceError(f"{CLIENT!r} is a reserved party name")
        initial: Segment = {CLIENT: State.SHARED}
        for name in servers:
            initial[name] = State.INVALID
        self.size = int(size)
        #: Segment ``i`` spans ``[starts[i], starts[i + 1])`` (the last
        #: one ends at ``size``) and has the per-party states
        #: ``segments[i]``.
        self.starts: List[int] = [0]
        self.segments: List[Segment] = [initial]
        #: Non-``None`` while some segment has no valid copy left (see
        #: :meth:`evict`): names the loss for the deterministic
        #: ``CL_DEVICE_NOT_AVAILABLE`` raised by acquires that need it.
        self.lost_reason: Optional[str] = None
        self._check()

    # -- sections ------------------------------------------------------
    def _bounds(self, offset: int, nbytes: Optional[int]) -> Tuple[int, int]:
        return offset, self.size if nbytes is None else offset + nbytes

    def _span(self, i: int) -> Tuple[int, int]:
        end = self.starts[i + 1] if i + 1 < len(self.starts) else self.size
        return self.starts[i], end

    def _overlapping(self, lo: int, hi: int) -> List[Segment]:
        """The segments meeting ``[lo, hi)``, without splitting."""
        if hi <= lo:
            return []
        return self.segments[bisect_right(self.starts, lo) - 1 : bisect_left(self.starts, hi)]

    def _split(self, lo: int, hi: int) -> range:
        """Cut the segments at ``lo`` and ``hi``; the indexes of the
        segments spanning ``[lo, hi)``."""
        if hi <= lo:
            return range(0)
        for cut in (lo, hi):
            if 0 < cut < self.size:
                i = bisect_right(self.starts, cut) - 1
                if self.starts[i] != cut:
                    self.starts.insert(i + 1, cut)
                    self.segments.insert(i + 1, dict(self.segments[i]))
        return range(bisect_left(self.starts, lo), bisect_left(self.starts, hi))

    def _merge(self) -> None:
        """Fold adjacent segments whose states are equal into one."""
        if len(self.segments) == 1:
            return
        starts, segments = [self.starts[0]], [self.segments[0]]
        for start, segment in zip(self.starts[1:], self.segments[1:]):
            if segment != segments[-1]:
                starts.append(start)
                segments.append(segment)
        self.starts, self.segments = starts, segments

    # -- queries -------------------------------------------------------
    @property
    def state(self) -> Segment:
        """The per-party state of the whole object, while it is one
        segment (:meth:`party_states` describes any directory)."""
        if len(self.segments) != 1:
            raise CoherenceError(f"{len(self.segments)} segments have no single state")
        return self.segments[0]

    def party_states(self) -> Dict[str, str]:
        """Each party's state letters, one per segment in order (``"M"``
        for a one-segment directory, ``"MI"`` for two)."""
        return {p: "".join(seg[p].value for seg in self.segments) for p in self.segments[0]}

    @property
    def parties(self) -> List[str]:
        """Every party tracked: the client plus the context's servers."""
        return list(self.segments[0])

    @property
    def servers(self) -> List[str]:
        """The server parties (everyone but the client)."""
        return [p for p in self.segments[0] if p != CLIENT]

    def directory(self) -> List[str]:
        """Servers holding a valid copy of every byte (the paper's
        per-stub server list)."""
        return [p for p in self.servers if self.is_valid(p)]

    def is_valid(self, party: str, offset: int = 0, nbytes: Optional[int] = None) -> bool:
        """Whether ``party`` holds readable bytes on the whole section."""
        party = self._known(party)
        if len(self.segments) == 1 and nbytes != 0:
            return self.segments[0][party] in self.VALID
        return all(seg[party] in self.VALID for seg in self._overlapping(*self._bounds(offset, nbytes)))

    def client_misses(self) -> List[Transfer]:
        """The downloads an ``acquire_read(CLIENT)`` of the object would
        plan *right now*: each section the client lacks, from its owner,
        adjacent sections from one owner merged (none when the client's
        copy is valid, or data is lost: the owning read raises
        deterministically through ``acquire_read``).  Pure."""
        misses: List[Transfer] = []
        if self.data_lost:
            return misses
        for i, seg in enumerate(self.segments):
            if seg[CLIENT] not in self.VALID:
                src, (a, b) = self._pick_owner(seg), self._span(i)
                if misses and misses[-1].src == src and misses[-1].offset + misses[-1].nbytes == a:
                    a = misses.pop().offset
                misses.append(Transfer(src, CLIENT, "client read miss", a, b - a))
        return misses

    def client_download_sources(self) -> Set[str]:
        """The servers of :meth:`client_misses`."""
        return {t.src for t in self.client_misses()}

    def client_download_source(self) -> "str | None":
        """The one server of :meth:`client_download_sources`, ``None``
        when there is none or several — the read-coalescing planner's
        candidate test: two buffers answering the same source daemon
        here can ride one ``CoalescedBufferDownload`` fetch, and
        grouping by this value is exactly how :func:`split_transfer_plan`
        would group their individual download plans."""
        sources = self.client_download_sources()
        return sources.pop() if len(sources) == 1 else None

    @property
    def data_lost(self) -> bool:
        """True while some segment has no valid copy anywhere (see :meth:`evict`)."""
        return self.lost_reason is not None

    def evict(self, party: str, reason: str = "") -> int:
        """Discard ``party``'s replica because its daemon died.

        Returns 1 when a *valid* copy of some segment was discarded (the
        quantity behind ``NetStats.evicted_replicas``), else 0.  If the
        evicted copy was a segment's last valid one, that data is gone
        for good: the directory records ``lost_reason`` and every later
        acquire that needs the segment raises ``CL_DEVICE_NOT_AVAILABLE``
        deterministically — unless a party later overwrites it
        (:meth:`mark_modified`), which makes the data well-defined again.
        Unknown parties are a no-op (the dead daemon never held this
        object)."""
        if party not in self.segments[0] or party == CLIENT:
            return 0
        was_valid = False
        for seg in self.segments:
            if seg[party] in self.VALID:
                was_valid = True
                seg[party] = State.INVALID
                if not self._holders(seg) and self.lost_reason is None:
                    self.lost_reason = reason or f"only valid copy was on {party!r}"
        self._merge()
        self._check()
        return 1 if was_valid else 0

    def _known(self, party: str) -> str:
        if party not in self.segments[0]:
            raise CoherenceError(f"unknown party {party!r}")
        return party

    def _holders(self, seg: Segment) -> List[str]:
        return [p for p, s in seg.items() if s in self.VALID]

    def _pick_owner(self, seg: Segment) -> str:
        holders = self._holders(seg)
        if not holders:
            if self.data_lost:
                raise CLError(
                    ErrorCode.CL_DEVICE_NOT_AVAILABLE,
                    f"buffer data lost: {self.lost_reason}",
                )
            raise CoherenceError("no valid copy exists anywhere")
        for p in holders:
            if seg[p] in (State.MODIFIED, State.OWNED):
                return p
        return holders[0]

    # -- operations -------------------------------------------------------
    def acquire_read(self, party: str, offset: int = 0, nbytes: Optional[int] = None) -> List[Transfer]:
        """Make ``party`` hold a valid copy of the section (default: the
        whole object); returns the transfer plan.  Each segment the party
        lacks runs the protocol's state machine (:meth:`_acquire`); the
        plan lists the downloads to the client first, then the
        server-to-server hops, then the uploads, and merges adjacent
        sections moving between the same two parties."""
        party = self._known(party)
        lo, hi = self._bounds(offset, nbytes)
        if self.is_valid(party, lo, hi - lo):
            return []
        for seg in self._overlapping(lo, hi):  # a lost segment raises before anything changes
            if seg[party] not in self.VALID:
                self._pick_owner(seg)
        moves: List[Tuple[int, str, str, str, int, int]] = []
        for i in self._split(lo, hi):
            seg = self.segments[i]
            if seg[party] not in self.VALID:
                a, b = self._span(i)
                for src, dst, reason in self._acquire(seg, party):
                    phase = 0 if dst == CLIENT else 2 if src == CLIENT else 1
                    moves.append((phase, src, dst, reason, a, b))
        moves.sort(key=lambda m: m[0])
        plan: List[Transfer] = []
        for _phase, src, dst, reason, a, b in moves:
            last = plan[-1] if plan else None
            if last is not None and (last.src, last.dst) == (src, dst) and last.offset + last.nbytes == a:
                plan[-1] = Transfer(src, dst, last.reason, last.offset, b - last.offset)
            else:
                plan.append(Transfer(src, dst, reason, a, b - a))
        self._merge()
        self._check()
        return plan

    def _acquire(self, seg: Segment, party: str) -> List[Tuple[str, str, str]]:
        """One segment's MSI miss: everything goes through the client —
        a server miss first revalidates the client's copy (download from
        the owner), then uploads from the client."""
        moves = []
        if party == CLIENT:
            owner = self._pick_owner(seg)
            moves.append((owner, CLIENT, "client read miss"))
            self._demote(seg, owner)
            seg[CLIENT] = State.SHARED
            return moves
        if seg[CLIENT] not in self.VALID:
            owner = self._pick_owner(seg)
            moves.append((owner, CLIENT, "revalidate client copy"))
            self._demote(seg, owner)
            seg[CLIENT] = State.SHARED
        moves.append((CLIENT, party, "server read miss"))
        self._demote(seg, CLIENT)  # a Modified client copy is now shared
        seg[party] = State.SHARED
        return moves

    @staticmethod
    def _demote(seg: Segment, owner: str) -> None:
        if seg[owner] in (State.MODIFIED, State.OWNED):
            seg[owner] = State.SHARED

    def abort_fetch(self, party: str, reason: str, offset: int = 0, nbytes: Optional[int] = None) -> None:
        """Roll back an optimistic ``acquire_read(party)`` of the section
        whose physical transfer failed.

        :meth:`acquire_read` marks ``party`` Shared *before* the bytes
        move; if the transfer then dies (daemon loss, exhausted retries)
        its segments claim a copy it never received.  Re-invalidate them
        — and if a demoted owner has meanwhile been evicted too, the
        data is genuinely gone, so record ``lost_reason`` exactly as
        :meth:`evict` would have."""
        for i in self._split(*self._bounds(offset, nbytes)):
            seg = self.segments[i]
            if seg.get(party) == State.SHARED:
                seg[party] = State.INVALID
            if not self._holders(seg) and not self.data_lost:
                self.lost_reason = reason
        self._merge()
        self._check()

    def mark_modified(self, party: str, offset: int = 0, nbytes: Optional[int] = None) -> None:
        """``party`` wrote the section (default: the whole object): it
        becomes Modified there, everyone else Invalid (a kernel wrote a
        buffer / the host overwrote the stub)."""
        party = self._known(party)
        lo, hi = self._bounds(offset, nbytes)
        if lo == 0 and hi == self.size:  # the whole object: one segment
            self.starts, self.segments = [0], [self.segments[0]]
        for i in self._split(lo, hi):
            seg = self.segments[i]
            for p in seg:
                seg[p] = State.MODIFIED if p == party else State.INVALID
        # An overwrite defines its bytes anew: data lost there is
        # well-defined again.
        if self.lost_reason is not None and all(map(self._holders, self.segments)):
            self.lost_reason = None
        self._merge()
        self._check()

    def host_overwrite(self) -> None:
        """``clEnqueueWriteBuffer``: the client's copy becomes the only
        valid one (no fetch needed — the host supplies all the data)."""
        self.mark_modified(CLIENT)

    # -- invariants ------------------------------------------------------
    def _check(self) -> None:
        for seg in self.segments:
            exclusive = [p for p, s in seg.items() if s in (State.MODIFIED, State.OWNED)]
            if len(exclusive) > 1:
                raise CoherenceError(f"multiple exclusive holders: {exclusive}")
            for p, s in seg.items():
                if s == State.MODIFIED:
                    others = [q for q in seg if q != p and seg[q] != State.INVALID]
                    if others:
                        raise CoherenceError(f"{p} is Modified but {others} are not Invalid")
            if not self._holders(seg) and not self.data_lost:
                raise CoherenceError("no valid copy exists anywhere")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{p}={s}" for p, s in self.party_states().items())
        return f"<{type(self).__name__} {inner}>"


class MOSIDirectory(MSIDirectory):
    """Section III-F extension: server-to-server transfer with an Owned
    state — "memory objects on different servers can be synchronized by
    exchanging their data directly"."""

    VALID = (State.MODIFIED, State.OWNED, State.SHARED)

    def _acquire(self, seg: Segment, party: str) -> List[Tuple[str, str, str]]:
        """One segment's MOSI miss: a single direct hop from the owner
        (server-to-server when both are servers), keeping dirty sharing
        via the Owned state."""
        owner = self._pick_owner(seg)
        if seg[owner] == State.MODIFIED:
            # The previous modifier keeps ownership (dirty sharing).
            seg[owner] = State.OWNED if owner != CLIENT else State.SHARED
        seg[party] = State.SHARED
        return [(owner, party, "direct transfer")]
