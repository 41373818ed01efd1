"""The sectioned coherence directory against a byte-level oracle.

The directory keeps the MSI/MOSI state machine per segment of a buffer
(:mod:`repro.core.coherence.directory`).  The oracle keeps, for every
party, the version of every byte it holds; executing a plan copies the
versions of each transfer's section from its source to its destination.
Whatever sequence of section reads, kernel writes, host overwrites,
evictions and failed fetches runs, a party that acquired a section must
then hold the newest version of every byte in it, the client's misses
must be the sections a client read would download, the protocol
invariants must hold on every segment, and segments merge back: no two
adjacent ones are equal, and there are no more than the cut points the
operations made.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coherence import MOSIDirectory, MSIDirectory, State
from repro.core.coherence.directory import CLIENT, Transfer
from repro.ocl.errors import CLError

SERVERS = ["s0", "s1", "s2"]
SIZE = 16

sections = st.tuples(st.integers(0, SIZE - 1), st.integers(1, SIZE)).map(
    lambda t: (t[0], min(t[1], SIZE - t[0]))
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.sampled_from([CLIENT, *SERVERS]), sections),
        st.tuples(st.just("kernel"), st.sampled_from(SERVERS), sections),
        st.tuples(st.just("host"), st.just(CLIENT), sections),
        st.tuples(st.just("evict"), st.sampled_from(SERVERS), sections),
        st.tuples(st.just("abort"), st.sampled_from([CLIENT, *SERVERS]), sections),
    ),
    min_size=1,
    max_size=40,
)


def _check_segments(d, cuts):
    for seg in d.segments:
        exclusive = [p for p, s in seg.items() if s in (State.MODIFIED, State.OWNED)]
        assert len(exclusive) <= 1
        for p, s in seg.items():
            if s is State.MODIFIED:
                assert all(seg[q] is State.INVALID for q in seg if q != p)
        assert d.data_lost or any(s in d.VALID for s in seg.values())
    assert all(a != b for a, b in zip(d.segments, d.segments[1:])), "unmerged neighbours"
    assert d.starts[0] == 0 and d.starts == sorted(set(d.starts))
    assert set(d.starts[1:]) <= cuts
    assert len(d.segments) <= 2 * len(cuts) + 1


@pytest.mark.parametrize("directory_cls", [MSIDirectory, MOSIDirectory])
@given(sequence=ops)
@settings(max_examples=300, deadline=None)
def test_plans_deliver_the_newest_bytes_of_every_section(directory_cls, sequence):
    d = directory_cls(SERVERS, SIZE)
    held = {p: [0] * SIZE for p in d.parties}
    newest = [0] * SIZE
    version = 0
    cuts = set()

    def execute(plan, skip=None):
        for t in plan:
            assert t.src != t.dst and t.nbytes > 0
            if t.dst == skip:
                continue
            held[t.dst][t.offset : t.offset + t.nbytes] = held[t.src][t.offset : t.offset + t.nbytes]

    for op, party, (offset, nbytes) in sequence:
        cuts.update(c for c in (offset, offset + nbytes) if 0 < c < SIZE)
        if op == "evict":
            d.evict(party)
            held[party] = [-1] * SIZE
        elif op == "host":
            d.mark_modified(CLIENT, offset, nbytes)
            version += 1
            for i in range(offset, offset + nbytes):
                newest[i] = held[CLIENT][i] = version
        else:
            try:
                plan = d.acquire_read(party, offset, nbytes)
            except CLError:
                assert d.data_lost
                continue
            if op == "abort":
                # The transfers to ``party`` failed: its sections never
                # moved, and the driver rolls each one back.
                execute(plan, skip=party)
                for t in plan:
                    if t.dst == party:
                        d.abort_fetch(party, "failed", t.offset, t.nbytes)
                        assert not d.is_valid(party, t.offset, t.nbytes)
            else:
                execute(plan)
                assert d.is_valid(party, offset, nbytes)
                assert held[party][offset : offset + nbytes] == newest[offset : offset + nbytes]
                if op == "kernel":
                    d.mark_modified(party, offset, nbytes)
                    version += 1
                    for i in range(offset, offset + nbytes):
                        newest[i] = held[party][i] = version
        _check_segments(d, cuts)
        # The client's misses are the sections a client read would
        # download, each from the same owner (a read gang relies on it).
        if not d.data_lost:
            planned = copy.deepcopy(d).acquire_read(CLIENT)
            assert [(t.src, t.offset, t.nbytes) for t in d.client_misses()] == [
                (t.src, t.offset, t.nbytes) for t in planned
            ]
        # Every valid byte anywhere is the newest one.
        for p in d.parties:
            for start, seg in zip(d.starts, d.segments):
                end = d.starts[d.starts.index(start) + 1] if start != d.starts[-1] else SIZE
                if seg[p] in d.VALID:
                    assert held[p][start:end] == newest[start:end]


def test_a_section_splits_the_buffer_and_a_whole_write_folds_it():
    d = MOSIDirectory(SERVERS, 1024)
    d.mark_modified("s0")
    d.acquire_read("s1", 0, 256)
    d.mark_modified("s1", 0, 256)
    assert d.starts == [0, 256]
    assert d.party_states() == {"client": "II", "s0": "IM", "s1": "MI", "s2": "II"}
    d.mark_modified("s2")
    assert d.starts == [0] and d.state["s2"] is State.MODIFIED


def test_a_read_assembled_from_two_owners_plans_one_download_from_each():
    d = MOSIDirectory(SERVERS, 1024)
    d.mark_modified("s0")
    assert d.acquire_read("s1", 0, 256) == [Transfer("s0", "s1", "direct transfer", 0, 256)]
    d.mark_modified("s1", 0, 256)
    assert d.client_download_sources() == {"s0", "s1"}
    assert d.client_download_source() is None
    plan = d.acquire_read(CLIENT)
    assert [(t.src, t.offset, t.nbytes) for t in plan] == [("s1", 0, 256), ("s0", 256, 768)]


def test_msi_revalidates_only_the_missing_section_through_the_client():
    d = MSIDirectory(SERVERS, 100)
    d.mark_modified("s0")
    d.acquire_read(CLIENT)
    d.mark_modified("s0", 40, 20)
    plan = d.acquire_read("s1", 30, 40)
    assert [(t.src, t.dst, t.offset, t.nbytes) for t in plan] == [
        ("s0", CLIENT, 40, 20),
        (CLIENT, "s1", 30, 40),
    ]


def test_adjacent_sections_between_the_same_parties_merge():
    d = MOSIDirectory(SERVERS, 90)
    d.mark_modified("s0")
    for lo in (0, 30, 60):
        d.acquire_read("s1", lo, 30)
    d.mark_modified("s0", 30, 30)
    plan = d.acquire_read("s2")
    assert plan == [Transfer("s0", "s2", "direct transfer", 0, 90)]


def test_a_lost_segment_fails_only_the_acquires_that_need_it():
    d = MOSIDirectory(SERVERS, 100)
    d.mark_modified("s0")
    d.acquire_read("s1", 0, 50)
    d.mark_modified("s1", 0, 50)
    d.evict("s0", "s0 died")
    assert d.data_lost
    assert d.acquire_read(CLIENT, 0, 50) == [Transfer("s1", CLIENT, "direct transfer", 0, 50)]
    with pytest.raises(CLError):
        d.acquire_read(CLIENT, 40, 20)
    d.mark_modified("s2", 50, 50)
    assert not d.data_lost
