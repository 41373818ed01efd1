import bisect
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interval, Timeline
from repro.sim import timeline as timeline_module
from repro.sim.errors import TimelineError


def test_allocate_on_empty():
    tl = Timeline("dev")
    iv = tl.allocate(ready=1.0, duration=2.0)
    assert iv.start == 1.0
    assert iv.end == 3.0
    assert tl.busy_until == 3.0


def test_allocate_back_to_back():
    tl = Timeline()
    a = tl.allocate(0.0, 1.0)
    b = tl.allocate(0.0, 1.0)
    assert a.end <= b.start
    assert b.start == 1.0


def test_first_fit_fills_earlier_gap():
    tl = Timeline()
    tl.reserve(10.0, 20.0)
    iv = tl.allocate(ready=0.0, duration=5.0)
    # The gap [0, 10) fits a 5-second job, even though busy_until is 20.
    assert iv.start == 0.0
    assert iv.end == 5.0


def test_gap_too_small_skipped():
    tl = Timeline()
    tl.reserve(2.0, 10.0)
    iv = tl.allocate(ready=0.0, duration=5.0)
    assert iv.start == 10.0


def test_ready_inside_existing_reservation():
    tl = Timeline()
    tl.reserve(0.0, 4.0)
    iv = tl.allocate(ready=2.0, duration=1.0)
    assert iv.start == 4.0


def test_zero_duration_not_recorded():
    tl = Timeline()
    iv = tl.allocate(0.0, 0.0)
    assert iv.duration == 0.0
    assert len(tl) == 0


def test_zero_duration_positioned_after_busy():
    tl = Timeline()
    tl.reserve(0.0, 3.0)
    iv = tl.allocate(1.0, 0.0)
    assert iv.start == 3.0


def test_reserve_conflict_raises():
    tl = Timeline()
    tl.reserve(0.0, 5.0)
    with pytest.raises(TimelineError):
        tl.reserve(4.0, 6.0)
    with pytest.raises(TimelineError):
        tl.reserve(-1.0, 1.0)


def test_reserve_backwards_raises():
    tl = Timeline()
    with pytest.raises(TimelineError):
        tl.reserve(5.0, 4.0)


def test_negative_duration_raises():
    tl = Timeline()
    with pytest.raises(TimelineError):
        tl.allocate(0.0, -1.0)


def test_busy_time_and_utilization():
    tl = Timeline()
    tl.reserve(0.0, 2.0)
    tl.reserve(4.0, 6.0)
    assert tl.busy_time() == pytest.approx(4.0)
    assert tl.busy_time(1.0, 5.0) == pytest.approx(2.0)
    assert tl.utilization(0.0, 8.0) == pytest.approx(0.5)
    assert tl.utilization(5.0, 5.0) == 0.0


def test_out_of_order_clients_share_fairly():
    # Client A (simulated first) books three 1s jobs from t=0;
    # client B (simulated later) also wants to start at t=0.
    tl = Timeline()
    a1 = tl.allocate(0.0, 1.0, "A")
    a2 = tl.allocate(a1.end, 1.0, "A")
    a3 = tl.allocate(a2.end, 1.0, "A")
    b1 = tl.allocate(0.0, 1.0, "B")
    # B queues after A's existing bookings (FCFS by arrival).
    assert b1.start == a3.end


def test_clear():
    tl = Timeline()
    tl.allocate(0.0, 1.0)
    tl.clear()
    assert len(tl) == 0
    assert tl.busy_until == 0.0


@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0.001, max_value=10, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_allocations_never_overlap_and_respect_ready(jobs):
    tl = Timeline()
    got = []
    for ready, dur in jobs:
        iv = tl.allocate(ready, dur)
        assert iv.start >= ready
        assert iv.duration == pytest.approx(dur)
        got.append(iv)
    ordered = sorted(got, key=lambda iv: iv.start)
    for prev, cur in zip(ordered, ordered[1:]):
        assert prev.end <= cur.start + 1e-12


@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=50, allow_nan=False),
            st.floats(min_value=0.1, max_value=5, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_first_fit_is_earliest_feasible(jobs):
    """No feasible earlier start exists for any allocation at the time it
    was made (checked by re-validating against the intervals present)."""
    tl = Timeline()
    for ready, dur in jobs:
        existing = list(tl)
        iv = tl.allocate(ready, dur)
        # candidate earlier starts: ready itself and all existing interval ends
        candidates = [ready] + [e.end for e in existing if e.end >= ready]
        for cand in candidates:
            if cand >= iv.start:
                continue
            probe = Interval(cand, cand + dur)
            if not any(e.overlaps(probe) for e in existing):
                raise AssertionError(
                    f"allocate({ready},{dur}) -> {iv.start}, but {cand} was free"
                )


# ----------------------------------------------------------------------
# the busy-run index against the linear first-fit it replaced
# ----------------------------------------------------------------------
class LinearTimeline:
    """The oracle: ``Timeline`` as it was before the busy-run index —
    one list of intervals, ``next_free`` scanning them one by one (the
    methods are that version's, verbatim)."""

    def __init__(self, name="", epsilon=1e-15):
        self.name = name
        self.epsilon = epsilon
        self._starts = []
        self._intervals = []

    def __len__(self):
        return len(self._intervals)

    def __iter__(self):
        return iter(self._intervals)

    @property
    def busy_until(self):
        if not self._intervals:
            return 0.0
        return self._intervals[-1].end

    def busy_time(self, window_start=0.0, window_end=None):
        if window_end is None:
            window_end = self.busy_until
        total = 0.0
        for iv in self._intervals:
            lo = max(iv.start, window_start)
            hi = min(iv.end, window_end)
            if hi > lo:
                total += hi - lo
        return total

    def next_free(self, ready, duration):
        if duration < 0.0:
            raise TimelineError(f"timeline {self.name!r}: negative duration {duration}")
        start = ready
        idx = bisect.bisect_left(self._starts, ready)
        # The previous interval may still cover `ready`.
        if idx > 0 and self._intervals[idx - 1].end > start:
            start = self._intervals[idx - 1].end
            idx_scan = idx
        else:
            idx_scan = idx
        for i in range(idx_scan, len(self._intervals)):
            iv = self._intervals[i]
            if iv.start - start >= duration:
                return start
            if iv.end > start:
                start = iv.end
        return start

    def allocate(self, ready, duration, tag=None):
        start = self.next_free(ready, duration)
        iv = Interval(start, start + duration, tag)
        if duration >= self.epsilon:
            pos = bisect.bisect_left(self._starts, iv.start)
            self._starts.insert(pos, iv.start)
            self._intervals.insert(pos, iv)
        return iv

    def reserve(self, start, end, tag=None):
        if end < start:
            raise TimelineError(f"timeline {self.name!r}: end {end} < start {start}")
        iv = Interval(start, end, tag)
        pos = bisect.bisect_left(self._starts, start)
        if pos > 0 and self._intervals[pos - 1].overlaps(iv):
            raise TimelineError(f"timeline {self.name!r}: {iv} overlaps {self._intervals[pos - 1]}")
        if pos < len(self._intervals) and self._intervals[pos].overlaps(iv):
            raise TimelineError(f"timeline {self.name!r}: {iv} overlaps {self._intervals[pos]}")
        if iv.duration >= self.epsilon:
            self._starts.insert(pos, iv.start)
            self._intervals.insert(pos, iv)
        return iv


def _runs_of(intervals):
    """Maximal chains of exactly-touching intervals, from the definition."""
    runs = []
    for iv in intervals:
        if runs and runs[-1][1] == iv.start:
            runs[-1][1] = iv.end
        else:
            runs.append([iv.start, iv.end])
    return [tuple(run) for run in runs]


# Times sit on a grid of exactly representable quarters, so requests land
# before, inside, exactly at the boundaries of and between runs, and
# durations fill a gap exactly, fall short of it or overshoot it.  1e-16
# is below epsilon (positioned, never recorded); 1e-15 is recorded, and at
# starts >= 16 adding it does not change the float: a zero-width interval.
_GRID = st.integers(min_value=0, max_value=96).map(lambda q: q / 4.0)
_DURATIONS = st.sampled_from([0.0, 1e-16, 1e-15, 0.25, 0.5, 1.0, 2.75])
_OPS = st.one_of(
    st.tuples(st.just("allocate"), _GRID | st.floats(min_value=0, max_value=24), _DURATIONS),
    st.tuples(st.just("reserve"), _GRID, st.sampled_from([0.0, 1e-15, 0.25, 0.5, 1.5])),
)


@given(ops=st.lists(_OPS, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_run_index_matches_linear_first_fit(ops):
    tl, oracle = Timeline("t"), LinearTimeline("t")
    for n, (op, at, span) in enumerate(ops):
        args = (at, span, n) if op == "allocate" else (at, at + span, n)
        try:
            expected = getattr(oracle, op)(*args)
        except TimelineError as exc:
            with pytest.raises(TimelineError, match=str(exc).replace("(", r"\(").replace(")", r"\)")):
                getattr(tl, op)(*args)
        else:
            assert getattr(tl, op)(*args) == expected  # (start, end, tag)
        assert list(tl) == list(oracle)
        assert tl.busy_runs() == _runs_of(oracle)
    assert len(tl) == len(oracle)
    assert tl.busy_until == oracle.busy_until
    assert tl.busy_time() == oracle.busy_time()
    assert tl.busy_time(3.0, 11.5) == oracle.busy_time(3.0, 11.5)
    for ready, duration in [(0.0, 0.0), (5.0, 0.0), (5.0, 1e-16), (0.0, 0.25), (7.25, 3.0)]:
        assert tl.next_free(ready, duration) == oracle.next_free(ready, duration)


@given(
    ops=st.lists(_OPS | st.tuples(st.just("prune"), st.none(), st.none()), min_size=1, max_size=60)
)
@settings(max_examples=300, deadline=None)
def test_pruning_matches_the_unpruned_oracle(ops):
    """Prunes at the tightest legal floor — the earliest time any later
    request is ready at — change no answer, no busy_until and no
    busy_time(), and keep the live reservations a suffix of the oracle's."""
    tl, oracle = Timeline("t"), LinearTimeline("t")
    later = [at for op, at, _ in ops if op != "prune"]
    for n, (op, at, span) in enumerate(ops):
        if op == "prune":
            floor = min(later, default=24.0)
            tl.prune(floor)
            assert tl.horizon == floor
            behind = math.nextafter(floor, -math.inf)
            for call in (lambda: tl.next_free(behind, 0.0), lambda: tl.allocate(behind, 1.0),
                         lambda: tl.reserve(behind, floor)):
                with pytest.raises(TimelineError, match="behind the horizon"):
                    call()
            # Zero duration fits at any boundary: exactly at the horizon
            # it still lands where it did.
            assert tl.allocate(floor, 0.0) == oracle.allocate(floor, 0.0)
            continue
        later.pop(0)
        args = (at, span, n) if op == "allocate" else (at, at + span, n)
        try:
            expected = getattr(oracle, op)(*args)
        except TimelineError as exc:
            with pytest.raises(TimelineError, match=re.escape(str(exc))):
                getattr(tl, op)(*args)
        else:
            assert getattr(tl, op)(*args) == expected  # (start, end, tag)
        assert len(tl) + tl.pruned == len(oracle)
        assert list(tl) == list(oracle)[tl.pruned :]
        assert tl.busy_runs() == _runs_of(list(tl))
        assert tl.busy_until == oracle.busy_until
        try:
            assert tl.busy_time() == oracle.busy_time()
        except TimelineError:
            # A zero-width reservation sorted behind a longer one with the
            # same start ends the list: busy_until cuts that one short, and
            # the pruned sum, which cannot, refuses instead of differing.
            assert max(iv.end for iv in oracle) > oracle.busy_until
    if tl.horizon <= 3.0:
        assert tl.busy_time(3.0, 11.5) == oracle.busy_time(3.0, 11.5)
    for ready, duration in [(0.0, 0.0), (5.0, 0.0), (5.0, 1e-16), (0.0, 0.25), (7.25, 3.0), (24.0, 0.5)]:
        if ready >= tl.horizon:
            assert tl.next_free(ready, duration) == oracle.next_free(ready, duration)


def test_a_reservation_ending_at_the_floor_is_kept():
    """Pruning drops what ends *before* the floor, so work starting at
    the floor still joins the run that ends there, as without pruning."""
    tl = Timeline()
    tl.allocate(0.0, 1.0)
    tl.allocate(1.0, 1.0)
    assert tl.prune(2.0) == 1
    assert list(tl) == [Interval(1.0, 2.0)]
    assert tl.busy_runs() == [(1.0, 2.0)]
    tl.allocate(2.0, 1.0)
    assert tl.busy_runs() == [(1.0, 3.0)]
    assert tl.busy_time() == 3.0


def test_busy_accounting_survives_pruning_everything():
    tl = Timeline()
    for ready in (0.5, 2.0, 4.0):
        tl.allocate(ready, 1.0)
    assert tl.prune(10.0) == 3 and len(tl) == 0 and tl.busy_runs() == []
    assert tl.busy_until == 5.0
    assert tl.busy_time() == 3.0
    assert tl.busy_time(10.0, 20.0) == 0.0
    with pytest.raises(TimelineError, match="behind the horizon"):
        tl.busy_time(1.0, 20.0)
    tl.clear()
    assert (tl.horizon, tl.pruned, tl.busy_until, tl.busy_time()) == (-math.inf, 0, 0.0, 0.0)


def test_a_floor_prunes_amortised(monkeypatch):
    """A timeline with a floor prunes once it holds PRUNE_AT
    reservations, then once it holds twice what survived."""
    monkeypatch.setattr(timeline_module, "PRUNE_AT", 4)
    now = [0.0]
    tl = Timeline()
    tl.attach_floor(lambda: now[0])
    for i in range(4):
        tl.allocate(float(i), 1.0)
    assert tl.pruned == 0 and tl.horizon == -math.inf
    now[0] = 3.0
    tl.allocate(4.0, 1.0)  # the fifth allocation prunes first
    assert (tl.pruned, len(tl), tl.horizon) == (2, 3, 3.0)
    tl.allocate(5.0, 1.0)
    assert tl.pruned == 2  # next prune at max(4, 2 * 2 survivors) records
    with pytest.raises(TimelineError, match="behind the horizon"):
        tl.allocate(2.5, 1.0)
    assert tl.busy_time() == 6.0 and tl.busy_until == 6.0


def test_zero_width_reservation_at_the_tail_matches_the_oracle():
    """1e-15 is recorded (>= epsilon) but 20.0 + 1e-15 == 20.0: a
    zero-width reservation.  New work landing exactly on it goes
    *before* it in list order, as bisect_left always put it."""
    tl, oracle = Timeline(), LinearTimeline()
    for t in (tl, oracle):
        t.reserve(19.0, 20.0, "a")
        assert t.allocate(20.0, 1e-15, "zero").duration == 0.0
        assert t.allocate(19.5, 1.0, "b") == Interval(20.0, 21.0, "b")
        t.allocate(0.0, 30.0, "c")
    assert [iv.tag for iv in tl] == [iv.tag for iv in oracle] == ["a", "b", "zero", "c"]
    # Runs follow list order: the zero-width straggler touches neither side.
    assert tl.busy_runs() == _runs_of(oracle) == [(19.0, 21.0), (20.0, 20.0), (21.0, 51.0)]
    assert tl.next_free(0.0, 5.0) == oracle.next_free(0.0, 5.0) == 0.0
    assert tl.next_free(19.5, 0.5) == oracle.next_free(19.5, 0.5) == 51.0


def test_zero_duration_stops_at_a_boundary_inside_a_run():
    tl = Timeline()
    for _ in range(4):
        tl.allocate(0.0, 1.0)  # one run [0, 4)
    assert tl.busy_runs() == [(0.0, 4.0)]
    assert tl.next_free(2.0, 0.0) == 2.0  # a boundary: fits there
    assert tl.next_free(1.5, 0.0) == 2.0  # inside an interval: its end
    assert tl.next_free(1.5, 1e-16) == 4.0  # any positive length: the run's end


def test_back_to_back_allocations_are_one_run():
    tl = Timeline()
    t = 0.0
    for _ in range(10_000):
        t = tl.allocate(t, 0.001).end
    assert len(tl) == 10_000  # every reservation is still there
    assert tl.busy_runs() == [(0.0, tl.busy_until)]
    # A requester whose clock lags the whole run lands behind it.
    assert tl.allocate(0.0, 0.001).start == t


def test_filling_a_gap_exactly_joins_two_runs():
    tl = Timeline()
    tl.reserve(0.0, 1.0)
    tl.reserve(2.0, 3.0)
    assert tl.busy_runs() == [(0.0, 1.0), (2.0, 3.0)]
    assert tl.allocate(0.0, 1.0) == Interval(1.0, 2.0)
    assert tl.busy_runs() == [(0.0, 3.0)]
    tl.clear()
    assert tl.busy_runs() == []
