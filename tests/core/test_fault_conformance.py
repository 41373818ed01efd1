"""Conformance under fire: the (seed x schedule) fault matrix (tier 1).

Each combination runs the randomized conformance program three ways —
fault-free, faulted, and (for unrecoverable schedules) faulted again —
and asserts the resilience contract from ISSUE 6:

* recoverable faults (drops, delays, truncation, healed severs) leave
  the run bit-identical to the fault-free run;
* unrecoverable faults (daemon crash, permanent sever) surface only
  deterministic daemon-loss errors and reproduce exactly on replay;
* the resilience counters obey their structural invariants and the
  transfer-count watchdog bounds every run (no deadlocks).

``run_seed_with_faults`` carries the assertions; this file pins the
tier-1 matrix.  For a wider soak, use the CLI knob::

    python -m repro.bench.conformance --faults --seeds 50
"""

import pytest

from repro.bench.conformance import (
    ALL_SCHEDULES,
    RECOVERABLE_SCHEDULES,
    UNRECOVERABLE_SCHEDULES,
    fault_plan,
    generate_program,
    run_faulted_program,
    run_seed_with_faults,
)

MATRIX_SEEDS = (0, 1, 2, 3)
MATRIX_SCHEDULES = RECOVERABLE_SCHEDULES + UNRECOVERABLE_SCHEDULES

#: Cells outside the seed range that once diverged and are pinned for
#: good: seed 15 enqueues a write on a queue of the already-dead daemon
#: and then a deferred read behind it (the born-poisoned event rule).
REGRESSION_CELLS = [(15, schedule) for schedule in UNRECOVERABLE_SCHEDULES]


@pytest.mark.parametrize(
    "seed,schedule",
    [(seed, schedule) for schedule in MATRIX_SCHEDULES for seed in MATRIX_SEEDS]
    + REGRESSION_CELLS,
)
def test_fault_matrix(seed, schedule):
    summary = run_seed_with_faults(seed, schedule)
    # A schedule that never fires tests nothing: every row of the tier-1
    # matrix must actually inject its fault.
    assert summary["fired"] >= 1, f"{schedule} never fired for seed {seed}"


@pytest.mark.parametrize("seed", MATRIX_SEEDS)
def test_severed_push_link_degrades_to_demand_fetch(seed):
    """ISSUE-9 fault cell: cutting the s2s mesh under a speculative
    push must fall back to the ordinary demand fetch with bit-identical
    observables (``run_seed_with_faults`` carries the differential
    assertions; ``push_fault_spec`` forces the seed's program onto MOSI
    with a cross-daemon producer->consumer loop so the push path
    engages)."""
    summary = run_seed_with_faults(seed, "sever-push")
    assert summary["fired"] >= 1, f"sever-push never fired for seed {seed}"
    # The baseline run really pushed and the sever really cost commits —
    # otherwise the degradation claim is untested.
    assert (
        summary["baseline_stats"]["push_commits"]
        > summary["faulted_stats"]["push_commits"]
    )


@pytest.mark.parametrize("seed", MATRIX_SEEDS)
def test_severed_deferred_fetch_degrades_deterministically(seed):
    """ISSUE-10 fault cell: severing the client<->daemon link at the
    exact bulk transfer that carries a deferred read's fetch must
    degrade deterministically — the retry replays the fetch over the
    healed link, the waited event resolves, and observables stay
    bit-identical (``run_seed_with_faults`` carries the differential
    assertions; ``deferred_read_fault_spec``'s fixed program shape
    guarantees the first bulk download on the wire *is* the deferred
    fetch)."""
    summary = run_seed_with_faults(seed, "sever-fetch")
    assert summary["fired"] >= 1, f"sever-fetch never fired for seed {seed}"
    # The fault must not change how many reads deferred — only when the
    # fetch lands.
    assert (
        summary["baseline_stats"]["deferred_reads"]
        == summary["faulted_stats"]["deferred_reads"]
    )


@pytest.mark.parametrize("seed", MATRIX_SEEDS)
def test_dropped_write_section_replays_the_batch(seed):
    """Dropping the leg of the first host-write section (streamed behind
    its batch) fails the batch before the daemon dispatches it: the
    retry replays the batch, re-streams the section and applies the
    write once, with bit-identical observables (``run_seed_with_faults``
    carries the differential assertions; ``write_fault_spec`` appends a
    non-blocking write so a section is always on the wire)."""
    summary = run_seed_with_faults(seed, "drop-section")
    assert summary["fired"] >= 1, f"drop-section never fired for seed {seed}"
    faulted, baseline = summary["faulted_stats"], summary["baseline_stats"]
    assert faulted["replayed_batches"] == baseline["replayed_batches"] + 1


@pytest.mark.parametrize("seed", MATRIX_SEEDS)
def test_dropped_upload_section_replays_the_batch(seed):
    """Coherence uploads stream as sections too: on the seed's generated
    program (no write appended), dropping the first section's leg —
    whichever upload, host write or coherence, it carries — replays its
    batch once, with bit-identical observables."""
    summary = run_faulted_program(generate_program(seed), "drop-section")
    assert summary["fired"] >= 1, f"drop-section never fired for seed {seed}"
    faulted, baseline = summary["faulted_stats"], summary["baseline_stats"]
    assert faulted["replayed_batches"] == baseline["replayed_batches"] + 1


@pytest.mark.parametrize("seed", MATRIX_SEEDS)
def test_dropped_peer_transfer_request_is_re_sent(seed):
    """Dropping the request leg of the first ``BufferPeerTransferBatch``
    — the pipeline's one synchronous coherence request — costs its
    exchange one timeout; the retry re-sends it, the hop lands once, and
    observables stay bit-identical (``peer_transfer_fault_spec`` appends
    a two-buffer MOSI hop, so one is always on the wire)."""
    summary = run_seed_with_faults(seed, "drop-request")
    assert summary["fired"] >= 1, f"drop-request never fired for seed {seed}"
    faulted, baseline = summary["faulted_stats"], summary["baseline_stats"]
    assert faulted["retries"] == baseline["retries"] + 1
    assert faulted["coalesced_peer_transfers"] == baseline["coalesced_peer_transfers"] >= 1
    assert faulted["replayed_batches"] == baseline["replayed_batches"]


@pytest.mark.parametrize("schedule", ALL_SCHEDULES)
def test_every_schedule_has_a_bounded_plan(schedule):
    plan = fault_plan(schedule)
    assert plan.actions, f"{schedule} resolves to an empty plan"
    assert plan.max_transfers is not None, f"{schedule} runs without a watchdog"


@pytest.mark.parametrize("schedule", UNRECOVERABLE_SCHEDULES)
def test_unrecoverable_schedules_kill_exactly_one_daemon(schedule):
    summary = run_seed_with_faults(0, schedule)
    assert summary["dead_daemons"] == 1
    assert summary["errors"] >= 1


def test_recoverable_schedules_keep_every_daemon_alive():
    for schedule in RECOVERABLE_SCHEDULES:
        summary = run_seed_with_faults(1, schedule)
        assert summary["dead_daemons"] == 0
        # The program's own intentional failures (bad_create/build_bad
        # ops) surface identically with or without faults; a recoverable
        # schedule must never *add* errors on top of them.
        assert summary["errors"] == summary["baseline_errors"]
