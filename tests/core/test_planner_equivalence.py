"""ISSUE-9 satellite: the planner refactor is transparent with pushes off.

PR 9 split the coherence layer into the pure protocol directories
(:mod:`repro.core.coherence.directory`) and the
:class:`~repro.core.coherence.planner.TransferPlanner` facade every
buffer stub now routes through.  The refactor's safety property is that
with ``push_transfers=False`` the planner is a *pure wrapper*: the
access-history bookkeeping it adds must never change a plan, a
directory transition, or a NetStats counter.  Two layers of proof:

* a lockstep property test drives a planner and a raw directory (the
  pre-refactor oracle) through the same randomized operation trace and
  compares every returned plan and the full directory state after every
  step;
* a run-level differential replays the tier-1 conformance seeds under
  the ``push_off`` configuration twice — once stock, once with the
  planner's bookkeeping stubbed down to raw directory calls — and
  asserts the complete outcome (reads, final bytes, directory state,
  errors, build logs *and the full NetStats snapshot*) is byte-identical.

Every assertion message carries the seed, so a failure replays exactly.
"""

import random

import pytest

from repro.bench.conformance import CONFIGS, generate_program, run_program
from repro.core.coherence.directory import (
    CLIENT,
    MOSIDirectory,
    MSIDirectory,
)
from repro.core.coherence.planner import TransferPlanner

#: Same seed range as the tier-1 conformance matrix.
SEEDS = range(24)

#: Steps per lockstep trace — long enough to visit every directory
#: transition (reads from every party, kernel and host writes,
#: evictions, aborted client fetches) many times over.
TRACE_STEPS = 120


def _lockstep_trace(seed: int, protocol):
    """Drive a planner and a raw directory through one random trace,
    comparing plans and state after every step."""
    rng = random.Random(seed)
    servers = [f"s{i}" for i in range(rng.randint(2, 4))]
    oracle = protocol(list(servers))
    planner = TransferPlanner(protocol(list(servers)))
    parties = servers + [CLIENT]
    tag = f"seed {seed} protocol {protocol.__name__}"
    for step in range(TRACE_STEPS):
        kind = rng.choices(
            ["read", "kernel_write", "host_write", "evict", "abort", "query"],
            weights=[5, 3, 2, 1, 1, 2],
        )[0]
        where = f"{tag} step {step} ({kind})"
        if kind == "read":
            party = rng.choice(parties)
            try:
                want = oracle.acquire_read(party)
                got = planner.acquire_read(party)
            except Exception as want_exc:  # data_lost raises identically
                with pytest.raises(type(want_exc)):
                    planner.acquire_read(party)
                continue
            assert got == want, f"{where}: plan diverged"
            # Interleave the pure observation calls: they must never
            # influence the next transition.
            planner.note_client_demand()
            planner.gang_candidate()
        elif kind == "kernel_write":
            party = rng.choice(servers)
            oracle.mark_modified(party)
            planner.note_kernel_write(party)
            planner.predict_push_target(party)
        elif kind == "host_write":
            party = rng.choice(parties)
            oracle.mark_modified(party)
            planner.note_host_write(party)
        elif kind == "evict":
            party = rng.choice(servers)
            assert planner.evict(party) == oracle.evict(party), (
                f"{where}: evicted-replica count diverged"
            )
        elif kind == "abort":
            oracle.abort_fetch(CLIENT, "test")
            planner.abort_fetch(CLIENT, "test")
        else:
            party = rng.choice(parties)
            assert planner.is_valid(party) == oracle.is_valid(party), where
        assert planner.state == oracle.state, f"{where}: directory state diverged"
        assert planner.data_lost == oracle.data_lost, f"{where}: data_lost diverged"
        if not planner.data_lost:
            assert (
                planner.client_download_source() == oracle.client_download_source()
            ), f"{where}: download source diverged"


@pytest.mark.parametrize("protocol", (MSIDirectory, MOSIDirectory))
@pytest.mark.parametrize("seed", SEEDS)
def test_planner_matches_raw_directory_in_lockstep(seed, protocol):
    """Every plan and every directory transition the planner produces is
    bit-identical to the raw pre-refactor directory, under both
    protocols, with the prediction/observation calls interleaved."""
    _lockstep_trace(seed, protocol)


def _raw_note_write(self, party, kernel):
    """The pre-refactor write path: protocol transition and epoch bump
    only, no history bookkeeping."""
    self.directory.mark_modified(party)
    self.epoch += 1
    return self.epoch


def test_push_off_seeds_match_pre_refactor_oracle():
    """The run-level differential proper: every tier-1 conformance seed
    under ``push_off``, stock vs the stripped-down planner, compared on
    the complete outcome dict (reads, final bytes, directories, errors,
    build logs and the full NetStats snapshot)."""
    stock = {
        seed: run_program(generate_program(seed), dict(CONFIGS["push_off"]))
        for seed in SEEDS
    }
    saved = (
        TransferPlanner.acquire_read,
        TransferPlanner.note_client_demand,
        TransferPlanner._note_write,
    )
    TransferPlanner.acquire_read = (
        lambda self, party: self.directory.acquire_read(party)
    )
    TransferPlanner.note_client_demand = lambda self: None
    TransferPlanner._note_write = _raw_note_write
    try:
        oracle = {
            seed: run_program(generate_program(seed), dict(CONFIGS["push_off"]))
            for seed in SEEDS
        }
    finally:
        (
            TransferPlanner.acquire_read,
            TransferPlanner.note_client_demand,
            TransferPlanner._note_write,
        ) = saved
    for seed in SEEDS:
        for key in ("reads", "final", "directories", "errors", "build_logs", "stats"):
            assert stock[seed][key] == oracle[seed][key], (
                f"seed {seed}: push_off {key} diverged from the "
                f"pre-refactor oracle"
            )
