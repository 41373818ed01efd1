"""Tier-1 multi-client differential conformance matrix.

Runs the programs-of-programs oracle (``repro.bench.conformance``):
for every (seed, n_clients) cell, N generated client programs run
*interleaved* on shared daemons — disjoint or overlapping subsets,
seed-replayable schedule — and each client's observables (buffer bytes,
directory state, surfaced errors) must be bit-identical to the same
program run *solo* on an otherwise-idle deployment.  Any cross-tenant
bleed-through (registry collisions, window mixing, cache confusion,
status-buffer theft) breaks the equality.

The matrix here is the tier-1 slice (``SEEDS`` x ``CLIENT_COUNTS``); the
soak target is the CLI — ``PYTHONPATH=src python -m
repro.bench.conformance --clients 4 --seeds 500`` — which prints each
cell's seed so failures replay with ``--start <seed> --seeds 1``.
"""

import pytest

from repro.bench.conformance import (
    CONFIGS,
    MULTI_WATCHDOG_TRANSFERS,
    generate_multi_program,
    run_multi_program,
    run_multi_seed,
)

#: Tier-1 slice: seeds 0..11 at 2/4/8 tenants (36 cells, each multi run
#: differentially checked against n_clients solo runs).
SEEDS = range(12)
CLIENT_COUNTS = (2, 4, 8)


@pytest.mark.parametrize("n_clients", CLIENT_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_multi_client_run_matches_each_solo_run(seed, n_clients):
    summary = run_multi_seed(seed, n_clients)
    assert summary["seed"] == seed
    assert summary["n_clients"] == n_clients


#: Cells re-run with ``push_transfers=False``: daemon-initiated pushes
#: are a pure transport optimisation too, so the solo differential must
#: hold — and the ablation below must be observably identical — under
#: multi-tenant interleaving, where a push staged for one client must
#: never satisfy (or corrupt) another tenant's fetch.
PUSH_OFF_CELLS = ((1, 2), (6, 3), (10, 4))


@pytest.mark.parametrize("seed,n_clients", PUSH_OFF_CELLS)
def test_multi_client_differential_holds_with_push_off(seed, n_clients):
    summary = run_multi_seed(seed, n_clients, config="push_off")
    assert summary["seed"] == seed


@pytest.mark.parametrize("seed,n_clients", PUSH_OFF_CELLS)
def test_push_ablation_is_observably_identical(seed, n_clients):
    """ISSUE-9 satellite: speculative pushes never change observables
    under contention.  The same program-of-programs runs once with
    predictive pushes on and once with ``push_transfers=False``; every
    client's reads, final buffer bytes, directory state, errors and
    build logs must be bit-identical between the two deployments."""
    mspec = generate_multi_program(seed, n_clients)
    pushed, _ = run_multi_program(mspec, dict(CONFIGS["full"]))
    ablated, _ = run_multi_program(mspec, dict(CONFIGS["push_off"]))
    for ci, (on, off) in enumerate(zip(pushed, ablated)):
        for key in ("reads", "final", "directories", "errors", "build_logs"):
            assert on[key] == off[key], (
                f"seed {seed} clients {n_clients} client {ci}: push "
                f"ablation changed {key}"
            )


def test_multi_program_generation_is_seed_pure():
    """Satellite: replay identity across ``--start/--seeds`` paging.

    ``generate_multi_program`` derives every random draw from the
    ``(seed, n_clients)`` pair alone — no RNG state shared across seeds
    — so generating seed 7 inside any paging window yields the
    bit-identical program-of-programs."""
    alone = generate_multi_program(7, 4)
    paged = [generate_multi_program(s, 4) for s in range(5, 10)][2]
    assert alone == paged
    # And re-generation is idempotent (no hidden global state).
    assert generate_multi_program(7, 4) == alone


def test_multi_program_schedule_is_a_complete_interleave():
    """The schedule is a permutation of every client's op sequence:
    each client index appears exactly as often as it has ops, so the
    interleaved run applies every op exactly once."""
    mspec = generate_multi_program(3, 4)
    counts = {ci: 0 for ci in range(mspec["n_clients"])}
    for ci in mspec["schedule"]:
        counts[ci] += 1
    for ci, spec in enumerate(mspec["clients"]):
        assert counts[ci] == len(spec["ops"])
    # Every client's daemon subset addresses real servers.
    for subset in mspec["subsets"]:
        assert subset == sorted(set(subset))
        assert all(0 <= s < mspec["n_servers"] for s in subset)


def test_multi_runs_carry_a_transfer_watchdog():
    """Hangs must surface as WatchdogTimeout, not wall-clock stalls —
    the budget has to comfortably cover the largest tier-1 cell."""
    assert MULTI_WATCHDOG_TRANSFERS >= 100_000
