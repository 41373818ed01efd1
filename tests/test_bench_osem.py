"""Tier-1 wrapper for the OSEM perf smoke.

Keeps the repeated-arg workload (``repro.bench.osem``) from rotting:
the mini Fig. 5 iterations must stay steady-state (constant round trips
and daemon decode-cache hits), predictive pushes must commit, and the
program build cache must hold its floors.
"""

from repro.bench.osem import assert_osem_record


def test_osem_steady_state_and_build_floors_hold(osem_record):
    assert_osem_record(osem_record)
