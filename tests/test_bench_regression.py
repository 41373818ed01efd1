"""Tier-1 benchmark regression gate (the benchdiff checker).

The simulation is deterministic, so the counters committed in
``BENCH_smoke.json`` are exact properties of the code.  This test
re-runs the smoke workload and diffs the fresh counters against the
committed snapshot via :mod:`repro.tools.benchdiff`: a change that
quietly costs round trips or bytes — or quietly improves them without
re-recording the snapshot — fails here instead of rotting the floor.

Re-record with ``PYTHONPATH=src python -m pytest benchmarks/bench_smoke.py
benchmarks/bench_osem.py benchmarks/bench_multiclient.py``.  The fresh
records come from the shared
session fixtures (``tests/conftest.py``) — the same runs the gate tests
validate — so the expensive workloads execute once per suite.
"""

from repro.tools.benchdiff import DEFAULT_TOLERANCES, check_snapshot, compare


def test_fresh_smoke_counters_match_committed_snapshot(smoke_record):
    problems = check_snapshot("smoke", smoke_record)
    assert not problems, "bench counters drifted from BENCH_smoke.json:\n" + "\n".join(
        problems
    )


def test_fresh_osem_counters_match_committed_snapshot(osem_record):
    problems = check_snapshot("osem", osem_record)
    assert not problems, "bench counters drifted from BENCH_osem.json:\n" + "\n".join(
        problems
    )


def test_fresh_multiclient_counters_match_committed_snapshot(multiclient_record):
    problems = check_snapshot("multiclient", multiclient_record)
    assert not problems, (
        "bench counters drifted from BENCH_multiclient.json:\n" + "\n".join(problems)
    )


def test_compare_flags_regressions_and_stale_snapshots():
    """The checker itself works, in both directions and on missing keys."""
    committed = {key: 100 for key in DEFAULT_TOLERANCES}
    assert compare(dict(committed), committed) == []
    worse = dict(committed, round_trips_batched=101)
    assert any("regressed" in p for p in compare(worse, committed))
    better = dict(committed, round_trips_batched=99)
    assert any("improved" in p for p in compare(better, committed))
    # Byte keys tolerate small drift but not large.
    jitter = dict(committed, bytes_sent_batched=101)
    assert compare(jitter, committed) == []
    blowup = dict(committed, bytes_sent_batched=110)
    assert any("bytes_sent_batched" in p for p in compare(blowup, committed))
    missing = {k: v for k, v in committed.items() if k != "round_trips_sync"}
    assert any("missing" in p for p in compare(dict(committed), missing))
