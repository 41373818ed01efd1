"""Tier-1 wrapper for the call-forwarding perf smoke.

The figure benchmarks are too slow for the default test run; this smoke
target is not — it runs the miniature Fig. 4 workload and applies the
shared smoke gate, so the tier-1 suite catches regressions in round
trips or wire bytes.
"""

from repro.bench.smoke import assert_smoke_record


def test_smoke_round_trip_and_byte_counters(smoke_record):
    assert_smoke_record(smoke_record)


def test_client_and_daemon_command_census_agree(smoke_record):
    """On a clean run every batched sub-command a client sent is one a
    daemon dispatched: the per-class census (count and bytes) agrees
    class by class, and its counts sum to ``batched_commands``."""
    for row in smoke_record.select(variant="batched") + smoke_record.select(variant="sync"):
        assert row["sent"] == row["commands"]
        assert sum(count for count, _nbytes in row["sent"].values()) == row["batched_commands"]
    batched = smoke_record.select(variant="batched")[0]
    assert batched["sent"] and batched["objects"]["Buffer"][0] > 0
