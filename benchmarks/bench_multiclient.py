"""Perf smoke — multi-tenant contention sweep (fast; tier-1 budget).

The multi-client counterpart of ``bench_smoke``/``bench_osem``: 1, 8,
64 and 256 tenants share one GPU server, and the headline numbers
(aggregate throughput, p99 sync-point latency, device-group fairness
ratio, shared decode-cache hits) land in ``BENCH_multiclient.json``.
Applies the shared gate
(:func:`repro.bench.multiclient.assert_multiclient_record`).
"""

import pytest

from repro.bench.multiclient import assert_multiclient_record, bench_multiclient
from repro.tools.benchdiff import save_snapshot


@pytest.mark.benchmark(group="smoke")
def test_bench_multiclient_counters(benchmark, record_saver):
    record = benchmark.pedantic(bench_multiclient, rounds=1, iterations=1)
    record_saver(record)
    path = save_snapshot("multiclient", record)
    print(f"[headline counters saved to {path}]")
    assert_multiclient_record(record)
