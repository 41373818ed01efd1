"""Perf smoke — OSEM reply-cache payoff (fast; tier-1 budget).

The repeated-arg counterpart of ``bench_smoke``: list-mode OSEM re-binds
identical kernel arguments every subset of every iteration, so the
daemon reply/decode caches answer nearly all of its steady-state command
traffic.  Applies the shared gate
(:func:`repro.bench.osem.assert_osem_record`) and records the headline
counters to ``benchmarks/results/bench_osem.json`` and ``BENCH_osem.json``.
"""

import pytest

from repro.bench.osem import assert_osem_record, bench_osem
from repro.tools.benchdiff import save_snapshot


@pytest.mark.benchmark(group="smoke")
def test_bench_osem_counters(benchmark, record_saver):
    record = benchmark.pedantic(bench_osem, rounds=1, iterations=1)
    record_saver(record)
    path = save_snapshot("osem", record)
    print(f"[headline counters saved to {path}]")
    assert_osem_record(record)
