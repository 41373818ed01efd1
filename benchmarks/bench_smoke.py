"""Perf smoke — batched call forwarding counters (fast; tier-1 budget).

Unlike the figure benchmarks this target runs a miniature workload, so it
can gate every change: it applies the shared smoke gate
(:func:`repro.bench.smoke.assert_smoke_record`) and records the counters
to ``benchmarks/results/bench_smoke.json`` and ``BENCH_smoke.json``.
"""

import pytest

from repro.bench.smoke import assert_smoke_record, bench_smoke
from repro.tools.benchdiff import save_snapshot


@pytest.mark.benchmark(group="smoke")
def test_bench_smoke_counters(benchmark, record_saver):
    record = benchmark.pedantic(bench_smoke, rounds=1, iterations=1)
    record_saver(record)
    path = save_snapshot("smoke", record)
    print(f"[headline counters saved to {path}]")
    assert_smoke_record(record)
