"""Streaming bench — double-buffered deferred-read overlap (tier-1 budget).

Runs the Mandelbrot zoom three ways (pipelined / serial ablation /
compute-only calibration), applies the shared stream gate
(:func:`repro.bench.stream.assert_stream_record`) and records the
headline numbers to ``benchmarks/results/bench_stream.json`` and
``BENCH_stream.json``.
"""

import pytest

from repro.bench.stream import assert_stream_record, bench_stream
from repro.tools.benchdiff import save_snapshot


@pytest.mark.benchmark(group="stream")
def test_bench_stream_overlap(benchmark, record_saver):
    record = benchmark.pedantic(bench_stream, rounds=1, iterations=1)
    record_saver(record)
    path = save_snapshot("stream", record)
    print(f"[headline numbers saved to {path}]")
    assert_stream_record(record)
