"""Tier-1 wrapper for the double-buffered streaming overlap bench.

Runs the Mandelbrot-zoom stream three ways (pipelined deferred reads /
``defer_reads=False`` serial ablation / compute-only calibration) and
applies the shared stream gate: steady-state pipelined periods must sit
on the ``max(compute, transfer)`` bound while the serial ablation pays
the ``compute + transfer`` sum.  The fresh record also gates against the
committed ``BENCH_stream.json`` snapshot via
:mod:`repro.tools.benchdiff`, so overlap quietly rotting (or quietly
improving without a re-record) fails here.

Re-record with ``PYTHONPATH=src python -m pytest
benchmarks/bench_stream.py``.
"""

from repro.bench.stream import assert_stream_record
from repro.tools.benchdiff import check_snapshot


def test_stream_overlap_gate(stream_record):
    assert_stream_record(stream_record)


def test_fresh_stream_counters_match_committed_snapshot(stream_record):
    problems = check_snapshot("stream", stream_record)
    assert not problems, "bench counters drifted from BENCH_stream.json:\n" + "\n".join(
        problems
    )
