"""Benchmark regression checker: fresh smoke runs vs committed snapshots.

``BENCH_smoke.json``, ``BENCH_osem.json``, ``BENCH_multiclient.json``
and ``BENCH_stream.json`` (repo root) record the forwarding pipeline's
headline counters — round trips, wire bytes, cache hits, the
multi-tenant throughput/latency/fairness numbers and the
double-buffered streaming overlap periods.  The simulation is
deterministic, so those counters are exact properties of the code: any
drift is a real change, not noise.  This tool re-runs the smoke
benchmarks and *diffs* the fresh counters against the committed
snapshots, so a change that quietly costs round trips or bytes (or
quietly improves them without re-recording the snapshot) fails loudly
instead of rotting the perf floor.

Round-trip and cache-hit counters are compared exactly by default; byte
counters get a small relative tolerance (codec-level changes
legitimately move a few header bytes).  Both directions are violations:
*worse* means a regression, *better* means the committed snapshot is
stale and must be re-recorded
(``PYTHONPATH=src python -m pytest benchmarks/bench_smoke.py
benchmarks/bench_osem.py benchmarks/bench_multiclient.py
benchmarks/bench_stream.py`` rewrites all four).

Used two ways:

* tier-1: ``tests/test_bench_regression.py`` calls :func:`compare`
  against the committed files;
* CLI: ``PYTHONPATH=src python -m repro.tools.benchdiff`` (or
  ``tools/benchdiff.py``) prints a report per snapshot and exits
  non-zero on violations.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import REPO_ROOT

#: Compared keys -> relative tolerance.  Round trips are deterministic
#: integers (exact); byte counts tolerate small codec-level drift.  The
#: ``gather``/``mosi`` keys gate the download and peer-transfer
#: coalescing floors (the gathered mini Fig. 4); the ``readback`` keys
#: gate the result-read coalescing floor the same way (the
#: client-composed mini Fig. 4), together with the fused-group and
#: ``clFlush``-barrier counters; the relay and reply-cache counters of
#: the batched run are exact too.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "round_trips_sync": 0.0,
    "round_trips_batched": 0.0,
    "round_trips_gather": 0.0,
    "round_trips_mosi": 0.0,
    "round_trips_readback": 0.0,
    "round_trips_readback_mosi": 0.0,
    "coalesced_downloads": 0.0,
    "coalesced_peer_transfers": 0.0,
    "coalesced_reads": 0.0,
    "coalesced_read_sections": 0.0,
    "flush_barriers": 0.0,
    "relays_deferred": 0.0,
    "relays_suppressed": 0.0,
    "reply_cache_hits": 0.0,
    "bytes_sent_sync": 0.02,
    "bytes_sent_batched": 0.02,
}

#: OSEM-snapshot keys -> relative tolerance (``BENCH_osem.json``): the
#: reply-cache payoff counters of the repeated-arg workload, the
#: program-build-cache floors (the cache-on/cache-off setup ablation
#: pair and the one-compile-per-cluster repeat-setup phase) and the
#: push-transfer floor (steady-state iteration round trips with
#: predictive pushes on vs the ``push_transfers=False`` ablation cell,
#: plus the commit/waste tally) — all exact properties of the
#: deterministic simulation.
OSEM_TOLERANCES: Dict[str, float] = {
    "setup_round_trips": 0.0,
    "setup_round_trips_cache_off": 0.0,
    "programs_built": 0.0,
    "iteration_round_trips": 0.0,
    "iteration_round_trips_push_off": 0.0,
    "push_commits": 0.0,
    "wasted_pushes": 0.0,
    "iteration_batched_commands": 0.0,
    "iteration_reply_cache_hits": 0.0,
    "iteration_decode_cache_hits": 0.0,
    "cluster_programs_built": 0.0,
    "cluster_binaries_shipped": 0.0,
    "cluster_build_cache_hits": 0.0,
}


def _multiclient_tolerances() -> Dict[str, float]:
    """Multiclient-snapshot keys -> tolerance: every per-scale headline
    number (throughput, p99 sync latency, device-group fairness ratio,
    shared decode-cache hits and the one-compile-per-fleet build-cache
    counters at 1/8/64/256 tenants) is an exact property of the
    deterministic simulation, so all keys gate at 0.0."""
    from repro.bench.multiclient import SCALES

    keys = {}
    for n in SCALES:
        keys[f"throughput_{n}"] = 0.0
        keys[f"p99_sync_latency_{n}"] = 0.0
        keys[f"fairness_ratio_{n}"] = 0.0
        keys[f"decode_cache_hits_{n}"] = 0.0
        keys[f"programs_built_{n}"] = 0.0
        keys[f"build_cache_hits_{n}"] = 0.0
    return keys


#: See :func:`_multiclient_tolerances` (``BENCH_multiclient.json``).
MULTICLIENT_TOLERANCES: Dict[str, float] = _multiclient_tolerances()

#: Stream-snapshot keys -> relative tolerance (``BENCH_stream.json``):
#: the double-buffered deferred-read overlap numbers.  The round-trip
#: and deferred-read counters are exact; the virtual-time periods get a
#: small relative tolerance (legitimate codec/header-size changes move
#: wire durations by fractions of a percent) and the derived
#: pipelined:serial ratio a slightly wider one.
STREAM_TOLERANCES: Dict[str, float] = {
    "steady_period_pipelined": 0.02,
    "steady_period_serial": 0.02,
    "steady_period_compute_only": 0.02,
    "transfer_period": 0.05,
    "makespan_pipelined": 0.02,
    "makespan_serial": 0.02,
    "pipelined_ratio": 0.05,
    "round_trips_pipelined": 0.0,
    "round_trips_serial": 0.0,
    "deferred_reads": 0.0,
    "deferred_read_batches": 0.0,
}

COMMITTED_PATH = os.path.join(REPO_ROOT, "BENCH_smoke.json")
OSEM_COMMITTED_PATH = os.path.join(REPO_ROOT, "BENCH_osem.json")
MULTICLIENT_COMMITTED_PATH = os.path.join(REPO_ROOT, "BENCH_multiclient.json")
STREAM_COMMITTED_PATH = os.path.join(REPO_ROOT, "BENCH_stream.json")


def load_committed(path: Optional[str] = None) -> Dict[str, object]:
    """The committed benchmark snapshot (``BENCH_smoke.json``)."""
    with open(path or COMMITTED_PATH) as fh:
        return json.load(fh)


def compare(
    fresh: Dict[str, object],
    committed: Dict[str, object],
    tolerances: Optional[Dict[str, float]] = None,
    snapshot: str = "BENCH_smoke.json",
) -> List[str]:
    """Diff a fresh smoke payload against the committed snapshot.

    Returns human-readable violation strings (empty list = clean); each
    names ``snapshot`` so the remedy points at the right file.  A key
    is violated when the fresh value differs from the committed one by
    more than ``tolerance * committed`` in *either* direction — higher
    is a perf regression, lower is a stale snapshot (see module
    docstring).  A compared key missing from either payload is itself a
    violation: silently skipping it would let the floor rot."""
    problems: List[str] = []
    for key, tolerance in (tolerances or DEFAULT_TOLERANCES).items():
        if key not in committed:
            problems.append(
                f"{key}: missing from committed {snapshot} (re-record it)"
            )
            continue
        if key not in fresh:
            problems.append(f"{key}: missing from fresh run payload")
            continue
        want = float(committed[key])
        got = float(fresh[key])
        allowed = abs(want) * tolerance
        if abs(got - want) <= allowed:
            continue
        direction = "regressed" if got > want else "improved"
        problems.append(
            f"{key}: {direction} — fresh {got:g} vs committed {want:g} "
            f"(tolerance ±{tolerance:.0%}); "
            + (
                f"fix the regression or re-record {snapshot}"
                if got > want
                else f"re-record {snapshot} to bank the improvement"
            )
        )
    return problems


def run_fresh() -> Dict[str, object]:
    """Run the smoke benchmark and return its headline payload."""
    from repro.bench.smoke import bench_smoke, smoke_payload

    return smoke_payload(bench_smoke())


def run_fresh_osem() -> Dict[str, object]:
    """Run the OSEM benchmark and return its headline payload (the dict
    :func:`repro.bench.osem.save_osem_json` would write)."""
    from repro.bench.osem import bench_osem, osem_payload

    return osem_payload(bench_osem())


def run_fresh_multiclient() -> Dict[str, object]:
    """Run the multi-tenant contention sweep and return its headline
    payload (the dict :func:`repro.bench.multiclient.save_multiclient_json`
    would write)."""
    from repro.bench.multiclient import bench_multiclient, multiclient_payload

    return multiclient_payload(bench_multiclient())


def run_fresh_stream() -> Dict[str, object]:
    """Run the streaming overlap benchmark and return its headline
    payload (the dict :func:`repro.bench.stream.save_stream_json`
    would write)."""
    from repro.bench.stream import bench_stream, stream_payload

    return stream_payload(bench_stream())


def format_report(
    fresh: Dict[str, object],
    committed: Dict[str, object],
    problems: List[str],
    title: str = "BENCH_smoke.json",
    tolerances: Optional[Dict[str, float]] = None,
) -> str:
    """A human-readable diff table plus the verdict."""
    lines = [f"benchdiff: fresh run vs committed {title}", ""]
    lines.append(f"{'key':28} {'committed':>12} {'fresh':>12}")
    for key in tolerances or DEFAULT_TOLERANCES:
        lines.append(
            f"{key:28} {str(committed.get(key, '?')):>12} {str(fresh.get(key, '?')):>12}"
        )
    lines.append("")
    if problems:
        lines.append("VIOLATIONS:")
        lines.extend(f"  - {p}" for p in problems)
    else:
        lines.append("OK: counters match the committed snapshot.")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--committed",
        default=COMMITTED_PATH,
        help="path of the committed smoke snapshot (default: repo-root BENCH_smoke.json)",
    )
    parser.add_argument(
        "--committed-osem",
        default=OSEM_COMMITTED_PATH,
        help="path of the committed OSEM snapshot (default: repo-root BENCH_osem.json)",
    )
    parser.add_argument(
        "--committed-multiclient",
        default=MULTICLIENT_COMMITTED_PATH,
        help=(
            "path of the committed multi-tenant snapshot "
            "(default: repo-root BENCH_multiclient.json)"
        ),
    )
    parser.add_argument(
        "--committed-stream",
        default=STREAM_COMMITTED_PATH,
        help=(
            "path of the committed streaming-overlap snapshot "
            "(default: repo-root BENCH_stream.json)"
        ),
    )
    args = parser.parse_args(argv)
    failed = False
    for title, path, tolerances, runner in (
        ("BENCH_smoke.json", args.committed, DEFAULT_TOLERANCES, run_fresh),
        ("BENCH_osem.json", args.committed_osem, OSEM_TOLERANCES, run_fresh_osem),
        (
            "BENCH_multiclient.json",
            args.committed_multiclient,
            MULTICLIENT_TOLERANCES,
            run_fresh_multiclient,
        ),
        (
            "BENCH_stream.json",
            args.committed_stream,
            STREAM_TOLERANCES,
            run_fresh_stream,
        ),
    ):
        committed = load_committed(path)
        fresh = runner()
        problems = compare(fresh, committed, tolerances, snapshot=title)
        print(format_report(fresh, committed, problems, title, tolerances))
        print()
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
