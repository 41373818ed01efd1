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
stale and must be re-recorded, which way is better being per key
(:func:`improved`) (``PYTHONPATH=src python -m pytest benchmarks/bench_smoke.py
benchmarks/bench_osem.py benchmarks/bench_multiclient.py
benchmarks/bench_stream.py`` rewrites all four).

Used two ways:

* tier-1: ``tests/test_bench_regression.py`` and
  ``tests/test_bench_stream.py`` call :func:`check_snapshot` on the
  session's shared records;
* CLI: ``PYTHONPATH=src python -m repro.tools.benchdiff`` (or
  ``tools/benchdiff.py``) prints a report per snapshot and exits
  non-zero on violations.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.bench.harness import REPO_ROOT, ExperimentRecord
from repro.bench.multiclient import SCALES, bench_multiclient, multiclient_payload
from repro.bench.osem import bench_osem, osem_payload
from repro.bench.smoke import bench_smoke, smoke_payload
from repro.bench.stream import bench_stream, stream_payload

#: Compared keys -> relative tolerance.  Round trips are deterministic
#: integers (exact); byte counts tolerate small codec-level drift.  The
#: ``gather``/``mosi`` keys gate the download and peer-transfer
#: coalescing floors (the gathered mini Fig. 4); the ``readback`` keys
#: gate the result-read coalescing floor the same way (the
#: client-composed mini Fig. 4), together with the fused-group and
#: ``clFlush``-barrier counters; the relay counters of the batched run
#: are exact too, and so is its command census (batched commands, and
#: the buffer copies and event replicas its daemons created).
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
    "batched_commands_batched": 0.0,
    "buffers_created_batched": 0.0,
    "replicas_created_batched": 0.0,
    "bytes_sent_sync": 0.02,
    "bytes_sent_batched": 0.02,
}

#: OSEM-snapshot keys -> relative tolerance (``BENCH_osem.json``): the
#: steady-state iteration counters of the repeated-arg workload (batched
#: commands and daemon decode-cache hits), the program-build-cache
#: floors (setup round trips and the one-compile-per-cluster
#: repeat-setup phase) and the
#: push-transfer floor (steady-state iteration round trips with
#: predictive pushes on vs the ``push_transfers=False`` ablation cell,
#: plus the commit/waste tally) — all exact properties of the
#: deterministic simulation.
OSEM_TOLERANCES: Dict[str, float] = {
    "setup_round_trips": 0.0,
    "programs_built": 0.0,
    "iteration_round_trips": 0.0,
    "iteration_round_trips_push_off": 0.0,
    "push_commits": 0.0,
    "wasted_pushes": 0.0,
    "iteration_batched_commands": 0.0,
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


def improved(key: str, got: float, want: float) -> bool:
    """Whether ``key`` moving from ``want`` to ``got`` is better: higher
    for throughputs, cache hits, push commits and coalescing counters,
    closer to 1 for fairness ratios, lower for everything else."""
    if key.startswith("fairness_ratio"):
        return abs(got - 1.0) < abs(want - 1.0)
    if any(part in key for part in ("throughput_", "_hits", "push_commits", "coalesced_")):
        return got > want
    return got < want


class Snapshot(NamedTuple):
    """One committed ``BENCH_<name>.json``: the workload that produces
    its record, the record -> flat payload function, and the compared
    keys with their tolerances."""

    bench: Callable[[], ExperimentRecord]
    payload: Callable[[ExperimentRecord], Dict[str, object]]
    tolerances: Dict[str, float]


#: The one snapshot table: ``name`` -> :class:`Snapshot` for every
#: ``BENCH_<name>.json`` at the repo root (``tests/test_flag_matrix.py``
#: keeps the two sets equal).  Recording, loading, the tier-1 gate and
#: the CLI all go through it.
SNAPSHOTS: Dict[str, Snapshot] = {
    "smoke": Snapshot(bench_smoke, smoke_payload, DEFAULT_TOLERANCES),
    "osem": Snapshot(bench_osem, osem_payload, OSEM_TOLERANCES),
    "multiclient": Snapshot(
        bench_multiclient, multiclient_payload, MULTICLIENT_TOLERANCES
    ),
    "stream": Snapshot(bench_stream, stream_payload, STREAM_TOLERANCES),
}


def snapshot_path(name: str, directory: Optional[str] = None) -> str:
    """Path of ``BENCH_<name>.json`` (repo root by default)."""
    return os.path.join(directory or REPO_ROOT, f"BENCH_{name}.json")


def save_snapshot(
    name: str, record: ExperimentRecord, directory: Optional[str] = None
) -> str:
    """Write ``record``'s headline payload to ``BENCH_<name>.json`` (how
    ``benchmarks/bench_<name>.py`` re-records a snapshot); returns the
    path."""
    path = snapshot_path(name, directory)
    with open(path, "w") as fh:
        json.dump(SNAPSHOTS[name].payload(record), fh, indent=2)
    return path


def load_committed(name: str, directory: Optional[str] = None) -> Dict[str, object]:
    """The committed ``BENCH_<name>.json`` snapshot."""
    with open(snapshot_path(name, directory)) as fh:
        return json.load(fh)


def check_snapshot(name: str, record: ExperimentRecord) -> List[str]:
    """:func:`compare` ``record``'s payload against the committed
    ``BENCH_<name>.json`` under that snapshot's tolerances (the tier-1
    gate)."""
    snapshot = SNAPSHOTS[name]
    return compare(
        snapshot.payload(record),
        load_committed(name),
        snapshot.tolerances,
        snapshot=f"BENCH_{name}.json",
    )


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
    more than ``tolerance * committed`` in *either* direction — worse
    is a perf regression, better (:func:`improved`) a stale snapshot.
    A compared key missing from either payload is itself a violation:
    silently skipping it would let the floor rot."""
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
        better = improved(key, got, want)
        problems.append(
            f"{key}: {'improved' if better else 'regressed'} — fresh {got:g} "
            f"vs committed {want:g} (tolerance ±{tolerance:.0%}); "
            + (
                f"re-record {snapshot} to bank the improvement"
                if better
                else f"fix the regression or re-record {snapshot}"
            )
        )
    return problems


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
        "--committed-dir",
        default=REPO_ROOT,
        help="directory holding the committed BENCH_*.json snapshots "
        "(default: the repo root)",
    )
    args = parser.parse_args(argv)
    failed = False
    for name, snapshot in SNAPSHOTS.items():
        title = f"BENCH_{name}.json"
        fresh = snapshot.payload(snapshot.bench())
        committed = load_committed(name, args.committed_dir)
        problems = compare(fresh, committed, snapshot.tolerances, snapshot=title)
        print(format_report(fresh, committed, problems, title, snapshot.tolerances))
        print()
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
