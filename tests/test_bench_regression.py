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

import json
import shutil

import pytest

from repro.tools import benchdiff
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


@pytest.mark.parametrize(
    "key, committed, better, worse",
    [
        ("round_trips_batched", 24, 23, 25),  # lower is better
        ("throughput_8", 462.0, 463.0, 461.0),  # higher is better
        ("decode_cache_hits_8", 134, 165, 133),  # higher is better
        ("fairness_ratio_8", 1.08, 0.95, 1.2),  # closer to 1 is better
    ],
)
def test_compare_labels_each_key_by_its_direction(key, committed, better, worse):
    """A move towards a key's better side is an improvement to bank, a
    move away from it a regression to fix — at the same tolerance."""
    tolerances = {key: 0.0}
    (banked,) = compare({key: better}, {key: committed}, tolerances)
    assert banked.startswith(f"{key}: improved") and "bank the improvement" in banked
    (fix,) = compare({key: worse}, {key: committed}, tolerances)
    assert fix.startswith(f"{key}: regressed") and "fix the regression" in fix
    assert compare({key: better}, {key: committed}, {key: 1.0}) == []


@pytest.fixture
def committed_copy(tmp_path, monkeypatch, request):
    """The committed snapshots copied to ``tmp_path``, with the CLI's
    workloads answered by the session's shared records."""
    for name, snapshot in benchdiff.SNAPSHOTS.items():
        shutil.copy(benchdiff.snapshot_path(name), tmp_path)
        record = request.getfixturevalue(f"{name}_record")
        monkeypatch.setitem(
            benchdiff.SNAPSHOTS, name, snapshot._replace(bench=lambda record=record: record)
        )
    return str(tmp_path)


def test_cli_passes_on_the_committed_snapshots(committed_copy, capsys):
    assert benchdiff.main(["--committed-dir", committed_copy]) == 0
    report = capsys.readouterr().out
    assert report.count("OK: counters match the committed snapshot.") == len(benchdiff.SNAPSHOTS)


def test_save_snapshot_writes_what_load_committed_reads(smoke_record, tmp_path):
    """How ``benchmarks/bench_<name>.py`` re-records: the file lands in
    the given directory and reads back as the record's payload, which
    matches the committed snapshot."""
    path = benchdiff.save_snapshot("smoke", smoke_record, str(tmp_path))
    assert path == benchdiff.snapshot_path("smoke", str(tmp_path)) and path.startswith(str(tmp_path))
    saved = benchdiff.load_committed("smoke", str(tmp_path))
    assert saved == json.loads(json.dumps(benchdiff.SNAPSHOTS["smoke"].payload(smoke_record)))
    assert compare(saved, benchdiff.load_committed("smoke")) == []


def test_cli_fails_and_names_a_perturbed_key(committed_copy, capsys):
    committed = benchdiff.load_committed("osem", committed_copy)
    committed["iteration_decode_cache_hits"] += 1
    with open(benchdiff.snapshot_path("osem", committed_copy), "w") as fh:
        json.dump(committed, fh)
    assert benchdiff.main(["--committed-dir", committed_copy]) == 1
    violations = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  - ")]
    assert len(violations) == 1
    assert "iteration_decode_cache_hits" in violations[0]
    assert "BENCH_osem.json" in violations[0]
