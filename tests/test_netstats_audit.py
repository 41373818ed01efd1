"""CI audit: every ``NetStats`` counter is held by at least one test.

A counter nobody asserts on is a counter free to rot: it can silently
stop incrementing (or double-count) without any suite noticing, and the
benchmarks built on top of it inherit the lie.  This audit walks
``NetStats.__slots__`` and requires every field name to appear in at
least one test file (``tests/**``) or in the conformance harness's
structural-invariant checks (``repro.bench.conformance``, which tier-1
executes on every seed).  Adding a counter without a structural
invariant for it fails here by construction.

The scan is textual on purpose: an attribute reference, a snapshot-key
assertion and a tolerance-table entry all count, because each of them
makes a test fail when the counter drifts.
"""

import os

from repro.bench.harness import REPO_ROOT
from repro.net.gcf import NetStats

#: Files outside ``tests/`` whose counter references still gate tier-1:
#: the conformance harness runs its structural invariants inside the
#: tier-1 differential tests, and the benchdiff tolerance tables pin
#: snapshot keys derived 1:1 from counters.
EXTRA_GATED_FILES = (
    os.path.join("src", "repro", "bench", "conformance.py"),
    os.path.join("src", "repro", "tools", "benchdiff.py"),
)


def _gated_sources():
    """Concatenated text of every file whose assertions gate tier-1."""
    chunks = []
    tests_root = os.path.join(REPO_ROOT, "tests")
    for dirpath, _dirnames, filenames in os.walk(tests_root):
        for filename in filenames:
            if filename.endswith(".py") and filename != "test_netstats_audit.py":
                with open(os.path.join(dirpath, filename)) as fh:
                    chunks.append(fh.read())
    for rel in EXTRA_GATED_FILES:
        with open(os.path.join(REPO_ROOT, rel)) as fh:
            chunks.append(fh.read())
    return "\n".join(chunks)


def test_every_netstats_counter_is_referenced_by_a_gating_test():
    corpus = _gated_sources()
    unreferenced = [
        name for name in NetStats.__slots__ if name not in corpus
    ]
    assert not unreferenced, (
        "NetStats counters without any gating test/invariant reference: "
        f"{unreferenced} — add a structural-invariant assertion before "
        "shipping a new counter"
    )


def test_snapshot_covers_every_slot_plus_round_trips():
    """The snapshot dict (what conformance and the benches assert on)
    exposes every counter exactly once, plus the derived round_trips."""
    snapshot = NetStats().snapshot()
    assert set(snapshot) == set(NetStats.COUNTERS) | {"round_trips"}
    assert all(v == 0 for v in snapshot.values())


def test_the_kernel_counters_count_what_launches_carry():
    """``kernels_created_on_launch`` / ``folded_kernel_args`` (snapshot
    keys) are the creations and ``[index, value]`` entries the windowed
    launches of a drawn conformance program carry."""
    from repro.bench.conformance import ProgramRun, generate_program
    from repro.core.protocol import messages as P
    from repro.hw.cluster import make_ib_cpu_cluster
    from repro.testbed import deploy_dopencl

    spec = generate_program(0)
    deployment = deploy_dopencl(make_ib_cpu_cluster(spec["n_servers"]))
    driver, carried = deployment.driver, [0, 0]
    defer = driver.defer

    def spy(conn, msg, *args, **kwargs):
        if isinstance(msg, P.EnqueueKernelRequest):
            carried[0] += msg.program_id is not None
            carried[1] += len(msg.args or ())
        return defer(conn, msg, *args, **kwargs)

    driver.defer = spy
    ProgramRun.execute(deployment.api, spec)
    snapshot = driver.stats.snapshot()
    assert carried[0] > 0 and carried[1] > carried[0]
    assert [snapshot["kernels_created_on_launch"], snapshot["folded_kernel_args"]] == carried
