"""Tier-1 slice of the randomized differential conformance harness.

Each seed generates a small workload DAG (multi-queue kernels,
user-event gating, blocking/non-blocking transfers, producer->consumer
iteration loops, ``clFlush`` / ``clFinish``, a mid-run creation
failure, duplicate-source and failing program builds) and runs it
under the three configurations (sync oracle / full pipeline /
push-off ablation), asserting bit-identical buffer contents, identical
directory state, identical error behaviour, identical build logs and
the ``NetStats`` structural invariants (including the exact
build-cache algebra) — see :mod:`repro.bench.conformance`.  Every
assertion message carries the seed; reproduce a failure outside pytest
with ``PYTHONPATH=src python -m repro.bench.conformance --seed <n>``.
"""

import pytest

from repro.bench.conformance import CONFIGS, generate_program, run_seed

#: Tier-1 runs this many consecutive seeds (the ISSUE-5 acceptance
#: floor is 20); soak runs extend the range through the CLI.
TIER1_SEEDS = 24


@pytest.mark.parametrize("seed", range(TIER1_SEEDS))
def test_differential_conformance(seed):
    """All three configurations produce identical observable results.

    The ``push_off`` cell rides the same all-configs-vs-sync diff, so
    every seed here doubles as the ISSUE-9 proof that speculative
    pushes never change buffer bytes, directory state or errors."""
    summary = run_seed(seed)
    # The summary is the replay recipe: the harness really ran every
    # configuration of a non-trivial program.
    assert set(summary["round_trips"]) == set(CONFIGS)
    assert summary["n_ops"] > 0


def test_generator_is_deterministic():
    """The same seed always yields the same program spec — the property
    that makes a printed seed a complete reproduction recipe."""
    assert generate_program(1234) == generate_program(1234)
    assert generate_program(1234) != generate_program(1235)


def test_generator_covers_the_op_vocabulary():
    """Across the tier-1 seed range the generator exercises every op
    kind it advertises (kernels with user-event gates, both transfer
    directions, producer->consumer loops, flushes, finishes, creation
    failures, duplicate-source builds, failing builds) — a guard
    against the weights silently starving a path the suite claims to
    cover."""
    kinds = set()
    gated = False
    for seed in range(TIER1_SEEDS):
        for op in generate_program(seed)["ops"]:
            kinds.add(op[0])
            if op[0] == "kernel" and op[5] is not None:
                gated = True
    assert {
        "kernel", "write", "read", "read_nb", "flush", "finish",
        "user_event", "set_event", "bad_create", "build_dup", "build_bad",
        "loop",
    } <= kinds
    assert gated
