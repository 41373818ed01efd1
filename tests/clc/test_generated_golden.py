"""A golden the code generator under test did not produce.

``generated_golden.json`` holds, for 300 programs of the PR 14
generator (``test_differential._Gen``: nested divergent loops, all three
exits, helper calls, atomics), what the vector backend of commit
``c344f3f`` — the parent of the block-charging rewrite of
``clc/codegen.py`` — charged and computed: ``sha256(source)``,
``ExecutionStats.ops`` and ``sha256(out ‖ bins)``, for one whole-range
launch and one in 4-lane chunks.  1 500 such programs agree with the
interpreter and across chunkings at that commit, so a difference here is
the generator's doing.

The source digest is checked first: editing ``_Gen`` moves the programs,
not the compiler, and the table must then be re-recorded *at the parent
commit* (``git clone`` it, then
``PYTHONPATH=<clone>/src python tests/clc/test_generated_golden.py``),
never from the code it is meant to judge.
"""

import hashlib
import json
import os
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # recording runs this file as a script

from test_differential import _CF_VARS, _Gen, _kernel  # noqa: E402

from repro.clc import compile_program, execute_kernel  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "generated_golden.json")
PROGRAMS = 300
LANES = (1, 2, 7, 8, 20, 33, 64)


def _program(seed):
    """``(source, lanes, a, b)`` of program ``seed``."""
    gen = _Gen(seed, exits=("break", "continue", "return"), calls=True, atomics=True)
    source = _kernel(gen.block(_CF_VARS, 3, False))
    draw = random.Random(seed ^ 0x5EED)
    return source, draw.choice(LANES), draw.randint(-5, 9), draw.randint(-5, 9)


def _measure(source, lanes, a, b):
    """``[ops, output digest]`` of the whole-range launch, then of the
    4-lane-chunk one."""
    kernel = compile_program(source).kernel("k")
    rows = []
    for kwargs in ({}, {"local_size": (1,), "max_lanes": 4}):
        out = np.full(lanes, -77, dtype=np.int32)
        bins = np.zeros(8, dtype=np.int32)
        stats = execute_kernel(kernel, (lanes,), [out, bins, a, b], **kwargs)
        rows.append([stats.ops, hashlib.sha256(out.tobytes() + bins.tobytes()).hexdigest()])
    return rows


def _source_digest(source):
    return hashlib.sha256(source.encode()).hexdigest()


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_table_is_complete():
    assert len(_golden()) == PROGRAMS


@pytest.mark.parametrize("first", range(0, PROGRAMS, 50))
def test_generated_programs_charge_and_compute_what_the_parent_did(first):
    golden = _golden()
    for seed in range(first, first + 50):
        source, lanes, a, b = _program(seed)
        entry = golden[seed]
        assert _source_digest(source) == entry["source"], (
            f"program {seed} changed: the generator was edited; re-record at the parent commit"
        )
        assert _measure(source, lanes, a, b) == entry["runs"], f"seed {seed}, {lanes} lanes:\n{source}"


if __name__ == "__main__":  # pragma: no cover - re-recording, at the parent commit only
    table = []
    for seed in range(PROGRAMS):
        source, lanes, a, b = _program(seed)
        table.append({"source": _source_digest(source), "runs": _measure(source, lanes, a, b)})
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(entry) for entry in table) + "\n]\n")
    print(f"recorded {len(table)} programs -> {GOLDEN_PATH}")
