"""Golden digests of the conformance harness's *semantic* outcomes.

``repro.bench.conformance`` checks the pipeline against itself (every
configuration vs ``sync``, every tenant vs its solo run, every faulted
run vs its fault-free twin), so a refactor of the harness's executor
that changed what *all* sides observe would pass every differential
test.  The table below pins the observable slice of each outcome —
``reads``, ``final``, ``directories``, ``errors``, ``build_logs`` (plus
``lost`` where the runner reports it) and ``stats["round_trips"]`` — as
a sha256 (first 16 hex digits) captured at commit ``69d9626`` (PR 15,
the parent of the one-executor refactor), before any harness code
changed.  It must pass unmodified across harness refactors; a pipeline
change that moves a round-trip count re-records the affected rows and
says why: the rows whose round trips fell when ``clFinish`` started
riding its daemon's batch were re-recorded, their semantic slices
unchanged.  So were the rows whose round trips moved when
``clCreateKernel`` / ``clSetKernelArg`` stopped sending and a launch
started carrying what its daemon lacks (each row's slice without
``round_trips`` identical before and after).  Round trips before →
after, as full/cache_off/push_off for the solo rows, per tenant for
the multi rows:

* ``solo:0`` 102/117/105 → 90/105/91;
* ``solo:1`` 13/17/13 → 12/16/12;
* ``solo:3`` 21/25/21 → 20/24/20;
* ``solo:4`` 21/33/21 → 21/32/21;
* ``solo:5`` 31/48/30 → 32/48/31, the one rise: no capacity flush
  fires in its ``build_dup`` op any more, so a later targeted flush
  reaches one more window and a relay goes out in a second pass;
* ``solo:6`` 38/42/38 → 36/40/36;
* ``solo:7`` 56/62/54 → 54/60/52;
* ``multi:0:2`` 10/68 → 10/58;
* ``multi:0:4`` 57/20/13/10 → 49/16/12/10;
* ``fault:0:sever-push`` 146 → 124.

The ``cache_off`` configuration (the middle number above) and its
eight rows went with the ``program_cache`` option; no other row moved.

Re-recorded again when buffer copies and event replicas went on demand
(a copy exists where a command used the buffer, a replica where a
command waited on the unresolved event), each slice without
``round_trips`` identical before and after except the crash cell's.
Round trips before → after, as full/push_off for the solo rows (the
``sync`` rows keep the eager objects and did not move):

* ``solo:0`` 90/91 → 46/47;
* ``solo:1`` 12/12 → 10/10;
* ``solo:2`` 26/26 → 23/23;
* ``solo:3`` 20/20 → 17/17;
* ``solo:4`` 21/21 → 17/17;
* ``solo:5`` 32/31 → 25/24;
* ``solo:6`` 36/36 → 25/25;
* ``solo:7`` 54/52 → 33/31;
* ``multi:0:2`` 10/58 → 10/39 (the first tenant's row did not move);
* ``multi:0:4`` 49/16/12/10 → 30/14/11/9;
* ``fault:0:sever-push`` 124 → 64, ``fault:0:sever-fetch`` 17 → 14;
* ``fault:0:crash`` 10 → 12, the one rise, with a moved slice: the
  schedule crashes node01 at the second ``CommandBatch``, and with the
  replica and creation batches gone that batch comes later in the
  program.  Op 1's launch on node01 now runs (buffer 2 ends Owned
  there), the two ``build_bad`` ops fail with their own build error
  instead of the daemon loss, and the loss surfaces from op 4 on —
  still deterministic and daemon-loss class, as the unrecoverable
  schedule requires.

Re-recorded again when host writes started riding the send window
(their bytes streamed behind the batch) and a ``clFinish`` whose drain
sent its daemon nothing started answering locally when the client
already held the queue's last completion.  Every slice without
``round_trips`` is identical before and after, the ``sync`` rows did
not move, and no round-trip count rose.  Round trips before → after,
as full/push_off for the solo rows:

* ``solo:0`` 46/47 → 41/42;
* ``solo:1`` 10/10 → 8/8;
* ``solo:2`` 23/23 → 21/21;
* ``solo:3`` 17/17 → 13/13;
* ``solo:4`` 17/17 → 16/16;
* ``solo:5`` 25/24 → 21/20;
* ``solo:6`` 25/25 → 22/22;
* ``solo:7`` 33/31 → 25/23;
* ``multi:0:2`` 10/39 → 9/37;
* ``multi:0:4`` 30/14/11/9 → 30/14/11/8;
* ``fault:0:crash`` 12 → 10, ``fault:0:sever-push`` 64 → 59,
  ``fault:0:sever-fetch`` 14 → 12.

Re-recorded again when a read's download started riding the batch that
drains its producers (and pending deferred reads started riding
``clFinish``'s drain): a download that used to be its own fetch round
trip now rides a batch.  Every slice without ``round_trips`` is
identical before and after, the ``sync`` rows did not move, and no
round-trip count rose.  Round trips before → after, as full/push_off
for the solo rows:

* ``solo:0`` 41/42 → 40/41;
* ``solo:2`` 21/21 → 18/18;
* ``solo:3`` 13/13 → 12/12;
* ``solo:4`` 16/16 → 15/15;
* ``solo:5`` 21/20 → 20/19;
* ``solo:6`` 22/22 → 21/21;
* ``solo:7`` 25/23 → 23/21;
* ``multi:0:2`` 9/37 → 8/35;
* ``multi:0:4`` 30/14/11/8 → 29/13/11/8;
* ``fault:0:crash`` 10 → 9, ``fault:0:sever-push`` 59 → 57,
  ``fault:0:sever-fetch`` 12 → 10.

Re-recorded again when coherence uploads started riding the send window
as host writes (a ``BufferDataUpload`` behind the copy's creation, its
bytes a section behind the batch) instead of a ``CoalescedBufferUpload``
init round trip plus a stream.  Every slice without ``round_trips`` is
identical before and after except the crash cell's, the ``sync`` rows
did not move, and no round-trip count rose.  Round trips before →
after, as full/push_off for the solo rows:

* ``solo:0`` 40/41 → 36/37;
* ``solo:1`` 8/8 → 7/7;
* ``solo:2`` 18/18 → 10/10;
* ``solo:3`` 12/12 → 9/9;
* ``solo:4`` 15/15 → 11/11;
* ``solo:5`` 20/19 → 13/12;
* ``solo:6`` 21/21 → 15/15;
* ``solo:7`` 23/21 → 18/16;
* ``multi:0:2`` 8/35 → 4/24;
* ``multi:0:4`` 29/13/11/8 → 25/10/7/4;
* ``fault:0:sever-push`` 57 → 53, ``fault:0:sever-fetch`` 10 → 6;
* ``fault:0:crash`` 9 → 8, with a moved slice: the schedule crashes
  node01 at the second ``CommandBatch``, which now is the batch carrying
  op 1's launch (its upload no longer flushes the window ahead of it),
  so that launch never runs.  The loss surfaces from op 6 on instead of
  op 4: ops 4 and 5 now succeed, op 7's read through node01 fails, and
  one closing ``clFinish`` fails where two did.  Op 6's hop of buffer 2
  out of the dead node01 fails, and a failed transfer now rolls back
  the copies its plans had not moved (``_abort_unmoved``), so buffer 2's
  only copy is gone: it is reported ``lost`` and its final read raises
  the daemon loss (without that rollback the directory credited node00
  with a copy it never received, and the read returned its zeros).
  Still deterministic and daemon-loss class, as the unrecoverable
  schedule requires.

Re-print the table with ``PYTHONPATH=src python
tests/core/test_conformance_golden.py``.
"""

import hashlib

import pytest

from repro.bench.conformance import (
    CONFIGS,
    deferred_read_fault_spec,
    fault_plan,
    generate_multi_program,
    generate_program,
    push_fault_spec,
    run_multi_program,
    run_program,
    run_program_resilient,
)

SEMANTIC_KEYS = ("reads", "final", "directories", "errors", "build_logs", "lost")


def _canon(obj) -> str:
    """Type-tagged text form of an outcome value (dicts in sorted key
    order, so insertion order never matters)."""
    if isinstance(obj, dict):
        items = sorted((repr(k), _canon(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return type(obj).__name__ + "[" + ",".join(_canon(x) for x in obj) + "]"
    if isinstance(obj, bytes):
        return "b" + obj.hex()
    return repr(obj)


def digest(outcome) -> str:
    """sha256 of the semantic slice of one outcome dict."""
    semantic = {key: outcome[key] for key in SEMANTIC_KEYS if key in outcome}
    semantic["round_trips"] = outcome["stats"]["round_trips"]
    return hashlib.sha256(_canon(semantic).encode()).hexdigest()[:16]


#: schedule -> spec builder of the three pinned fault cells (seed 0):
#: one unrecoverable schedule on the generated program and the two
#: forced programs of the push and deferred-fetch schedules.
FAULT_CELLS = {
    "crash": generate_program,
    "sever-push": push_fault_spec,
    "sever-fetch": deferred_read_fault_spec,
}

SOLO_SEEDS = range(8)
MULTI_CELLS = ((0, 2), (0, 4))

#: Captured at 69d9626; later re-recordings are in the module docstring.
GOLDEN = {
    "solo:0:sync": "8db8ed0f57625b33",
    "solo:0:full": "7f7526d2b15157bd",
    "solo:0:push_off": "7aa7ede27bd9f038",
    "solo:1:sync": "43b9d5b3c281d46a",
    "solo:1:full": "32cf3a5669521ba9",
    "solo:1:push_off": "32cf3a5669521ba9",
    "solo:2:sync": "2d8efa92172fcf79",
    "solo:2:full": "8d6a8363125eafb6",
    "solo:2:push_off": "8d6a8363125eafb6",
    "solo:3:sync": "ba52d62ce8886c7d",
    "solo:3:full": "6fe58102c9eb7556",
    "solo:3:push_off": "6fe58102c9eb7556",
    "solo:4:sync": "440f8877b238c965",
    "solo:4:full": "3cd6d330efbab386",
    "solo:4:push_off": "3cd6d330efbab386",
    "solo:5:sync": "2fcfa8fda9cd9b6f",
    "solo:5:full": "0b39f63f9066e619",
    "solo:5:push_off": "e21faa9b1ec160f3",
    "solo:6:sync": "4e4e47d3540fb645",
    "solo:6:full": "cd2ea9259a35d564",
    "solo:6:push_off": "cd2ea9259a35d564",
    "solo:7:sync": "a75d0e0f325e4767",
    "solo:7:full": "2fb9f4665a94ab70",
    "solo:7:push_off": "f28628800c34ef86",
    "multi:0:2": ["8c1e583ee6becc46", "af05d181905b9143"],
    "multi:0:4": [
        "289f0dba704e85fe", "7392734a8724af24",
        "6fa30929dd0bd16f", "c7bb1711826fcf71",
    ],
    "fault:0:crash": "3b761da0f61d10cc",
    "fault:0:sever-push": "5e87a956842f5b4f",
    "fault:0:sever-fetch": "36b1c325b8eea1f5",
}


def _solo(seed, config):
    return digest(run_program(generate_program(seed), dict(CONFIGS[config])))


def _multi(seed, n_clients):
    outcomes, _deployment = run_multi_program(
        generate_multi_program(seed, n_clients), dict(CONFIGS["full"])
    )
    return [digest(outcome) for outcome in outcomes]


def _fault(schedule):
    spec = FAULT_CELLS[schedule](0)
    return digest(
        run_program_resilient(spec, dict(CONFIGS["full"]), fault_plan(schedule))
    )


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("seed", SOLO_SEEDS)
def test_solo_outcome_digest(seed, config):
    assert _solo(seed, config) == GOLDEN[f"solo:{seed}:{config}"]


@pytest.mark.parametrize("seed,n_clients", MULTI_CELLS)
def test_multi_client_outcome_digests(seed, n_clients):
    assert _multi(seed, n_clients) == GOLDEN[f"multi:{seed}:{n_clients}"]


@pytest.mark.parametrize("schedule", list(FAULT_CELLS))
def test_fault_cell_outcome_digest(schedule):
    assert _fault(schedule) == GOLDEN[f"fault:0:{schedule}"]


if __name__ == "__main__":  # pragma: no cover - golden table printer
    table = {}
    for seed in SOLO_SEEDS:
        for config in CONFIGS:
            table[f"solo:{seed}:{config}"] = _solo(seed, config)
    for seed, n_clients in MULTI_CELLS:
        table[f"multi:{seed}:{n_clients}"] = _multi(seed, n_clients)
    for schedule in FAULT_CELLS:
        table[f"fault:0:{schedule}"] = _fault(schedule)
    print("GOLDEN = {")
    for key, value in table.items():
        print(f"    {key!r}: {value!r},")
    print("}")
