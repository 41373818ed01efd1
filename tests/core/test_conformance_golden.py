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

Re-recorded again when a blocking read became a non-blocking read
resolved at once, with one fold rule for both: a read's download rides
the drain of its closure when no failure is stashed and its wait list
already reached the client, and — for a non-blocking read — its
in-order predecessor too, unless the download rides the read's own
queue on the daemon it downloads from (the daemon then orders the
download behind the queue's chain).  The one moved slice has that
cause: a non-blocking read resolved before its queue predecessor (a
kernel) reached the client used to drain, wait that kernel out and
download in a round trip of its own, and now costs what the blocking
read costs.  Every slice without ``round_trips`` is identical before
and after, the ``sync`` rows did not move, and no round-trip count
rose.  Round trips before → after:

* ``fault:0:sever-fetch`` 6 → 4 (op 1's wait and op 3's ``clFinish``).

Re-recorded again when the reference path (``batch_window=0``) stopped
relaying the completion of an internal transfer event (a coherence
upload or download) to every other server of the context: such an
event holds no user-event replica, so each of those synchronous
``SetUserEventStatusRequest`` posts named an id no daemon had created.
Only the ``sync`` rows moved; every slice without ``round_trips`` is
identical before and after, and no round-trip count rose.  Round trips
before → after:

* ``solo:0:sync`` 399 → 385, ``solo:1:sync`` 44 → 42,
  ``solo:2:sync`` 120 → 109, ``solo:3:sync`` 73 → 67;
* ``solo:4:sync`` 72 → 68, ``solo:5:sync`` 194 → 180,
  ``solo:6:sync`` 170 → 160, ``solo:7:sync`` 303 → 281.

Re-recorded again when a push stopped going from server to server: a
MOSI edge whose consumers are servers only predicts no push, so the
consumer's hop takes the demand route (``BufferPeerTransferBatch``)
where a committed peer push used to ride its window for free.  The
two moved rows are the two that committed a peer push.  Their slices
without ``round_trips`` are identical before and after, and no other
row moved.  The ``fault:0:sever-push`` cell went with its schedule.
Round trips before → after:

* ``solo:0:full`` 36 → 37 (now equal to ``solo:0:push_off``);
* ``multi:0:4`` 25/10/7/4 → 26/10/7/4.

Re-recorded again when a MOSI hop started closing its source's batch
(``BufferPeerTransferBatch`` declared ``closes_batch``): a hop whose
source window holds commands rides that batch instead of costing a
round trip of its own.  Every moved solo and multi row's slice without
``round_trips`` is identical before and after; round trips before →
after:

* ``solo:0:full`` / ``solo:0:push_off`` 37 → 35;
* ``solo:5:full`` 13 → 11, ``solo:5:push_off`` 12 → 10;
* ``solo:6:full`` / ``solo:6:push_off`` 15 → 14;
* ``multi:0:4`` 26/10/7/4 → 25/9/7/4.

``fault:0:crash`` moved with its slice: the schedule crashes node01 at
the second batch tagged ``CommandBatch``, and the batch that now
carries the program's first hop is tagged
``CommandBatch+BufferPeerTransferBatch`` (what the ``drop-request``
schedule addresses), so the crash comes one batch later in the
program.  Round trips 8 → 10; one launch fewer fails
(``CL_DEVICE_NOT_AVAILABLE``), buffer 2 survives Owned on node01 and
is read, and no buffer is lost.

Re-recorded again when a blocking read stopped consulting the client's
demand history for its gang: it gangs its source's stranded siblings
whenever it downloads its own bytes, and nothing when a push serves it,
with pushes on and off alike.  The two moved rows are ``full`` rows
whose closing readback dropped a sibling a pushes-on gate judged out of
the client's access pattern; each now equals its ``push_off`` row.
Their slices without ``round_trips`` are identical before and after,
and no other row moved.  Round trips before → after:

* ``solo:5:full`` 11 → 10;
* ``solo:7:full`` 18 → 16.

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


#: schedule -> spec builder of the pinned fault cells (seed 0): one
#: unrecoverable schedule on the generated program and the forced
#: program of the deferred-fetch schedule.
FAULT_CELLS = {
    "crash": generate_program,
    "sever-fetch": deferred_read_fault_spec,
}

SOLO_SEEDS = range(8)
MULTI_CELLS = ((0, 2), (0, 4))

#: Captured at 69d9626; later re-recordings are in the module docstring.
GOLDEN = {
    "solo:0:sync": "ba193a8f4c34751c",
    "solo:0:full": "238c9c1196ebd476",
    "solo:0:push_off": "238c9c1196ebd476",
    "solo:1:sync": "aa246bf378c688c3",
    "solo:1:full": "32cf3a5669521ba9",
    "solo:1:push_off": "32cf3a5669521ba9",
    "solo:2:sync": "cd1457e5cc447074",
    "solo:2:full": "8d6a8363125eafb6",
    "solo:2:push_off": "8d6a8363125eafb6",
    "solo:3:sync": "621a40151ea99bc4",
    "solo:3:full": "6fe58102c9eb7556",
    "solo:3:push_off": "6fe58102c9eb7556",
    "solo:4:sync": "f2d2358d6996da4f",
    "solo:4:full": "3cd6d330efbab386",
    "solo:4:push_off": "3cd6d330efbab386",
    "solo:5:sync": "948892255d916130",
    "solo:5:full": "c37fc8a7a8153d0f",
    "solo:5:push_off": "c37fc8a7a8153d0f",
    "solo:6:sync": "537ae95f851c8124",
    "solo:6:full": "b03fadb3ac092845",
    "solo:6:push_off": "b03fadb3ac092845",
    "solo:7:sync": "4b49a2f732fd3d34",
    "solo:7:full": "f28628800c34ef86",
    "solo:7:push_off": "f28628800c34ef86",
    "multi:0:2": ["8c1e583ee6becc46", "af05d181905b9143"],
    "multi:0:4": [
        "289f0dba704e85fe", "ee13be1edef37d61",
        "6fa30929dd0bd16f", "c7bb1711826fcf71",
    ],
    "fault:0:crash": "7b57b888d1bb0df9",
    "fault:0:sever-fetch": "5bc3cf70ddc4f4f2",
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
