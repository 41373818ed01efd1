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
says why.

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

#: Captured at 69d9626 (see the module docstring).
GOLDEN = {
    "solo:0:sync": "8db8ed0f57625b33",
    "solo:0:full": "bf92569186bc2b0c",
    "solo:0:cache_off": "95eb6829b387ebf7",
    "solo:0:push_off": "c30236a0ee057214",
    "solo:1:sync": "43b9d5b3c281d46a",
    "solo:1:full": "566474a2ec4d5ca0",
    "solo:1:cache_off": "46ce25dfca97c7f7",
    "solo:1:push_off": "566474a2ec4d5ca0",
    "solo:2:sync": "2d8efa92172fcf79",
    "solo:2:full": "0cc8d06893d16a87",
    "solo:2:cache_off": "51000deb9c641f34",
    "solo:2:push_off": "0cc8d06893d16a87",
    "solo:3:sync": "ba52d62ce8886c7d",
    "solo:3:full": "42ecd82d6d2f1260",
    "solo:3:cache_off": "aabaf87940afec9b",
    "solo:3:push_off": "42ecd82d6d2f1260",
    "solo:4:sync": "440f8877b238c965",
    "solo:4:full": "85e60abbe0272d96",
    "solo:4:cache_off": "5d023bad74297dae",
    "solo:4:push_off": "85e60abbe0272d96",
    "solo:5:sync": "2fcfa8fda9cd9b6f",
    "solo:5:full": "e4594d90f40aefc9",
    "solo:5:cache_off": "74fff56e482c3e7c",
    "solo:5:push_off": "f4e3028e5150329e",
    "solo:6:sync": "4e4e47d3540fb645",
    "solo:6:full": "32dffd9a9fc2ec9f",
    "solo:6:cache_off": "4974e0eeff22fd1c",
    "solo:6:push_off": "32dffd9a9fc2ec9f",
    "solo:7:sync": "a75d0e0f325e4767",
    "solo:7:full": "b65adbf2e9ca2639",
    "solo:7:cache_off": "9f568a541da11ce0",
    "solo:7:push_off": "8b32d4cac7d70968",
    "multi:0:2": ["527305c7bd7269dc", "5b46fba7bb5ac8cc"],
    "multi:0:4": [
        "49976d28d6df7d08", "5596c7fe8e81f3fd", "0779036bc3dbcd2b",
        "82be87632073945c",
    ],
    "fault:0:crash": "a8faeb9577b6f807",
    "fault:0:sever-push": "3efb6cc2bed02e9f",
    "fault:0:sever-fetch": "4ee46129fd31dfef",
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
