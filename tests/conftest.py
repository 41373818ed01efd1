"""Shared tier-1 fixtures.

The benchmark workloads are deterministic, so each record of the
snapshot table (``repro.tools.benchdiff.SNAPSHOTS``: smoke, OSEM,
multiclient, stream) is computed once per session as the
``<name>_record`` fixture and shared between the gate tests
(``test_bench_smoke.py`` / ``test_bench_osem.py`` /
``test_bench_multiclient.py`` / ``test_bench_stream.py``) and the
benchdiff regression tests (``test_bench_regression.py``) — running the
most expensive workloads in the suite twice would buy nothing.
"""

import pytest

from repro.tools.benchdiff import SNAPSHOTS


def _record_fixture(name):
    @pytest.fixture(scope="session", name=f"{name}_record")
    def record():
        return SNAPSHOTS[name].bench()

    record.__doc__ = f"One shared run of the ``BENCH_{name}.json`` workload."
    return record


globals().update({f"{name}_record": _record_fixture(name) for name in SNAPSHOTS})
