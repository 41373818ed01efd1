"""Guard against flag-matrix regrowth.

The forwarding pipeline has one switch (``batch_window``: 0 is the
paper's synchronous reference path, anything else the whole pipeline)
plus three genuinely two-sided ones.  A new keyword argument on the
deployment or driver surface — or a new conformance configuration, a
second conformance executor, a snapshot outside the benchdiff table —
fails here until it is argued for.
"""

import glob
import inspect
import os

from repro.bench import conformance
from repro.core.client.driver import DOpenCLDriver
from repro.testbed import deploy_dopencl
from repro.tools.benchdiff import SNAPSHOTS, snapshot_path

PIPELINE_SWITCHES = {"batch_window", "push_transfers", "defer_reads", "program_cache"}

#: Keyword arguments that describe the deployment (topology, protocol,
#: tenancy, resilience), not the forwarding pipeline.
DEPLOYMENT_ARGS = {
    "cluster", "coherence_protocol", "managed", "devmgr_strategy",
    "devmgr_config_texts", "workload_scale", "n_clients", "retry_policy",
    "client_server_lists", "admission",
}
DRIVER_ARGS = {
    "self", "host", "network", "directory", "clock", "config_text",
    "devmgr_config_text", "device_manager", "coherence_protocol", "name",
    "retry_policy",
}


def _params(fn):
    return set(inspect.signature(fn).parameters)


def test_deploy_dopencl_pipeline_switches():
    assert _params(deploy_dopencl) - DEPLOYMENT_ARGS == PIPELINE_SWITCHES


def test_driver_pipeline_switches():
    assert _params(DOpenCLDriver.__init__) - DRIVER_ARGS == PIPELINE_SWITCHES


def test_conformance_runs_four_configurations():
    assert set(conformance.CONFIGS) == {"sync", "full", "cache_off", "push_off"}
    used = set().union(*(flags for flags in conformance.CONFIGS.values()))
    assert used <= PIPELINE_SWITCHES


def test_conformance_has_one_program_executor():
    """Every conformance runner (differential, multi-client, faulted)
    drives the one ``ProgramRun``; a second set-up path shows up as a
    second ``clCreateContext(`` call site in the harness."""
    with open(inspect.getsourcefile(conformance)) as fh:
        assert fh.read().count("clCreateContext(") == 1


def test_snapshot_table_names_the_committed_snapshots():
    """``benchdiff.SNAPSHOTS`` is the one list of ``BENCH_*.json``
    files: a snapshot at the repo root that the table does not gate (or
    a row with no committed file) fails here."""
    committed = {os.path.basename(p) for p in glob.glob(snapshot_path("*"))}
    assert committed == {f"BENCH_{name}.json" for name in SNAPSHOTS}
