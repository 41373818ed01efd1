"""Guard against flag-matrix regrowth.

The forwarding pipeline has one switch (``batch_window``: 0 is the
paper's synchronous reference path, anything else the whole pipeline)
plus three genuinely two-sided ones.  A new keyword argument on the
deployment or driver surface — or a new conformance configuration —
fails here until it is argued for.
"""

import inspect

from repro.bench import conformance
from repro.core.client.driver import DOpenCLDriver
from repro.testbed import deploy_dopencl

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
