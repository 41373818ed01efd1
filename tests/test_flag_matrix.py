"""Guard against flag-matrix regrowth.

The forwarding pipeline has one switch (``batch_window``: 0 is the
paper's synchronous reference path, anything else the whole pipeline)
plus two genuinely two-sided ones.  The first is a choice of class made
once, at construction; no pipeline code asks which side it is on.  A new keyword argument on the
deployment or driver surface — or a new conformance configuration, a
second conformance executor, a snapshot outside the benchdiff table —
fails here until it is argued for.  So does a second way to talk to a
daemon: the client reaches GCF through one transport module.
"""

import ast
import glob
import inspect
import os
import re

import pytest

from repro.bench import conformance
from repro.core.client import api as client_api
from repro.core.client.driver import DOpenCLDriver
from repro.core.client.reference import ReferenceDriver
from repro.core.client.resilience import RetryPolicy
from repro.hw.cluster import make_ib_cpu_cluster
from repro.testbed import deploy_dopencl
from repro.tools.benchdiff import SNAPSHOTS, snapshot_path

PIPELINE_SWITCHES = {"batch_window", "push_transfers", "defer_reads"}

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


def test_conformance_runs_three_configurations():
    assert set(conformance.CONFIGS) == {"sync", "full", "push_off"}
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


def test_api_layer_talks_to_the_driver_only():
    """``core/client/api.py`` reaches daemons through the driver's
    public surface: no GCF endpoint, no private driver state."""
    with open(inspect.getsourcefile(client_api)) as fh:
        source = fh.read()
    assert ".gcf" not in source
    assert not re.search(r"driver\._", source)


#: Everything a ``GCFProcess`` sends with.
GCF_SENDS = {
    "request", "request_batch", "send_bulk", "fetch_bulk", "stream", "notify",
    "connect", "disconnect",
}

#: The driver functions allowed to use them directly.  Session
#: management talks to processes there is no ``ServerConnection`` for —
#: before the handshake finished, after teardown began, or the device
#: manager, which is no daemon — so there is nothing for the transport
#: to flush, retry against or declare dead.
SESSION_MANAGEMENT = {
    "connect_server", "disconnect_server", "_request_assignment", "release_lease",
}


def _gcf_send_sites(path):
    """``(outermost enclosing function, method)`` for every
    ``<...>.gcf.<send>(`` call in the module at ``path``."""
    sites = []

    class Visitor(ast.NodeVisitor):
        stack = []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in GCF_SENDS:
                receiver = func.value
                name = getattr(receiver, "attr", getattr(receiver, "id", None))
                if name == "gcf":
                    sites.append((self.stack[0], func.attr))
            self.generic_visit(node)

    with open(path) as fh:
        Visitor().visit(ast.parse(fh.read()))
    return sites


def test_one_way_to_talk_to_a_daemon():
    """Inside ``core/client/`` only the transport module
    (``resilience.py``) and the enumerated session-management functions
    send on a ``GCFProcess`` — and the package holds exactly one batch
    dispatcher."""
    package = os.path.dirname(inspect.getsourcefile(client_api))
    batch_dispatchers = 0
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        sites = _gcf_send_sites(path)
        batch_dispatchers += sum(method == "request_batch" for _, method in sites)
        if os.path.basename(path) != "resilience.py":
            assert {fn for fn, _ in sites} <= SESSION_MANAGEMENT, (path, sites)
    assert batch_dispatchers == 1


def test_reference_path_under_a_retry_policy_is_unrepresentable():
    """Window 0 sends single creation / enqueue requests with no replay
    identity; rather than retrying what is not replay-safe, the
    combination is rejected at construction.  ``None`` is the default
    window on both layers, so it runs the pipeline, retries included."""
    cluster = make_ib_cpu_cluster(1)
    with pytest.raises(ValueError, match="replay identity"):
        ReferenceDriver(cluster.client, cluster.network, retry_policy=RetryPolicy())
    with pytest.raises(ValueError, match="replay identity"):
        deploy_dopencl(cluster, batch_window=0, retry_policy=RetryPolicy())
    with pytest.raises(ValueError, match="ReferenceDriver"):
        DOpenCLDriver(cluster.client, cluster.network, batch_window=0)
    ReferenceDriver(cluster.client, cluster.network)
    for window in (None, 1):
        driver = DOpenCLDriver(
            cluster.client, cluster.network, batch_window=window, retry_policy=RetryPolicy()
        )
        assert type(driver) is DOpenCLDriver
    deployment = deploy_dopencl(cluster, batch_window=None, retry_policy=RetryPolicy())
    assert type(deployment.driver) is DOpenCLDriver
    assert (
        DOpenCLDriver(cluster.client, cluster.network, batch_window=None).window_size
        == deployment.driver.window_size
    )


def _batch_window_reads(path):
    """The outermost enclosing ``Class.function`` (or ``function``) of
    every read of a name or attribute ``batch_window`` in the module at
    ``path``."""
    sites = []

    class Visitor(ast.NodeVisitor):
        stack = []

        def visit_ClassDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        visit_FunctionDef = visit_ClassDef

        def visit_Name(self, node):
            if node.id == "batch_window" and isinstance(node.ctx, ast.Load):
                sites.append(".".join(self.stack[:2]))

        def visit_Attribute(self, node):
            if node.attr == "batch_window" and isinstance(node.ctx, ast.Load):
                sites.append(".".join(self.stack[:2]))
            self.generic_visit(node)

    with open(path) as fh:
        Visitor().visit(ast.parse(fh.read()))
    return sites


def test_one_forwarder_per_side():
    """The side is chosen once: ``deploy_dopencl`` constructs either the
    pipeline (``DOpenCLDriver``) or the reference path
    (``ReferenceDriver``).  Inside ``core/client/`` only the reference
    module and the pipeline constructor that sizes the send window read
    ``batch_window`` — no pipeline operation tests for window 0 — and no
    module of ``repro`` asks a driver whether it batches."""
    package = os.path.dirname(inspect.getsourcefile(client_api))
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) != "reference.py":
            assert set(_batch_window_reads(path)) <= {"DOpenCLDriver.__init__"}, path
    root = os.path.dirname(os.path.dirname(package))
    for path in glob.glob(os.path.join(root, "**", "*.py"), recursive=True):
        with open(path) as fh:
            assert "batching_enabled" not in fh.read(), path


def _bulk_exchange_sites(path):
    """The ``receiver.method`` of every bulk exchange called in the module
    at ``path``: ``<...>.send_bulk(`` on anything but a ``GCFProcess``
    (the transport's own send, which :func:`test_one_way_to_talk_to_a_daemon`
    guards) and ``<...>.transport.upload(`` / ``<...>.transport.fetch(``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            name = getattr(receiver, "attr", getattr(receiver, "id", None))
            if (node.func.attr == "send_bulk" and name != "gcf") or (
                node.func.attr in ("upload", "fetch") and name == "transport"
            ):
                sites.append(f"{name}.{node.func.attr}")
    return sites


def test_the_pipeline_makes_no_bulk_exchange():
    """Host writes and coherence uploads ride the send window as
    sections, and downloads ride batches: inside ``core/client/`` only
    the reference module calls ``send_bulk``, ``transport.upload`` or
    ``transport.fetch``, and the pipeline driver defines no
    ``send_bulk``."""
    package = os.path.dirname(inspect.getsourcefile(client_api))
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) != "reference.py":
            assert not _bulk_exchange_sites(path), path
    assert _bulk_exchange_sites(os.path.join(package, "reference.py"))
    assert not hasattr(DOpenCLDriver, "send_bulk")
