"""Deployment helpers: assemble clusters, daemons, drivers and managers.

Used by the examples, the integration tests and the benchmark harness to
stand up the paper's three testbeds with one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.client.api import DOpenCLAPI
from repro.core.client.connection import DaemonDirectory
from repro.core.client.driver import DOpenCLDriver
from repro.core.client.resilience import RetryPolicy
from repro.core.daemon.admission import AdmissionPolicy
from repro.core.daemon.daemon import Daemon
from repro.core.devmgr.manager import DeviceManager
from repro.hw.cluster import Cluster
from repro.hw.node import Host
from repro.ocl.api import NativeAPI
from repro.sim.clock import VirtualClock


@dataclass
class Deployment:
    """A running dOpenCL installation on a cluster."""

    cluster: Cluster
    daemons: List[Daemon]
    directory: DaemonDirectory
    device_manager: Optional[DeviceManager] = None
    drivers: List[DOpenCLDriver] = field(default_factory=list)
    apis: List[DOpenCLAPI] = field(default_factory=list)

    @property
    def api(self) -> DOpenCLAPI:
        return self.apis[0]

    @property
    def driver(self) -> DOpenCLDriver:
        return self.drivers[0]

    def daemon_on(self, host_name: str) -> Daemon:
        for daemon in self.daemons:
            if daemon.host.name == host_name:
                return daemon
        raise KeyError(host_name)

    def daemon_stats(self) -> Dict[str, float]:
        """Key-wise sum of every daemon's ``NetStats.snapshot()`` — the
        deployment-aggregate daemon-side counters the benches and the
        conformance invariants pick their keys from."""
        total: Dict[str, float] = {}
        for daemon in self.daemons:
            for key, value in daemon.gcf.stats.snapshot().items():
                total[key] = total.get(key, 0) + value
        return total


def server_config_text(cluster: Cluster) -> str:
    """A paper-Listing-2 style server list for all cluster servers."""
    lines = ["# dOpenCL server list (generated)"]
    lines.extend(server.name for server in cluster.servers)
    return "\n".join(lines)


def deploy_dopencl(
    cluster: Cluster,
    coherence_protocol: str = "msi",
    managed: bool = False,
    devmgr_strategy: str = "round_robin",
    devmgr_config_texts: Optional[List[str]] = None,
    workload_scale: float = 1.0,
    n_clients: int = 1,
    batch_window: Optional[int] = None,
    push_transfers: bool = True,
    defer_reads: bool = True,
    retry_policy: Optional[RetryPolicy] = None,
    client_server_lists: Optional[List[List[str]]] = None,
    admission: Optional[AdmissionPolicy] = None,
    program_cache: bool = True,
) -> Deployment:
    """Install daemons on every server and client drivers on the client
    host(s).

    With ``managed=True`` a device manager is placed on the first server
    host, daemons start in managed mode, and each client driver gets the
    corresponding entry of ``devmgr_config_texts`` (paper Listing 3)
    instead of a server list.

    ``batch_window`` is the one pipeline switch.  ``None`` keeps the
    driver default and any positive value sizes the send windows of the
    **whole** forwarding pipeline (deferred calls and creations,
    deferred/suppressed event relays, transfer coalescing in every
    direction, gang reads).  **Window 0 = reference path**: the paper's
    synchronous behaviour as a whole (Section III-B) — one round trip
    per forwarded call, synchronous creation fan-outs with the program
    source as a bulk stream, one synchronous relay per replica server,
    one stream per transfer, one fetch per blocking read.  There is no
    per-stage switch in between.  ``push_transfers`` toggles
    daemon-initiated predictive replication (PR 9) on every driver;
    ``False`` restores pure demand-driven coherence.  ``defer_reads``
    toggles window-deferred non-blocking reads on every driver (on, the
    default, a ``blocking=False`` read records a deferred fetch that
    rides the next relevant flush; ``False`` is the streaming-bench
    ablation that fetches eagerly at enqueue).

    ``retry_policy`` installs client-side transport resilience (a
    :class:`~repro.core.client.resilience.RetryPolicy`) on every driver;
    the default ``None`` keeps the exact pre-resilience transport path.

    ``client_server_lists`` gives each (non-managed) client its *own*
    server list — entry ``i`` is the list of server host names client
    ``i`` connects to, so multi-tenant deployments can pin clients to
    disjoint or overlapping daemon subsets.  The default ``None`` keeps
    every client on the full server set.  ``admission`` installs a
    per-daemon :class:`~repro.core.daemon.admission.AdmissionPolicy`
    (session cap, per-client registry quota, status-buffer bound) on
    every daemon.

    ``program_cache`` toggles the cluster-wide content-addressed build
    cache (client build records, daemon build caches, sibling binary
    shipping) on every daemon and driver; ``False`` is the ablation
    baseline that rebuilds from source everywhere.
    """
    manager = None
    if managed:
        manager = DeviceManager(
            cluster.servers[0], cluster.network, strategy=devmgr_strategy
        )
    daemons = []
    for server in cluster.servers:
        daemon = Daemon(
            server,
            cluster.network,
            device_manager=manager,
            admission=admission,
            program_cache=program_cache,
        )
        daemon.workload_scale = workload_scale
        daemon.start(0.0)
        daemons.append(daemon)
    # Daemons know their cluster siblings from startup (dOpenCL's node
    # file): the full peer mesh is wired here so the binary registry
    # ships builds cluster-wide even when no single client's context
    # spans two daemons (clients wire the same links incrementally as
    # they connect, which is too late for disjoint single-node tenants).
    for daemon in daemons:
        for peer in daemons:
            if peer is not daemon:
                daemon.peer_daemons[peer.name] = peer
    directory = DaemonDirectory.of(daemons)
    deployment = Deployment(
        cluster=cluster, daemons=daemons, directory=directory, device_manager=manager
    )
    client_hosts = [cluster.client, *cluster.extra_clients][:n_clients]
    if len(client_hosts) < n_clients:
        raise ValueError(f"cluster has only {len(client_hosts)} client hosts, need {n_clients}")
    for i, host in enumerate(client_hosts):
        kwargs = {
            "push_transfers": push_transfers,
            "defer_reads": defer_reads,
            "retry_policy": retry_policy,
            "program_cache": program_cache,
        }
        if batch_window is not None:
            kwargs["batch_window"] = batch_window
        if managed:
            kwargs["devmgr_config_text"] = (devmgr_config_texts or [])[i]
            kwargs["device_manager"] = manager
        elif client_server_lists is not None:
            kwargs["config_text"] = "\n".join(client_server_lists[i])
        else:
            kwargs["config_text"] = server_config_text(cluster)
        driver = DOpenCLDriver(
            host,
            cluster.network,
            directory=directory,
            coherence_protocol=coherence_protocol,
            **kwargs,
        )
        deployment.drivers.append(driver)
        deployment.apis.append(DOpenCLAPI(driver))
    return deployment


def native_api_on(host: Host, workload_scale: float = 1.0, clock: Optional[VirtualClock] = None) -> NativeAPI:
    """A native (single-node) OpenCL installation on ``host``."""
    api = NativeAPI(host, clock=clock)
    api.workload_scale = workload_scale
    return api
