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
from repro.core.client.reference import ReferenceDriver
from repro.core.client.resilience import RetryPolicy
from repro.core.daemon.admission import AdmissionPolicy
from repro.core.daemon.daemon import Daemon
from repro.core.devmgr.manager import DeviceManager
from repro.hw.cluster import Cluster
from repro.hw.node import Host
from repro.ocl.api import NativeAPI
from repro.sim.clock import VirtualClock
from repro.sim.timeline import Timeline


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

    def timelines(self) -> Dict[str, List[Timeline]]:
        """Every timeline the cluster and the deployment's processes own,
        by host name: NIC directions, PCIe bus, devices, and the CPU of
        each daemon, driver and device manager on the host."""
        by_host = {
            host.name: [host.nic.tx, host.nic.rx, host.pcie.timeline]
            + [device.timeline for device in host.devices]
            for host in self.cluster.hosts
        }
        managers = [self.device_manager] if self.device_manager is not None else []
        for process in [*self.daemons, *self.drivers, *managers]:
            by_host[process.gcf.host.name].append(process.gcf.cpu)
        return by_host

    def daemon_stats(self) -> Dict[str, float]:
        """Key-wise sum of every daemon's ``NetStats.snapshot()`` — the
        deployment-aggregate daemon-side counters the benches and the
        conformance invariants pick their keys from."""
        total: Dict[str, float] = {}
        for daemon in self.daemons:
            for key, value in daemon.gcf.stats.snapshot().items():
                total[key] = total.get(key, 0) + value
        return total

    def census(self) -> Dict[str, Dict[str, List[int]]]:
        """The daemons' command and object census, summed: ``commands``
        (class name -> ``[count, bytes]`` dispatched) and ``objects``
        (kind -> ``[created, named]``, see
        :class:`~repro.core.daemon.registry.Registry`).  A crashed
        daemon's registry died with it, so its objects count as dropped."""
        total: Dict[str, Dict[str, List[int]]] = {"commands": {}, "objects": {}}
        for daemon in self.daemons:
            for key, table in (
                ("commands", daemon.gcf.stats.commands),
                ("objects", daemon.registry.census),
            ):
                for name, (a, b) in table.items():
                    entry = total[key].setdefault(name, [0, 0])
                    entry[0] += a
                    entry[1] += b
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
) -> Deployment:
    """Install daemons on every server and client drivers on the client
    host(s).

    With ``managed=True`` a device manager is placed on the first server
    host, daemons start in managed mode, and each client driver gets the
    corresponding entry of ``devmgr_config_texts`` (paper Listing 3)
    instead of a server list.

    ``batch_window`` picks the forwarding side, once: **0** is the
    paper's synchronous reference path as a whole
    (:class:`~repro.core.client.reference.ReferenceDriver`); ``None``
    (the driver default) or a positive size runs the whole pipeline
    (:class:`~repro.core.client.driver.DOpenCLDriver`).  There is no
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

    Every daemon owns a content-addressed build cache (with sibling
    binary shipping); the pipeline's builds go through it, while the
    reference path compiles on every server every time.
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
        }
        if batch_window:
            kwargs["batch_window"] = batch_window
        if managed:
            kwargs["devmgr_config_text"] = (devmgr_config_texts or [])[i]
            kwargs["device_manager"] = manager
        elif client_server_lists is not None:
            kwargs["config_text"] = "\n".join(client_server_lists[i])
        else:
            kwargs["config_text"] = server_config_text(cluster)
        driver = (ReferenceDriver if batch_window == 0 else DOpenCLDriver)(
            host,
            cluster.network,
            directory=directory,
            coherence_protocol=coherence_protocol,
            **kwargs,
        )
        deployment.drivers.append(driver)
        deployment.apis.append(DOpenCLAPI(driver))
    # The cluster-wide clock floor (docs/architecture.md, Virtual time):
    # every timeline request descends from a client call made at or
    # after its client's clock, so none is ready before the slowest one.
    drivers = deployment.drivers
    for timelines in deployment.timelines().values():
        for timeline in timelines:
            timeline.attach_floor(lambda: min(driver.clock.now for driver in drivers))
    return deployment


def native_api_on(host: Host, workload_scale: float = 1.0, clock: Optional[VirtualClock] = None) -> NativeAPI:
    """A native (single-node) OpenCL installation on ``host``."""
    api = NativeAPI(host, clock=clock)
    api.workload_scale = workload_scale
    return api
