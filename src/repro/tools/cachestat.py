"""A ``cachestat`` inspector for the per-daemon program build caches.

Renders, for every daemon of a deployment, the content-addressed build
cache (:mod:`repro.core.daemon.buildcache`): each entry's short source
digest, build options, kind (``binary`` / ``negative``), shipping size
and hit count, plus the daemon's build counters and the resulting
cache-hit ratio.  The first thing an operator runs when asking "is the
cluster really compiling each program once?".

Since PR 9 the dump also covers the coherence layer: each daemon's
**replica residency** (how many live buffers hold a valid copy on that
daemon, by directory state — computed from the clients' coherence
directories, which are the authoritative replica map) and its
**push-protocol tallies** (executed pushes, pushed bytes, replicas
still staged awaiting a commit), followed by a deployment-wide push
summary with the hit/waste ratios
(``push_commits / speculative_pushes`` and
``wasted_pushes / speculative_pushes``), one line per client (round
trips and the three kernel/fold counters) and one per host on its timelines: live
reservations, horizon and reservations pruned so far
(:mod:`repro.sim.timeline`, "Pruning behind a floor").  The command
census closes each daemon's and each client's block: batched
sub-commands per message class (count and bytes — dispatched on a
daemon, sent by a client) and, per daemon, the objects of each kind its
registry created and how many of those any command ever named.  A
``storage:`` line counts the lent buffer storages and copy-on-write copies.

Works against any object exposing ``daemons`` (a
:class:`~repro.testbed.Deployment`) or directly against an iterable of
daemons (residency and the push summary need the deployment's drivers,
so they are skipped for a bare iterable).  Run the demo CLI with
``python -m repro.tools.cachestat``: it stands up a small cluster, has
two tenants build the same source, and dumps the caches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.ocl.memory import LentStorage


def _hit_ratio(stats) -> float:
    """Cache answers per build resolution: ``(positive + negative hits)
    / (compiles + hits)``; 0.0 before any build was resolved."""
    hits = stats.build_cache_hits + stats.negative_build_hits
    total = stats.programs_built + hits
    return (hits / total) if total else 0.0


def _entry_line(entry) -> str:
    options = entry.options if entry.options else "(none)"
    return (
        f"    {entry.digest[:12]}  {entry.kind:<8} options={options:<16} "
        f"{entry.nbytes:>6} B  hits={entry.hits}"
    )


def replica_residency(deployment) -> Dict[str, Dict[str, int]]:
    """Per-daemon replica residency: ``daemon name -> {directory-state
    letter -> live buffers in that state on the daemon}``, aggregated
    over every driver's live (unreleased) buffers.  The client rows ride
    along under the reserved party name ``client``."""
    residency: Dict[str, Dict[str, int]] = {}
    for driver in getattr(deployment, "drivers", []):
        for context in driver.contexts:
            for buffer in context.live_buffers:
                if buffer.released:
                    continue
                for party, state in buffer.planner.state.items():
                    per_state = residency.setdefault(party, {})
                    letter = state.value
                    per_state[letter] = per_state.get(letter, 0) + 1
    return residency


def push_summary(deployment) -> Dict[str, object]:
    """Deployment-wide push-protocol verdict: the client-side
    hint/commit/waste tally (summed over drivers), the daemon-side
    execution totals, and the derived hit/waste ratios."""
    drivers = deployment.drivers
    daemons = deployment.daemon_stats()
    speculative = sum(d.stats.speculative_pushes for d in drivers)
    commits = sum(d.stats.push_commits for d in drivers)
    wasted = sum(d.stats.wasted_pushes for d in drivers)
    return {
        "speculative_pushes": speculative,
        "push_commits": commits,
        "wasted_pushes": wasted,
        "daemon_pushes": daemons["daemon_pushes"],
        "push_bytes": daemons["push_bytes"],
        "hit_ratio": (commits / speculative) if speculative else 0.0,
        "waste_ratio": (wasted / speculative) if speculative else 0.0,
    }


def _residency_line(per_state: Dict[str, int]) -> str:
    total = sum(per_state.values())
    resident = sum(
        count for letter, count in per_state.items() if letter != "I"
    )
    by_state = " ".join(
        f"{letter}={per_state[letter]}" for letter in sorted(per_state)
    )
    return f"{by_state} (valid {resident}/{total})"


def _census_lines(stats, registry=None) -> List[str]:
    """The command census of one process (``commands: Class=count/bytes``,
    by class name) and, for a daemon, its registry's object census
    (``objects: Kind=created/named``)."""
    lines = []
    if stats.commands:
        lines.append("  commands: " + " ".join(
            f"{name}={count}/{nbytes}B"
            for name, (count, nbytes) in sorted(stats.commands.items())
        ))
    if registry is not None and registry.census:
        lines.append("  objects: " + " ".join(
            f"{kind}={created}/{named}"
            for kind, (created, named) in sorted(registry.census.items())
        ))
    return lines


def _storage_line(copies: Iterable) -> str:
    """Lent storages and copy-on-write copies among ``copies``."""
    copies = [c for c in copies if isinstance(c, LentStorage)]
    return (f"  storage: lent={sum(c.lent for c in copies)} "
            f"cow_copies={sum(c.cow_copies for c in copies)}")


def _timeline_line(host: str, timelines) -> str:
    """One host's timelines: live reservations, the latest horizon any
    of them pruned to, and the reservations pruned so far."""
    horizon = max(tl.horizon for tl in timelines)
    shown = f"{horizon:.6f}s" if horizon > float("-inf") else "none"
    return (
        f"Timelines {host}: live={sum(len(tl) for tl in timelines)} "
        f"horizon={shown} pruned={sum(tl.pruned for tl in timelines)}"
    )


def cachestat_text(deployment) -> str:
    """Render the build-cache state of every daemon in ``deployment``
    (a testbed ``Deployment`` or any iterable of daemons), plus — when
    given a deployment — per-daemon replica residency, push tallies and
    the deployment-wide push summary."""
    daemons: Iterable = getattr(deployment, "daemons", deployment)
    residency = replica_residency(deployment)
    clients = [drv.gcf.name for drv in getattr(deployment, "drivers", [])]
    lines: List[str] = []
    for daemon in daemons:
        stats = daemon.gcf.stats
        lines.append(f"Daemon {daemon.name}:")
        per_state = residency.get(daemon.name)
        if per_state:
            lines.append(f"  replicas: {_residency_line(per_state)}")
        staged = sum(daemon.staged_pushes(client) for client in clients)
        if stats.daemon_pushes or staged:
            lines.append(
                f"  pushes: executed={stats.daemon_pushes} "
                f"bytes={stats.push_bytes} staged_pending={staged}"
            )
        cache = daemon.buildcache
        lines.append(
            f"  build cache: {len(cache)}/{cache.capacity} entries, "
            f"{cache.evictions} evictions"
        )
        lines.append(
            f"  builds: compiled={stats.programs_built} "
            f"cache_hits={stats.build_cache_hits} "
            f"negative_hits={stats.negative_build_hits} "
            f"binaries_shipped={stats.binaries_shipped}"
        )
        lines.append(
            f"  hit ratio: {_hit_ratio(stats):.2f}  "
            f"build seconds saved: {stats.build_seconds_saved:.3f}"
        )
        lines.append(_storage_line(daemon.registry.objects()))
        lines.extend(_census_lines(stats, daemon.registry))
        entries = cache.entries()
        if entries:
            lines.append("  entries (LRU -> MRU):")
            lines.extend(_entry_line(entry) for entry in entries)
        else:
            lines.append("  entries: (empty)")
        lines.append("")
    client_row = residency.get("client")
    if client_row:
        lines.append(f"Client replicas: {_residency_line(client_row)}")
    for driver in getattr(deployment, "drivers", []):
        stats = driver.stats
        lines.append(f"Client {driver.gcf.name}: round_trips={stats.round_trips} "
                     f"local_finishes={stats.local_finishes} "
                     f"folded_finishes={stats.folded_finishes} "
                     f"kernels_created_on_launch={stats.kernels_created_on_launch} "
                     f"folded_kernel_args={stats.folded_kernel_args}")
        lines.append(_storage_line(b for c in driver.contexts for b in c.live_buffers))
        lines.extend(_census_lines(stats))
    if hasattr(deployment, "timelines"):
        lines.extend(_timeline_line(host, tls) for host, tls in deployment.timelines().items())
    if getattr(deployment, "drivers", []):
        summary = push_summary(deployment)
        lines.append(
            "Push summary: "
            f"speculative={summary['speculative_pushes']} "
            f"executed={summary['daemon_pushes']} "
            f"commits={summary['push_commits']} "
            f"wasted={summary['wasted_pushes']} "
            f"hit_ratio={summary['hit_ratio']:.2f} "
            f"waste_ratio={summary['waste_ratio']:.2f}"
        )
    return "\n".join(lines).rstrip("\n")


def _main() -> None:
    from repro.hw.cluster import make_ib_cpu_cluster
    from repro.testbed import deploy_dopencl

    source = """
    __kernel void scale(__global float *x, const float f, const int n) {
        int i = (int)get_global_id(0);
        if (i < n) x[i] = x[i] * f;
    }
    """
    deployment = deploy_dopencl(make_ib_cpu_cluster(2, n_clients=2), n_clients=2)
    for api in deployment.apis:
        devices = api.clGetDeviceIDs(api.clGetPlatformIDs()[0])
        ctx = api.clCreateContext(devices)
        queue = api.clCreateCommandQueue(ctx, devices[0])
        program = api.clCreateProgramWithSource(ctx, source)
        api.clBuildProgram(program)
        api.clFinish(queue)
    print(cachestat_text(deployment))


if __name__ == "__main__":  # pragma: no cover
    _main()
