"""SPMD launcher: run one generator program on N ranks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import repro.mpi.collectives  # noqa: F401 — attaches collective methods
from repro.hw.node import Host
from repro.mpi.comm import World
from repro.net.network import Network
from repro.sim.process import Scheduler


@dataclass
class MPIRunResult:
    """Outcome of one SPMD execution."""

    results: List[Any]  # per-rank return values
    elapsed: float  # simulated wall-clock of the whole job

    @property
    def root_result(self) -> Any:
        return self.results[0]


#: MPI runtime startup cost per rank (process launch, wire-up), matching
#: the paper's observation that "MPI ... requires the program binaries to
#: be present on all nodes before execution" — starting the job is not free.
MPI_INIT_OVERHEAD = 5e-3


def mpi_run(
    network: Network,
    hosts: Sequence[Host],
    main: Callable[..., Any],
    args: Sequence[Any] = (),
    per_rank_args: Optional[Sequence[Sequence[Any]]] = None,
) -> MPIRunResult:
    """Execute ``main(comm, *args)`` on every rank (mpiexec-style).

    ``main`` must be a generator function; ranks run on one
    :class:`~repro.sim.process.Scheduler` over the shared simulated network.
    """
    scheduler = Scheduler()
    world = World(scheduler, network, list(hosts))

    def wrap(rank: int):
        comm = world.comm(rank)
        yield MPI_INIT_OVERHEAD
        rank_args = per_rank_args[rank] if per_rank_args is not None else args
        result = yield from main(comm, *rank_args)
        return result

    for rank in range(world.size):
        scheduler.spawn(wrap(rank))
    elapsed = scheduler.run()
    return MPIRunResult(results=scheduler.results, elapsed=elapsed)
