"""A miniature MPI on the simulation substrate.

The paper's Fig. 4 baseline is "MPI+OpenCL": the Mandelbrot application
ported to explicit message passing (rank/size decomposition,
``MPI_Gather`` of the tiles, init/finalise).  This package provides the
needed subset with real message-passing semantics on the simulated
network: blocking send/recv, Bcast/Scatter/Gather/Reduce/Allreduce/
Barrier, SPMD launch, and clock bridging to the per-rank native OpenCL
runtime.

Rank programs are generators resumed in virtual-time order by
:class:`repro.sim.process.Scheduler`; a rank waits with ``yield <seconds>``
and communicates with ``yield from comm.send(...)``.
"""

from repro.mpi.comm import Communicator, MPIError
from repro.mpi.runner import MPIRunResult, mpi_run

__all__ = ["Communicator", "MPIError", "MPIRunResult", "mpi_run"]
