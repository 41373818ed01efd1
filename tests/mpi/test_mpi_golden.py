"""Bit-exact MPI timings, as ``float.hex``.

The values were recorded with the general discrete-event engine that
:class:`repro.sim.process.Scheduler` replaced; the scheduler must
reproduce them exactly.  The co-located layouts (two ranks per host,
``A B A B``) pin the scheduler's order: ranks that share a NIC must be
served in virtual-time order with ties in scheduling order, and a
scheduler that breaks ties by rank id, or runs each rank until it blocks,
moves these numbers.
"""

import numpy as np
import pytest

from repro.apps.mandelbrot import render_mpi_opencl
from repro.bench.figures import FIG4_CONFIG, FIG4_LINK, FIG4_WORKLOAD_SCALE
from repro.hw import INFINIBAND_QDR, WESTMERE_NODE, Host
from repro.hw.cluster import make_ib_cpu_cluster
from repro.mpi import mpi_run
from repro.net import Network

#: devices -> (init, exec, transfer) of Fig. 4's MPI+OpenCL port.
FIG4_MPI = {
    1: ("0x1.3929ed3953deep-5", "0x1.1073999e50481p+5", "0x0.0p+0"),
    2: ("0x1.3929ed3953deep-5", "0x1.10eb7097c6c10p+4", "0x1.3a92a30553000p-7"),
    4: ("0x1.3929ed3953deep-5", "0x1.123068b0b947fp+3", "0x1.d7dbf487fc800p-7"),
}

#: collective -> per-rank finish times of 1 MiB on layout A B A B.
ABAB = {
    "bcast": [
        "0x1.7b9ce2011a0f0p-8",
        "0x1.911670e34a9b5p-8",
        "0x1.6623531ee982dp-8",
        "0x1.7b9ce2011a0f1p-8",
    ],
    "allgather": [
        "0x1.2b6d832a0550fp-7",
        "0x1.5660c72eecec5p-7",
        "0x1.007a3f251db59p-7",
        "0x1.2b6d832a0550fp-7",
    ],
}


@pytest.mark.parametrize("n", sorted(FIG4_MPI))
def test_fig4_mpi_timings_are_bit_identical(n):
    cluster = make_ib_cpu_cluster(n, link=FIG4_LINK)
    result = render_mpi_opencl(
        cluster.network, cluster.servers, FIG4_CONFIG, workload_scale=FIG4_WORKLOAD_SCALE
    )
    t = result.timings
    assert (t.initialization.hex(), t.execution.hex(), t.transfer.hex()) == FIG4_MPI[n]


@pytest.mark.parametrize("kind", sorted(ABAB))
def test_colocated_ranks_finish_at_recorded_times(kind):
    net = Network(INFINIBAND_QDR)
    a = net.add_host(Host(WESTMERE_NODE, name="A"))
    b = net.add_host(Host(WESTMERE_NODE, name="B"))

    def main(comm):
        data = np.full(1 << 20, comm.rank, dtype=np.uint8)
        if kind == "bcast":
            yield from comm.bcast(data if comm.rank == 0 else None)
        else:
            yield from comm.allgather(data)
        return comm.now

    run = mpi_run(net, [a, b, a, b], main)
    assert [t.hex() for t in run.results] == ABAB[kind]
    assert run.elapsed == max(run.results)
