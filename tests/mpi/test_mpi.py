"""Mini-MPI tests: point-to-point, collectives, clock bridging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import GIGABIT_ETHERNET, Host, INFINIBAND_QDR, WESTMERE_NODE
from repro.mpi import MPIError, mpi_run
from repro.net import Network


def make_world(n, link=INFINIBAND_QDR):
    net = Network(link)
    hosts = [net.add_host(Host(WESTMERE_NODE, name=f"n{i}")) for i in range(n)]
    return net, hosts


def run(n, main, link=INFINIBAND_QDR, **kwargs):
    net, hosts = make_world(n, link)
    return mpi_run(net, hosts, main, **kwargs)


def test_send_recv_pair():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send({"x": 42}, dest=1)
            return None
        data = yield from comm.recv(source=0)
        return data

    result = run(2, main)
    assert result.results[1] == {"x": 42}
    assert result.elapsed > 0


def test_send_numpy_array():
    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.arange(1000, dtype=np.float64), dest=1)
            return None
        data = yield from comm.recv(source=0)
        return float(data.sum())

    result = run(2, main)
    assert result.results[1] == pytest.approx(sum(range(1000)))


def test_message_time_scales_with_size():
    def main_for(nbytes):
        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(nbytes, dtype=np.uint8), dest=1)
            else:
                yield from comm.recv(source=0)
            yield from comm.barrier()

        return main

    small = run(2, main_for(1 << 10), link=GIGABIT_ETHERNET).elapsed
    large = run(2, main_for(10 << 20), link=GIGABIT_ETHERNET).elapsed
    assert large > small
    # 10 MB at ~106 MB/s ~= 94 ms on each side of the wire.
    assert 0.05 < large - small < 0.5


def test_bad_ranks_rejected():
    def send_bad(comm):
        yield from comm.send(1, dest=5)

    with pytest.raises(MPIError):
        run(2, send_bad)

    def send_self(comm):
        yield from comm.send(1, dest=comm.rank)

    with pytest.raises(MPIError):
        run(2, send_self)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_bcast(n):
    def main(comm):
        obj = "payload" if comm.rank == 0 else None
        obj = yield from comm.bcast(obj, root=0)
        return obj

    result = run(n, main)
    assert result.results == ["payload"] * n


@pytest.mark.parametrize("root", [0, 1, 2])
def test_bcast_nonzero_root(root):
    def main(comm):
        obj = 99 if comm.rank == root else None
        obj = yield from comm.bcast(obj, root=root)
        return obj

    assert run(4, main).results == [99] * 4


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_gather(n):
    def main(comm):
        values = yield from comm.gather(comm.rank * 10, root=0)
        return values

    result = run(n, main)
    assert result.results[0] == [r * 10 for r in range(n)]
    for other in result.results[1:]:
        assert other is None


def test_scatter():
    def main(comm):
        items = [f"item{r}" for r in range(comm.size)] if comm.rank == 0 else None
        item = yield from comm.scatter(items, root=0)
        return item

    result = run(4, main)
    assert result.results == [f"item{r}" for r in range(4)]


def test_scatter_wrong_length():
    def main(comm):
        items = [1] if comm.rank == 0 else None
        item = yield from comm.scatter(items, root=0)
        return item

    with pytest.raises(MPIError):
        run(3, main)


def test_reduce_and_allreduce():
    def main(comm):
        total = yield from comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)
        return total

    n = 6
    assert run(n, main).results == [n * (n + 1) // 2] * n


def test_allgather():
    def main(comm):
        values = yield from comm.allgather(comm.rank ** 2)
        return values

    assert run(4, main).results == [[0, 1, 4, 9]] * 4


def test_barrier_synchronises():
    def main(comm):
        # Rank 0 is slow before the barrier.
        if comm.rank == 0:
            yield 0.5
        yield from comm.barrier()
        return comm.now

    result = run(4, main)
    assert all(t >= 0.5 for t in result.results)


def test_matvec_pipeline():
    """The mpi4py-tutorial style parallel matvec as an integration check."""
    n, size = 16, 4
    rng = np.random.default_rng(0)
    A = rng.random((n, n))
    x = rng.random(n)
    rows = n // size

    def main(comm):
        local_A = A[comm.rank * rows : (comm.rank + 1) * rows]
        local_x = x[comm.rank * rows : (comm.rank + 1) * rows]
        xg = yield from comm.allgather(local_x)
        full_x = np.concatenate(xg)
        local_y = local_A @ full_x
        parts = yield from comm.gather(local_y, root=0)
        if comm.rank == 0:
            return np.concatenate(parts)
        return None

    result = run(size, main)
    np.testing.assert_allclose(result.results[0], A @ x)


def test_gather_root_nic_serialises():
    """Many-to-one gather of large tiles: the root's NIC is the bottleneck,
    so total time grows ~linearly with the sender count."""

    def main_for(nbytes):
        def main(comm):
            data = np.zeros(nbytes, dtype=np.uint8)
            yield from comm.gather(data, root=0)

        return main

    nbytes = 5 << 20
    t2 = run(2, main_for(nbytes), link=GIGABIT_ETHERNET).elapsed
    t5 = run(5, main_for(nbytes), link=GIGABIT_ETHERNET).elapsed
    per_msg = nbytes / GIGABIT_ETHERNET.effective_bandwidth
    assert t5 - t2 == pytest.approx(3 * per_msg, rel=0.2)


def test_clock_bridging_with_opencl():
    from repro.testbed import native_api_on

    def main(comm):
        api = native_api_on(comm.host)
        api.clock.advance_to(comm.now)
        api.clock.advance_by(0.25)  # pretend 250 ms of OpenCL work
        yield from comm.sync_clock(api)
        yield from comm.barrier()
        return comm.now

    result = run(2, main)
    assert all(t >= 0.25 for t in result.results)


def test_per_rank_args():
    def main(comm, offset):
        yield 0.0
        return comm.rank + offset

    result = run(3, main, per_rank_args=[(10,), (20,), (30,)])
    assert result.results == [10, 21, 32]


@given(n=st.integers(min_value=1, max_value=9), payload=st.integers())
@settings(max_examples=30, deadline=None)
def test_bcast_gather_round_trip_property(n, payload):
    def main(comm):
        value = payload if comm.rank == 0 else None
        value = yield from comm.bcast(value, root=0)
        values = yield from comm.gather(value, root=0)
        return values

    result = run(n, main)
    assert result.results[0] == [payload] * n
