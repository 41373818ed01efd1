"""Point-to-point communication and the communicator object."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.hw.node import Host
from repro.net.codec import CodecError, encoded_size
from repro.net.network import Network
from repro.net.streams import payload_nbytes as _raw_payload_nbytes
from repro.sim.process import Scheduler

#: Per-message software overhead (matching, envelope processing).
MPI_OVERHEAD = 3e-6

ANY_SOURCE = -1
ANY_TAG = -1


class MPIError(RuntimeError):
    pass


def payload_nbytes(obj: Any) -> int:
    """Bytes on the wire for a message payload.

    Raw buffers (ndarray/bytes) travel unenveloped, so they are charged
    their raw length (via :func:`repro.net.streams.payload_nbytes`, the
    bulk-stream sizing rule); everything else is charged its codec size
    via :func:`repro.net.codec.encoded_size`, which computes the size
    arithmetically — nothing is materialised regardless of payload size
    (O(1) even for ndarray/bytes leaves nested inside containers).
    """
    if isinstance(obj, (np.ndarray, bytes, bytearray, memoryview)):
        return _raw_payload_nbytes(obj)
    try:
        return encoded_size(obj)
    except CodecError:
        # Unencodable Python object: approximate with repr length (the
        # mini-MPI allows arbitrary objects like pickles would).
        return len(repr(obj).encode())


class World:
    """Shared state of one SPMD run: hosts and the rank scheduler, whose
    mailbox ``(src, dst)`` is the FIFO from rank ``src`` to rank ``dst``."""

    def __init__(self, scheduler: Scheduler, network: Network, hosts: list) -> None:
        if not hosts:
            raise MPIError("world needs at least one rank")
        self.scheduler = scheduler
        self.network = network
        self.hosts = hosts
        self.size = len(hosts)

    def comm(self, rank: int) -> "Communicator":
        return Communicator(self, rank)


class Communicator:
    """Per-rank communicator (COMM_WORLD semantics)."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank

    @property
    def now(self) -> float:
        return self.world.scheduler.now

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def host(self) -> Host:
        return self.world.hosts[self.rank]

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0):
        """Blocking standard-mode send (returns once the message left the
        sender's NIC)."""
        if not 0 <= dest < self.size:
            raise MPIError(f"bad destination rank {dest}")
        if dest == self.rank:
            raise MPIError("send to self would deadlock a blocking pair")
        scheduler = self.world.scheduler
        nbytes = payload_nbytes(obj)
        spec = self.world.network.spec
        src_host, dst_host = self.host, self.world.hosts[dest]
        if src_host is dst_host:
            # co-located ranks: shared-memory copy
            yield MPI_OVERHEAD + nbytes / 8e9
            scheduler.put((self.rank, dest), (self.now, obj, nbytes, tag, self.rank))
            yield 0.0  # resume after the receiver's wake-up
            return
        tx = src_host.nic.send(self.now, nbytes, tag=f"mpi:{self.rank}->{dest}")
        yield max(0.0, tx.end - self.now) + MPI_OVERHEAD
        arrival_earliest = tx.start + spec.latency
        scheduler.put((self.rank, dest), (arrival_earliest, obj, nbytes, tag, self.rank))
        yield 0.0  # resume after the receiver's wake-up

    def recv(self, source: int, tag: int = ANY_TAG):
        """Blocking receive; returns the payload object.

        Charges the receiver NIC (serialising concurrent arrivals — the
        effect that makes a many-to-one gather root-bound)."""
        if not 0 <= source < self.size:
            raise MPIError(f"bad source rank {source}")
        item = yield (source, self.rank)
        earliest, obj, nbytes, msg_tag, src_rank = item
        if tag != ANY_TAG and msg_tag != tag:
            raise MPIError(f"tag mismatch: wanted {tag}, got {msg_tag}")
        src_host, dst_host = self.world.hosts[src_rank], self.host
        if src_host is dst_host:
            if earliest > self.now:
                yield earliest - self.now
            return obj
        rx = dst_host.nic.receive(max(self.now, earliest), nbytes, tag=f"mpi:{src_rank}->{self.rank}")
        if rx.end > self.now:
            yield rx.end - self.now
        return obj

    # ------------------------------------------------------------------
    # OpenCL clock bridging
    # ------------------------------------------------------------------
    def sync_clock(self, api) -> Any:
        """Bridge a per-rank OpenCL API clock with the rank scheduler.

        Call after a batch of OpenCL work: advances simulated time by the
        OpenCL time consumed; afterwards the two clocks agree."""
        if api.clock.now > self.now:
            yield api.clock.now - self.now
        else:
            api.clock.advance_to(self.now)
        return self.now
