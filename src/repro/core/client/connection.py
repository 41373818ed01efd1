"""Server connection management and the server list configuration file.

Paper Listing 2: a plain-text file in the application's execution
directory, one server per line (host name or IP, optional ``:port``),
``#`` comments.  "During the application's initialization phase ... the
client driver automatically connects to the servers specified in the
configuration file" (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.client.windows import SendWindow
from repro.ocl.constants import ErrorCode
from repro.ocl.errors import CLError


def parse_server_list(text: str) -> List[str]:
    """Parse a Listing-2 style configuration file into server addresses."""
    servers: List[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if " " in line or "\t" in line:
            raise CLError(
                ErrorCode.CL_INVALID_VALUE,
                f"server list line {lineno}: one server per line, got {line!r}",
            )
        servers.append(line)
    return servers


def address_host(address: str) -> str:
    """Strip the optional ``:port`` from a server address."""
    return address.rsplit(":", 1)[0] if ":" in address else address


@dataclass
class ServerConnection:
    """One live connection from the client driver to a daemon.

    Owns the connection's dependency-tracked send window: deferred
    commands queue here (with their read/write handle annotations) until
    a flush point drains them as one ``CommandBatch``.  The window also
    carries the connection's ``clFlush`` submission barriers — queues
    share one window per daemon, which is exactly why a barrier
    recorded here orders commands of *every* queue of the daemon (the
    multi-queue submission semantics of Section III-B)."""

    name: str
    daemon: object  # repro.core.daemon.Daemon
    connected_at: float
    devices: List[object] = field(default_factory=list)  # RemoteDevice stubs
    connected: bool = True
    window: SendWindow = field(default_factory=SendWindow)
    #: True once the retry budget against this daemon was exhausted (or a
    #: connection reset observed) and the driver declared the daemon dead:
    #: its handles are poisoned, its replicas evicted, and no further
    #: traffic is attempted.  ``dead_reason`` names the failure for error
    #: messages.
    dead: bool = False
    dead_reason: str = ""
    #: Replay identity: the connection epoch (bumped on reconnect) and the
    #: next batch sequence number.  Stamped onto every ``CommandBatch``
    #: when the driver runs with a retry policy, so the daemon can dedupe
    #: replayed batches (see ``GCFProcess.install_batch_dispatch``).
    epoch: int = 0
    next_seq: int = 0

    @property
    def gcf(self):
        """The daemon's GCF endpoint."""
        return self.daemon.gcf


class DaemonDirectory:
    """Name -> daemon resolution (the simulation's DNS)."""

    def __init__(self, daemons: Optional[Dict[str, object]] = None) -> None:
        self._daemons: Dict[str, object] = dict(daemons or {})

    @staticmethod
    def of(daemons) -> "DaemonDirectory":
        """Build from a list of daemons (keyed by daemon name)."""
        return DaemonDirectory({d.name: d for d in daemons})

    def add(self, daemon) -> None:
        """Register a daemon under its name."""
        self._daemons[daemon.name] = daemon

    def resolve(self, address: str):
        """Daemon for a server address (host part), or CLError."""
        host = address_host(address)
        daemon = self._daemons.get(host)
        if daemon is None:
            raise CLError(
                ErrorCode.CL_CONNECTION_ERROR_WWU,
                f"cannot resolve server {address!r}",
            )
        return daemon
