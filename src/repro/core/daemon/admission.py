"""Per-daemon admission control and multi-tenant backpressure policy.

A daemon serving one client can afford to be generous: every buffer it
holds, every pending notification belongs to the only tenant there is.
Under N concurrent clients the same generosity turns into a fairness
hazard — one runaway client can exhaust the registry or the session
table and starve its siblings.  This module centralises the bounds the
daemon enforces *per client* (and per process), so contention degrades
the offender, never the neighbours:

* **session cap** (``max_clients``) — a connection attempt beyond the
  cap is refused at the GCF handshake
  (:class:`~repro.net.link.ConnectionRefused`, surfaced client-side as
  ``CL_CONNECTION_ERROR_WWU``) and counted in
  ``NetStats.refused_connections``;
* **registry quota** (``max_objects_per_client``) — a creation command
  that would push one client past its object quota is rejected with
  ``CL_OUT_OF_RESOURCES`` (counted in ``NetStats.quota_rejections``);
  under deferred creations the provisional ID poisons exactly like any
  other failed creation, so dependents are answered positionally and
  the error surfaces at the client's next sync point.

Every bound is per *client name*, matching the registry's namespace
keying — the isolation boundary of the whole daemon (see
``docs/architecture.md``, "Multi-tenancy").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ocl.constants import ErrorCode
from repro.ocl.errors import CLError


@dataclass(frozen=True)
class AdmissionPolicy:
    """The per-daemon resource bounds (``None`` = unbounded/default).

    The default policy is fully permissive, so an unconfigured daemon
    behaves exactly as before admission control existed.
    """

    #: Maximum concurrently connected clients (``None`` = unbounded).
    max_clients: Optional[int] = None
    #: Maximum live registry objects per client (``None`` = unbounded).
    max_objects_per_client: Optional[int] = None


class AdmissionControl:
    """Enforces an :class:`AdmissionPolicy` for one daemon instance.

    Stateless beyond the policy itself — occupancy is always read from
    the daemon's live structures (GCF peer table, registry) at check
    time, so crash/restart cleanup needs no admission bookkeeping.
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None) -> None:
        self.policy = policy or AdmissionPolicy()

    def check_connect(self, connected_clients: int) -> None:
        """Raise ``CLError(CL_OUT_OF_RESOURCES)`` when accepting one more
        client would exceed the session cap (the daemon's connect hook
        translates it into a :class:`~repro.net.link.ConnectionRefused`
        so the refusal happens at the handshake, before any per-client
        state is allocated)."""
        cap = self.policy.max_clients
        if cap is not None and connected_clients >= cap:
            raise CLError(
                ErrorCode.CL_OUT_OF_RESOURCES,
                f"admission control: daemon already serves {connected_clients} "
                f"clients (cap {cap})",
            )

    def check_create(self, client: str, live_objects: int) -> None:
        """Raise ``CLError(CL_OUT_OF_RESOURCES)`` when registering one
        more object would exceed ``client``'s registry quota."""
        quota = self.policy.max_objects_per_client
        if quota is not None and live_objects >= quota:
            raise CLError(
                ErrorCode.CL_OUT_OF_RESOURCES,
                f"admission control: client {client!r} holds {live_objects} "
                f"objects (quota {quota})",
            )
