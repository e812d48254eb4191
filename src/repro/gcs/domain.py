"""GCS domain: the configured set of daemons.

A real Transis deployment knows its daemons from configuration files;
the :class:`GcsDomain` plays that role — every endpoint created through
it can broadcast control messages to all others.  Daemons added later
(a server brought up on the fly) become visible to everyone, which
models updating the configuration out of band.

The domain is also the *group directory*: which daemons currently have a
member of a group.  It stands for the transport's group address (an IP
multicast group the member daemons subscribed to): an open-group send is
addressed to the group and reaches the daemons listed there, not every
daemon of the deployment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.net.address import GCS_PORT, Endpoint
from repro.net.network import Network
from repro.sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gcs.endpoint import GcsEndpoint
    from repro.gcs.view import View

#: (daemon node id, group name, installed view) — see ``add_view_observer``.
ViewObserver = Callable[[int, str, "View"], None]


class GcsDomain:
    """Registry of all GCS daemons in one deployment."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        fd_timeout: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.fd_timeout = fd_timeout
        self._endpoints: Dict[int, "GcsEndpoint"] = {}
        self._addresses: Dict[int, Endpoint] = {}
        # Daemons started so far per node: a boot counter, out-of-band
        # knowledge of the same kind as the daemon list itself.
        self._incarnations: Dict[int, int] = {}
        # Compiled group directory: derived from the endpoints' joined
        # groups on first lookup, dropped by note_group_change().
        self._group_daemons: Dict[str, Tuple[int, ...]] = {}
        self._view_observers: List[ViewObserver] = []

    # ------------------------------------------------------------------
    # Observation hooks (used by repro.faulting.InvariantChecker)
    # ------------------------------------------------------------------
    def add_view_observer(self, observer: ViewObserver) -> None:
        """Observe every view installation by any daemon in the domain.

        Observers are read-only taps: they must not mutate GCS state.
        """
        self._view_observers.append(observer)

    def remove_view_observer(self, observer: ViewObserver) -> None:
        if observer in self._view_observers:
            self._view_observers.remove(observer)

    def notify_view_installed(self, daemon_id: int, group: str, view: "View") -> None:
        for observer in self._view_observers:
            observer(daemon_id, group, view)

    def create_endpoint(self, node_id: int) -> "GcsEndpoint":
        """Start a GCS daemon on ``node_id`` and register it domain-wide."""
        from repro.gcs.endpoint import GcsEndpoint
        from repro.gcs.failure_detector import DEFAULT_TIMEOUT

        if node_id in self._endpoints and not self._endpoints[node_id].closed:
            raise ValueError(f"node {node_id} already runs a GCS daemon")
        incarnation = self._incarnations.get(node_id, 0)
        self._incarnations[node_id] = incarnation + 1
        endpoint = GcsEndpoint(
            self,
            self.network.node(node_id),
            fd_timeout=self.fd_timeout or DEFAULT_TIMEOUT,
            incarnation=incarnation,
        )
        self._endpoints[node_id] = endpoint
        return endpoint

    def ensure_endpoint(self, node_id: int) -> "GcsEndpoint":
        """The live daemon on ``node_id`` — every process on a node
        shares it — started first if none runs there."""
        endpoint = self._endpoints.get(node_id)
        if endpoint is None or endpoint.closed:
            endpoint = self.create_endpoint(node_id)
        return endpoint

    def remove_endpoint(self, endpoint: "GcsEndpoint") -> None:
        """Unregister a stopped daemon — only if it is the one registered
        on its node (a successor may have started there since)."""
        if self._endpoints.get(endpoint.daemon_id) is endpoint:
            del self._endpoints[endpoint.daemon_id]
            self._group_daemons.clear()

    # ------------------------------------------------------------------
    # Group directory
    # ------------------------------------------------------------------
    def group_daemons(self, group: str) -> Tuple[int, ...]:
        """Daemons that have joined ``group``, in node-id order.

        Exact by construction: a daemon acts on an open-group send only
        if it has joined the group, and every join, leave and daemon stop
        passes through :meth:`note_group_change` / :meth:`remove_endpoint`.
        Compiled once per change, never per send.
        """
        daemons = self._group_daemons.get(group)
        if daemons is None:
            daemons = self._group_daemons[group] = tuple(
                node
                for node in sorted(self._endpoints)
                if self._endpoints[node].has_joined(group)
            )
        return daemons

    def note_group_change(self, group: str) -> None:
        """A daemon joined or left ``group``: recompile on next lookup."""
        self._group_daemons.pop(group, None)

    def daemon_nodes(self) -> List[int]:
        """Node ids of all registered daemons (the 'configuration file')."""
        return sorted(self._endpoints)

    def endpoint(self, node_id: int) -> "GcsEndpoint":
        return self._endpoints[node_id]

    def daemon_address(self, node_id: int) -> Endpoint:
        """Control-plane address of the daemon on ``node_id``: one shared
        object per daemon, so sending to it allocates nothing."""
        address = self._addresses.get(node_id)
        if address is None:
            address = self._addresses[node_id] = Endpoint(node_id, GCS_PORT)
        return address

    def __len__(self) -> int:
        return len(self._endpoints)
