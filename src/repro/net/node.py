"""Network nodes.

A node hosts sockets and can crash.  A crashed node silently drops all
traffic addressed to it and its sockets stop delivering — matching the
fail-stop model the paper assumes for servers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import AddressInUseError, NetworkError
from repro.net.address import Endpoint, NodeId
from repro.net.packet import Datagram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.net.udp import UdpSocket


class Node:
    """A host in the simulated network."""

    def __init__(self, network: "Network", node_id: NodeId, name: str) -> None:
        self.network = network
        self.node_id = node_id
        self.name = name
        self.alive = True
        self._sockets: Dict[int, "UdpSocket"] = {}
        self._next_ephemeral = 49152
        # Process-scheduling noise: the paper notes "additional delay
        # may be introduced by process scheduling since we do not use a
        # real-time operating system".  When positive, every delivered
        # datagram waits a uniform [0, noise] extra before the
        # application sees it.
        self.scheduling_noise_s = 0.0

    # ------------------------------------------------------------------
    # Socket management
    # ------------------------------------------------------------------
    def bind(self, socket: "UdpSocket", port: Optional[int]) -> int:
        """Register ``socket`` on ``port`` (or an ephemeral port if None)."""
        if not self.alive:
            raise NetworkError(f"node {self.name} is down")
        if port is None:
            port = self._allocate_ephemeral()
        if port in self._sockets:
            raise AddressInUseError(f"port {port} already bound on node {self.name}")
        self._sockets[port] = socket
        return port

    def unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    def _allocate_ephemeral(self) -> int:
        while self._next_ephemeral in self._sockets:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: close every socket and stop receiving."""
        self.alive = False
        for socket in list(self._sockets.values()):
            socket.close()
        self._sockets.clear()
        self.network.note_change()

    def restart(self) -> None:
        """Bring a crashed node back (with no sockets — fresh process)."""
        self.alive = True
        self.network.note_change()

    # ------------------------------------------------------------------
    # Datagram plumbing (called by the Network)
    # ------------------------------------------------------------------
    def deliver(self, datagram: Datagram) -> None:
        if not self.alive:
            return
        if self.scheduling_noise_s > 0:
            delay = self.network.sim.rng(f"node.sched.{self.node_id}").uniform(
                0.0, self.scheduling_noise_s
            )
            self.network.sim.call_after(delay, self._deliver_now, datagram)
            return
        self._deliver_now(datagram)

    def _deliver_now(self, datagram: Datagram) -> None:
        if not self.alive:
            return
        socket = self._sockets.get(datagram.dst.port)
        if socket is not None:
            socket.handle_datagram(datagram)

    def endpoint(self, port: int) -> Endpoint:
        return Endpoint(self.node_id, port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<Node {self.node_id} {self.name!r} {state}>"
