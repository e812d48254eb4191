"""Fault-injection utilities for tests and experiments.

The regression suite repeatedly needs surgical faults — "drop exactly
the next ViewCommit", "flap this link five times", "crash whichever
server serves this client" — beyond the probabilistic loss the link
model provides.  These helpers make such scripts one-liners and are
part of the public API so downstream users can test their own
extensions the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.net.network import Network
from repro.net.packet import Datagram
from repro.sim.core import Simulator

Predicate = Callable[[Datagram], bool]


def payload_type_is(*types: type) -> Predicate:
    """Match datagrams whose payload is one of ``types``."""

    def predicate(datagram: Datagram) -> bool:
        return isinstance(datagram.payload, types)

    return predicate


@dataclass
class MessageDropper:
    """Drop datagrams matching a predicate on one link direction.

    Parameters
    ----------
    network, node_a, node_b:
        The link and the transmit direction (``node_a`` sends).
    predicate:
        Which datagrams to drop (default: all).
    max_drops:
        Stop dropping after this many (None = forever).

    Use :meth:`install` / :meth:`remove`; dropped datagrams are recorded
    in :attr:`dropped` for assertions.
    """

    network: Network
    node_a: int
    node_b: int
    predicate: Optional[Predicate] = None
    max_drops: Optional[int] = 1
    dropped: List[Datagram] = field(default_factory=list)

    def install(self) -> "MessageDropper":
        link = self.network.link(self.node_a, self.node_b)
        direction = link.direction(self.node_a)
        self._direction = direction
        self._original = direction.transmit

        def dropping_transmit(datagram, deliver, guaranteed=False):
            exhausted = (
                self.max_drops is not None
                and len(self.dropped) >= self.max_drops
            )
            matches = self.predicate is None or self.predicate(datagram)
            if matches and not exhausted:
                self.dropped.append(datagram)
                return
            self._original(datagram, deliver, guaranteed)

        direction.transmit = dropping_transmit
        return self

    def remove(self) -> None:
        if getattr(self, "_direction", None) is not None:
            self._direction.transmit = self._original
            self._direction = None


def flap_link(
    sim: Simulator,
    network: Network,
    node_a: int,
    node_b: int,
    start_s: float,
    flaps: int = 3,
    period_s: float = 1.0,
) -> None:
    """Schedule ``flaps`` down/up cycles of a link."""
    for cycle in range(flaps):
        down_at = start_s + cycle * 2 * period_s
        sim.call_at(down_at, network.set_link_state, node_a, node_b, False)
        sim.call_at(
            down_at + period_s, network.set_link_state, node_a, node_b, True
        )


def serving_server(deployment: Any, client: Any) -> Optional[Any]:
    """The live server currently serving ``client``, or None."""
    serving = client.serving_server
    for server in deployment.live_servers():
        if serving is not None and server.process == serving:
            return server
    for server in deployment.live_servers():
        if client.process in server.sessions:
            return server
    return None


def crash_serving_server(deployment: Any, client: Any) -> Optional[Any]:
    """Crash whichever live server currently serves ``client``.

    Returns the crashed server (or None if nobody serves the client) —
    the move every failover test needs.
    """
    server = serving_server(deployment, client)
    if server is not None:
        server.crash()
    return server
