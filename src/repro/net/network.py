"""Network topology, routing and partition injection.

The network is an undirected graph of :class:`~repro.net.node.Node`
objects connected by :class:`~repro.net.link.Link` objects.  Datagrams
are forwarded hop by hop along shortest paths (BFS on live links), so a
multi-hop WAN path accumulates per-hop delay, jitter, queueing and loss
naturally.  Partitions are injected by taking links down; forwarding
tables are recompiled lazily, one source at a time.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.link import DeliverFn, Link, LinkFault, LinkParams, _Direction
from repro.net.node import Node
from repro.net.packet import Datagram
from repro.sim.core import Simulator

#: One compiled forwarding entry: the link direction to transmit on, the
#: node at its far end, and the callable that receives the datagram there.
Hop = Tuple[_Direction, int, DeliverFn]


class Network:
    """The simulated internetwork."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: List[Node] = []
        self._links: Dict[Tuple[int, int], Link] = {}
        self._adjacency: Dict[int, List[int]] = {}
        # source -> destination -> Hop, compiled from a BFS the first time
        # a node forwards after a change; unreachable pairs are absent.
        self._tables: Dict[int, Dict[int, Hop]] = {}
        # Optional QoS manager (repro.net.qos.QosManager.install).
        self.qos = None

    def note_change(self) -> None:
        """Invalidate the forwarding tables."""
        self._tables = {}

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_node(self, name: Optional[str] = None) -> Node:
        node_id = len(self.nodes)
        node = Node(self, node_id, name or f"node{node_id}")
        self.nodes.append(node)
        self._adjacency[node_id] = []
        self.note_change()
        return node

    def add_link(
        self,
        node_a: int,
        node_b: int,
        params: Optional[LinkParams] = None,
        reverse_params: Optional[LinkParams] = None,
    ) -> Link:
        self._check_node(node_a)
        self._check_node(node_b)
        key = self._link_key(node_a, node_b)
        if key in self._links:
            raise NetworkError(f"link {key} already exists")
        link = Link(self.sim, node_a, node_b, params or LinkParams(), reverse_params)
        self._links[key] = link
        self._adjacency[node_a].append(node_b)
        self._adjacency[node_b].append(node_a)
        self.note_change()
        return link

    def node(self, node_id: int) -> Node:
        self._check_node(node_id)
        return self.nodes[node_id]

    def link(self, node_a: int, node_b: int) -> Link:
        key = self._link_key(node_a, node_b)
        link = self._links.get(key)
        if link is None:
            raise NetworkError(f"no link between {node_a} and {node_b}")
        return link

    def links(self) -> Iterable[Link]:
        return self._links.values()

    # ------------------------------------------------------------------
    # Partition injection
    # ------------------------------------------------------------------
    def set_link_state(self, node_a: int, node_b: int, up: bool) -> None:
        self.link(node_a, node_b).set_up(up)
        self.note_change()

    def partition(self, side_a: Iterable[int], side_b: Iterable[int]) -> None:
        """Cut every link that crosses between the two node sets."""
        set_a, set_b = set(side_a), set(side_b)
        for (u, v), link in self._links.items():
            if (u in set_a and v in set_b) or (u in set_b and v in set_a):
                link.set_up(False)
        self.note_change()

    def heal(self) -> None:
        """Bring every link back up."""
        for link in self._links.values():
            link.set_up(True)
        self.note_change()

    def partition_node(self, node_id: int) -> None:
        """Isolate one node: take down every link it terminates."""
        self._check_node(node_id)
        for (u, v), link in self._links.items():
            if node_id in (u, v):
                link.set_up(False)
        self.note_change()

    def heal_node(self, node_id: int) -> None:
        """Undo :meth:`partition_node`: restore the node's links."""
        self._check_node(node_id)
        for (u, v), link in self._links.items():
            if node_id in (u, v):
                link.set_up(True)
        self.note_change()

    # ------------------------------------------------------------------
    # Fault injection (see repro.faulting)
    # ------------------------------------------------------------------
    def set_link_fault(
        self, node_a: int, node_b: int, fault: Optional[LinkFault]
    ) -> None:
        """Install (or clear, with None) an impairment on one link."""
        self.link(node_a, node_b).set_fault(fault)
        self.note_change()

    def set_node_fault(self, node_id: int, fault: Optional[LinkFault]) -> None:
        """Impair every link terminating at ``node_id`` (a flaky NIC or
        an overloaded last-hop router)."""
        self._check_node(node_id)
        for (u, v), link in self._links.items():
            if node_id in (u, v):
                link.set_fault(fault)
        self.note_change()

    def clear_link_faults(self) -> None:
        for link in self._links.values():
            link.set_fault(None)
        self.note_change()

    def reachable(self, src: int, dst: int) -> bool:
        return self._hop(src, dst) is not None or src == dst

    # ------------------------------------------------------------------
    # Datagram forwarding
    # ------------------------------------------------------------------
    def send(self, datagram: Datagram) -> None:
        """Inject a datagram at its source node and route it."""
        src_node = self.node(datagram.src.node)
        if not src_node.alive:
            return
        self._forward(src_node, datagram)

    def _forward(self, node: Node, datagram: Datagram) -> None:
        """Hand ``datagram`` to ``node`` if addressed there, else carry it
        one hop on.  Also the arrival callable of every :data:`Hop`."""
        at_node = node.node_id
        dst_node = datagram.dst.node
        if at_node == dst_node:
            node.deliver(datagram)
            return
        if not node.alive:
            return  # routers that crashed blackhole traffic
        if datagram.hops_remaining <= 0:
            return
        # The compiled table is read here, not through ``_hop``: one
        # frame per hop of every datagram.  ``_hop`` compiles it the
        # first time this node forwards after a change.
        table = self._tables.get(at_node)
        hop = (
            self._hop(at_node, dst_node) if table is None
            else table.get(dst_node)
        )
        if hop is None:
            return  # unreachable: datagrams vanish, like real UDP
        datagram.hops_remaining -= 1
        direction, next_node, arrive = hop
        # ``transmit`` is looked up on the direction at every send:
        # fault injectors replace it per instance.
        if self.qos is None or datagram.flow_id is None:
            direction.transmit(datagram, arrive)
        else:
            direction.transmit(
                datagram,
                arrive,
                guaranteed=self.qos.admit_packet(
                    at_node, next_node, datagram.flow_id, datagram.wire_bytes()
                ),
            )

    # ------------------------------------------------------------------
    # Path lookup (see repro.net.qos)
    # ------------------------------------------------------------------
    def resolve_path(self, src: int, dst: int):
        """The hop sequence a datagram would take right now, or None.

        Returns a list of ``(direction, to_node_id)`` pairs following the
        same BFS next-hop tables :meth:`send` uses, so a reservation
        covers exactly the links a send crosses.
        """
        if src == dst:
            return []
        hops = []
        at = src
        while at != dst:
            hop = self._hop(at, dst)
            if hop is None or len(hops) >= 64:
                return None
            hops.append(hop[:2])
            at = hop[1]
        return hops

    # ------------------------------------------------------------------
    # Routing (BFS shortest path over live links)
    # ------------------------------------------------------------------
    def _hop(self, src: int, dst: int) -> Optional[Hop]:
        """The forwarding entry at ``src`` toward ``dst``; None when
        unreachable (or ``src == dst``)."""
        table = self._tables.get(src)
        if table is None:
            table = self._tables[src] = self._compile_from(src)
        return table.get(dst)

    def _compile_from(self, src: int) -> Dict[int, Hop]:
        """First :data:`Hop` from ``src`` toward every reachable node."""
        first_hop: Dict[int, Hop] = {}
        visited = {src}
        frontier = deque()
        for neighbor in self._adjacency.get(src, ()):
            if self._link_up(src, neighbor):
                first_hop[neighbor] = (
                    self.link(src, neighbor).direction(src),
                    neighbor,
                    partial(self._forward, self.nodes[neighbor]),
                )
                visited.add(neighbor)
                frontier.append(neighbor)
        while frontier:
            current = frontier.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor in visited or not self._link_up(current, neighbor):
                    continue
                visited.add(neighbor)
                first_hop[neighbor] = first_hop[current]
                frontier.append(neighbor)
        return first_hop

    def _link_up(self, node_a: int, node_b: int) -> bool:
        return self._links[self._link_key(node_a, node_b)].up

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _link_key(node_a: int, node_b: int) -> Tuple[int, int]:
        return (node_a, node_b) if node_a < node_b else (node_b, node_a)

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < len(self.nodes):
            raise NetworkError(f"unknown node id {node_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network nodes={len(self.nodes)} links={len(self._links)}>"
