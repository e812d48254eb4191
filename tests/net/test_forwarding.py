"""The compiled forwarding tables can never be stale.

``Network`` compiles per-source forwarding tables lazily and drops them
in ``note_change()``.  The reference here caches nothing: every hop
re-derives its route from the live link state with this file's own BFS.
Both are driven through the same random sequence of topology changes
with datagrams in flight across each one, and must agree on every
counter of every link direction and on every delivery.
"""

import dataclasses
from collections import deque
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import Endpoint
from repro.net.link import LinkFault, LinkParams
from repro.net.network import Network
from repro.net.packet import Datagram
from repro.net.udp import UdpSocket
from repro.sim.core import Simulator

#: 4 ms per hop and changes every 0.5-3 ms: most datagrams are mid-path
#: when the topology moves under them.
HOP = LinkParams(delay_s=0.004, bandwidth_bps=1e9)
FAULT = LinkFault(drop_prob=0.3, extra_delay_s=0.002, duplicate_prob=0.3)
RING = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
PORT = 9


def first_hops(network, src):
    """``dst -> next node`` from ``src``: BFS over links that are up,
    neighbours in the order their links were added."""
    adjacency = {}
    for link in network.links():
        adjacency.setdefault(link.node_a, []).append(link.node_b)
        adjacency.setdefault(link.node_b, []).append(link.node_a)
    first = {}
    frontier = deque([src])
    while frontier:
        current = frontier.popleft()
        for neighbor in adjacency.get(current, ()):
            if neighbor == src or neighbor in first:
                continue
            if not network.link(current, neighbor).up:
                continue
            first[neighbor] = first.get(current, neighbor)
            frontier.append(neighbor)
    return first


class FreshRouting(Network):
    """Reference forwarding: nothing cached, so nothing can be stale."""

    def _hop(self, src, dst):
        next_node = first_hops(self, src).get(dst)
        if next_node is None:
            return None
        return (
            self.link(src, next_node).direction(src),
            next_node,
            partial(self._forward, self.nodes[next_node]),
        )


class Rig:
    """One network under test plus everything observable about it."""

    def __init__(self, network_class):
        self.sim = Simulator(seed=99)
        self.net = network_class(self.sim)
        self.received = []
        self.sent = 0
        for _ in range(6):
            self.add_node()
        for a, b in RING:
            self.net.add_link(a, b, HOP)

    def add_node(self):
        node = self.net.add_node()
        self.bind(node.node_id)
        return node.node_id

    @property
    def edges(self):
        return [(link.node_a, link.node_b) for link in self.net.links()]

    def bind(self, node_id):
        UdpSocket(
            self.net.node(node_id), PORT,
            on_receive=lambda d, n=node_id: self.received.append(
                (self.sim.now, n, d.payload)
            ),
        )

    def apply(self, op):
        net, name, edges = self.net, op[0], self.edges
        n_nodes, n_links = len(net.nodes), len(edges)
        if name == "send":
            src, dst = op[1] % n_nodes, op[2] % n_nodes
            self.sent += 1
            net.send(Datagram(Endpoint(src, PORT), Endpoint(dst, PORT), self.sent, 200))
        elif name == "link":
            net.set_link_state(*edges[op[1] % n_links], up=op[2])
        elif name == "fault":
            net.set_link_fault(*edges[op[1] % n_links], FAULT if op[2] else None)
        elif name == "partition":
            side = {n for n in range(n_nodes) if op[1] >> (n % 6) & 1}
            net.partition(side, set(range(n_nodes)) - side)
        elif name == "heal":
            net.heal()
        elif name == "partition_node":
            net.partition_node(op[1] % n_nodes)
        elif name == "heal_node":
            net.heal_node(op[1] % n_nodes)
        elif name == "crash":
            net.node(op[1] % n_nodes).crash()
        elif name == "restart":
            node = net.node(op[1] % n_nodes)
            if not node.alive:
                node.restart()
                self.bind(node.node_id)
        elif name == "grow":
            net.add_link(op[1] % n_nodes, self.add_node(), HOP)
        self.sim.run_until(self.sim.now + op[-1])

    def link_counters(self):
        return [
            (edge, side, dataclasses.astuple(direction.stats))
            for edge in self.edges
            for side, direction in (
                ("fwd", self.net.link(*edge).forward),
                ("bwd", self.net.link(*edge).backward),
            )
        ]


_pick = st.integers(min_value=0, max_value=1000)
_gap = st.sampled_from([0.0, 0.0005, 0.001, 0.003])
_send = st.tuples(st.just("send"), _pick, _pick, _gap)
_change = st.one_of(
    st.tuples(st.just("link"), _pick, st.booleans(), _gap),
    st.tuples(st.just("fault"), _pick, st.booleans(), _gap),
    st.tuples(st.just("partition"), st.integers(min_value=1, max_value=62), _gap),
    st.tuples(st.just("heal"), _gap),
    st.tuples(st.just("partition_node"), _pick, _gap),
    st.tuples(st.just("heal_node"), _pick, _gap),
    st.tuples(st.just("crash"), _pick, _gap),
    st.tuples(st.just("restart"), _pick, _gap),
    st.tuples(st.just("grow"), _pick, _gap),
)


@given(ops=st.lists(st.one_of(_send, _send, _change), min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_cached_forwarding_equals_routing_fresh_at_every_hop(ops):
    cached, fresh = Rig(Network), Rig(FreshRouting)
    for op in ops:
        cached.apply(op)
        fresh.apply(op)
    cached.sim.run()
    fresh.sim.run()
    # Every hop of every datagram, loss draw and duplicate included.
    assert cached.link_counters() == fresh.link_counters()
    # Same deliveries at the same instants: unreachable and blackholed
    # datagrams vanished in both, or in neither.
    assert cached.received == fresh.received
    # And the tables as they stand after the last change are the
    # all-sources BFS, whichever sources happened to forward.
    net = cached.net
    nodes = range(len(net.nodes))
    first = {src: first_hops(net, src) for src in nodes}
    for src in nodes:
        for dst in nodes:
            expected, at = [], src
            while at != dst and expected is not None:
                step = first[at].get(dst)
                if step is None:
                    expected = None
                else:
                    expected.append((net.link(at, step).direction(at), step))
                    at = step
            assert net.resolve_path(src, dst) == expected
            assert net.reachable(src, dst) == (src == dst or dst in first[src])


def test_change_under_in_flight_datagram_reroutes_blackholes_and_vanishes():
    """The absolute behaviour the differential test compares: decided
    hop by hop, at the time of the hop."""
    rig = Rig(Network)
    net = rig.net
    # 0 -> 3 goes 0-1-2-3 (BFS order).  While the datagram crosses 0->1,
    # cut 1-2: node 1 must reroute it over the 1-4 chord.
    rig.apply(("send", 0, 3, 0.002))
    rig.apply(("link", 1, False, 0.02))  # edge (1, 2)
    assert [(n, p) for _, n, p in rig.received] == [(3, 1)]
    assert net.link(1, 4).forward.stats.delivered_packets == 1
    assert net.link(1, 2).forward.stats.sent_packets == 0
    # A router that crashes under a datagram blackholes it.
    rig.apply(("send", 0, 3, 0.002))
    net.node(1).crash()
    rig.sim.run()
    assert len(rig.received) == 1
    assert net.link(0, 1).forward.stats.delivered_packets == 2
    # A crash leaves the router's links up, so routes still cross it
    # and the next datagram dies there too.
    rig.apply(("send", 0, 3, 0.05))
    assert len(rig.received) == 1
    assert net.link(0, 1).forward.stats.delivered_packets == 3
    # Isolating the destination makes it unreachable: nothing is sent.
    net.node(1).restart()
    net.partition_node(3)
    before = rig.link_counters()
    rig.apply(("send", 0, 3, 0.05))
    assert rig.link_counters() == before
    net.heal_node(3)
    rig.apply(("send", 0, 3, 0.05))
    assert [(n, p) for _, n, p in rig.received] == [(3, 1), (3, 5)]


def test_transmit_replaced_after_traffic_still_sees_every_later_packet():
    """Fault injectors replace ``direction.transmit`` per instance
    (``repro.testing.MessageDropper``): the forwarding table must hold
    the direction, never its bound ``transmit``."""
    rig = Rig(Network)
    net = rig.net
    for _ in range(3):
        rig.apply(("send", 0, 2, 0.0))
    rig.sim.run()
    assert len(rig.received) == 3  # tables for 0 and 1 are compiled now

    direction = net.link(1, 2).direction(1)
    original, seen = direction.transmit, []

    def tapped(datagram, deliver, guaranteed=False):
        seen.append(datagram.payload)
        if datagram.payload != 5:
            original(datagram, deliver, guaranteed)

    direction.transmit = tapped
    for _ in range(3):
        rig.apply(("send", 0, 2, 0.0))
    rig.sim.run()
    assert seen == [4, 5, 6]
    assert [p for _, _, p in rig.received] == [1, 2, 3, 4, 6]
    del direction.transmit
    rig.apply(("send", 0, 2, 0.05))
    assert seen == [4, 5, 6] and rig.received[-1][2] == 7
