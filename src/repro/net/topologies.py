"""Canned topologies matching the paper's two test environments.

* :func:`build_lan` — hosts on a 100 Mbps switched Ethernet: one switch,
  star wiring, sub-millisecond latency, no loss, no jitter.  This is the
  Section 6.1 environment.
* :func:`build_wan` — two campuses seven router hops apart on the
  Internet (Hebrew University <-> Tel Aviv University in the paper), with
  per-hop jitter and a small loss probability and no QoS reservation.
  This is the Section 6.2 environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import NetworkError
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.sim.core import Simulator

#: Switched-Ethernet port: 100 Mbps, 100 us one-way, lossless, no jitter.
LAN_LINK = LinkParams(
    delay_s=0.0001, jitter_s=0.0, loss_prob=0.0, bandwidth_bps=100e6
)

#: Metro aggregation trunk: head-end switch to an edge concentrator.
#: 155 Mbps (OC-3 of the era), ~1 ms, clean — the operator owns it.
METRO_LINK = LinkParams(
    delay_s=0.001, jitter_s=0.0, loss_prob=0.0, bandwidth_bps=155e6
)

#: Edge access port: concentrator to a subscriber set-top box.  25 Mbps
#: (ADSL2+/early cable of the era), a few ms, lossless by default —
#: lossy last-mile client mixes inject loss as a fault-plan impairment
#: so the link's own streams stay comparable across cells.
EDGE_LINK = LinkParams(
    delay_s=0.005, jitter_s=0.0, loss_prob=0.0, bandwidth_bps=25e6
)

#: Scale-rig head-end trunk: loss-free and fat enough that a third of a
#: 5 000-viewer load stays far below saturation.
HEADEND_LINK = LinkParams(delay_s=0.0001, bandwidth_bps=40e9)

#: Scale-rig concentrator link: many viewers share it, still loss-free.
CONCENTRATOR_LINK = LinkParams(delay_s=0.0002, bandwidth_bps=10e9)

#: One Internet backbone hop: 34 Mbps (an E3/ATM trunk of the era),
#: a few ms propagation, per-hop jitter, a small loss probability so the
#: end-to-end path loses a fraction of a percent of packets, and rare
#: route-flap detours that reorder packets.
WAN_HOP_LINK = LinkParams(
    delay_s=0.004,
    jitter_s=0.003,
    loss_prob=0.0015,
    bandwidth_bps=34e6,
    reorder_prob=0.002,
    reorder_delay_s=0.12,
)


@dataclass
class Topology:
    """A built network plus the roles of its nodes."""

    network: Network
    hosts: List[int] = field(default_factory=list)
    infrastructure: List[int] = field(default_factory=list)

    @property
    def sim(self) -> Simulator:
        return self.network.sim

    def host(self, index: int) -> int:
        """Node id of the index-th host."""
        return self.hosts[index]


def build_lan(
    sim: Simulator, n_hosts: int, link: LinkParams = LAN_LINK
) -> Topology:
    """A switched Ethernet: ``n_hosts`` hosts in a star around one switch."""
    if n_hosts < 1:
        raise NetworkError(f"a LAN needs at least one host, got {n_hosts}")
    network = Network(sim)
    switch = network.add_node("switch")
    topology = Topology(network=network, infrastructure=[switch.node_id])
    for index in range(n_hosts):
        host = network.add_node(f"host{index}")
        network.add_link(host.node_id, switch.node_id, link)
        topology.hosts.append(host.node_id)
    return topology


def build_wan(
    sim: Simulator,
    n_hosts_site_a: int,
    n_hosts_site_b: int,
    n_router_hops: int = 7,
    lan_link: LinkParams = LAN_LINK,
    wan_link: LinkParams = WAN_HOP_LINK,
) -> Topology:
    """Two LAN sites joined by a chain of ``n_router_hops`` WAN hops.

    Site A's hosts come first in ``hosts``, then site B's.  The hop count
    is the number of WAN links between the two site switches, mirroring
    the paper's "seven hops apart on the Internet".
    """
    if n_hosts_site_a < 1 or n_hosts_site_b < 1:
        raise NetworkError("each WAN site needs at least one host")
    if n_router_hops < 1:
        raise NetworkError(f"need at least one WAN hop, got {n_router_hops}")

    network = Network(sim)
    switch_a = network.add_node("switchA")
    switch_b = network.add_node("switchB")
    topology = Topology(
        network=network, infrastructure=[switch_a.node_id, switch_b.node_id]
    )

    previous = switch_a.node_id
    for index in range(n_router_hops - 1):
        router = network.add_node(f"router{index}")
        topology.infrastructure.append(router.node_id)
        network.add_link(previous, router.node_id, wan_link)
        previous = router.node_id
    network.add_link(previous, switch_b.node_id, wan_link)

    for index in range(n_hosts_site_a):
        host = network.add_node(f"siteA-host{index}")
        network.add_link(host.node_id, switch_a.node_id, lan_link)
        topology.hosts.append(host.node_id)
    for index in range(n_hosts_site_b):
        host = network.add_node(f"siteB-host{index}")
        network.add_link(host.node_id, switch_b.node_id, lan_link)
        topology.hosts.append(host.node_id)
    return topology


def build_hierarchy(
    sim: Simulator,
    n_core_hosts: int,
    n_edge_hosts: int,
    n_concentrators: int = 2,
    core_link: LinkParams = LAN_LINK,
    metro_link: LinkParams = METRO_LINK,
    edge_link: LinkParams = EDGE_LINK,
) -> Topology:
    """An edge-concentrator hierarchy: the cable/ISP deployment shape.

    Servers live on ``n_core_hosts`` hosts behind a head-end core
    switch; ``n_concentrators`` concentrator switches hang off the core
    over metro trunks; ``n_edge_hosts`` subscriber hosts attach to the
    concentrators round-robin over access links.  ``hosts`` lists the
    core hosts first, then the edge hosts — the same "server slots
    first, client hosts last" convention as the other builders.
    """
    if n_core_hosts < 1:
        raise NetworkError(
            f"a hierarchy needs at least one core host, got {n_core_hosts}"
        )
    if n_edge_hosts < 1:
        raise NetworkError(
            f"a hierarchy needs at least one edge host, got {n_edge_hosts}"
        )
    if n_concentrators < 1:
        raise NetworkError(
            f"need at least one concentrator, got {n_concentrators}"
        )
    network = Network(sim)
    core = network.add_node("core-switch")
    topology = Topology(network=network, infrastructure=[core.node_id])
    concentrators: List[int] = []
    for index in range(n_concentrators):
        concentrator = network.add_node(f"concentrator{index}")
        topology.infrastructure.append(concentrator.node_id)
        network.add_link(core.node_id, concentrator.node_id, metro_link)
        concentrators.append(concentrator.node_id)
    for index in range(n_core_hosts):
        host = network.add_node(f"core-host{index}")
        network.add_link(host.node_id, core.node_id, core_link)
        topology.hosts.append(host.node_id)
    for index in range(n_edge_hosts):
        host = network.add_node(f"edge-host{index}")
        concentrator = concentrators[index % n_concentrators]
        network.add_link(host.node_id, concentrator, edge_link)
        topology.hosts.append(host.node_id)
    return topology


def build_edge_lan(sim: Simulator, n_servers: int, n_edges: int) -> Topology:
    """The scale rig's edge-concentrator LAN: one core switch,
    ``n_servers`` head-end hosts and ``n_edges`` concentrator hosts, each
    concentrator standing for the many viewers packed behind it.
    ``hosts[:n_servers]`` are the server slots, ``hosts[n_servers:]``
    the concentrators."""
    network = Network(sim)
    core = network.add_node("core")
    topology = Topology(network=network, infrastructure=[core.node_id])
    for index in range(n_servers):
        host = network.add_node(f"headend{index}")
        network.add_link(host.node_id, core.node_id, HEADEND_LINK)
        topology.hosts.append(host.node_id)
    for index in range(n_edges):
        edge = network.add_node(f"edge{index}")
        network.add_link(edge.node_id, core.node_id, CONCENTRATOR_LINK)
        topology.hosts.append(edge.node_id)
    return topology
