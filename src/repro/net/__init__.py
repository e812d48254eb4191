"""Simulated network substrate.

Provides nodes, point-to-point links with delay/jitter/loss/bandwidth
models, shortest-path routing over an arbitrary topology, network
partitions, and an unreliable datagram (UDP-like) socket API.  The VoD
video plane and the group-communication control plane both run on these
sockets, so loss, reordering and duplication arise from the simulated
transport exactly as they would on a real IP network.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".address": ("Endpoint", "NodeId"),
    ".link": ("Link", "LinkFault", "LinkParams", "LinkStats"),
    ".network": ("Network",),
    ".node": ("Node",),
    ".packet": ("Datagram",),
    ".topologies": ("build_lan", "build_wan"),
    ".udp": ("UdpSocket",),
})
