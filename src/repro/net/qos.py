"""QoS reservations — the paper's Section 8 future work, implemented.

The paper closes: "We intend to port and test the VoD service over ATM
networks: The video material will be transmitted via native ATM
connections", and Section 4.1 sizes the reservation: a **CBR channel**
for the steady stream plus a **VBR channel** "varying to at most 40% of
the constant bit rate" for emergency periods.

The model here is admission-controlled per-link bandwidth reservation
with token-bucket policing:

* a :class:`FlowReservation` claims ``cbr_bps + vbr_bps`` along the
  links of one path; admission fails if any link's reservable share
  (``reservable_fraction`` of its capacity) would be exceeded;
* datagrams tagged with a reserved flow id that *conform* to the
  token bucket traverse links without loss, queue drops or detours
  (the reserved slots are theirs);
* non-conforming packets of a reserved flow, and all unreserved
  traffic, get today's best-effort treatment.

Propagation delay and serialization are still charged — reservations
buy loss-freedom and queue-immunity, not magic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.network import Network
from repro.sim.core import Simulator

_flow_ids = itertools.count(1)


@dataclass
class _TokenBucket:
    """Token bucket policing one flow on one link direction."""

    rate_bps: float
    burst_bits: float
    tokens: float
    last_refill: float

    def conforms(self, now: float, bits: float) -> bool:
        elapsed = now - self.last_refill
        self.tokens = min(self.burst_bits, self.tokens + elapsed * self.rate_bps)
        self.last_refill = now
        if self.tokens >= bits:
            self.tokens -= bits
            return True
        return False


@dataclass
class FlowReservation:
    """An admitted CBR+VBR reservation along one path."""

    flow_id: int
    src: int
    dst: int
    cbr_bps: float
    vbr_bps: float
    links: List[Tuple[int, int]] = field(default_factory=list)
    released: bool = False

    @property
    def total_bps(self) -> float:
        return self.cbr_bps + self.vbr_bps


class QosManager:
    """Admission control and policing state for one network.

    Attach with :meth:`install`; the link layer consults
    :meth:`admit_packet` for every datagram carrying a ``flow_id``.
    """

    #: Fraction of each link's capacity available to reservations.
    DEFAULT_RESERVABLE_FRACTION = 0.8

    def __init__(
        self,
        network: Network,
        reservable_fraction: float = DEFAULT_RESERVABLE_FRACTION,
    ) -> None:
        if not 0 < reservable_fraction <= 1.0:
            raise NetworkError(
                f"reservable fraction must be in (0,1], got {reservable_fraction!r}"
            )
        self.network = network
        self.sim: Simulator = network.sim
        self.reservable_fraction = reservable_fraction
        self.reservations: Dict[int, FlowReservation] = {}
        # Reserved bits/s per directed link (u, v).
        self._committed: Dict[Tuple[int, int], float] = {}
        # Token buckets per (directed link, flow).
        self._buckets: Dict[Tuple[Tuple[int, int], int], _TokenBucket] = {}
        self.rejected_admissions = 0
        self.policed_packets = 0
        self.guaranteed_packets = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Register this manager with the network's links."""
        self.network.qos = self

    # ------------------------------------------------------------------
    # Reservation lifecycle
    # ------------------------------------------------------------------
    def reserve(
        self, src: int, dst: int, cbr_bps: float, vbr_bps: float = 0.0
    ) -> Optional[FlowReservation]:
        """Admit a flow along the current src->dst path, or None."""
        if cbr_bps <= 0 or vbr_bps < 0:
            raise NetworkError("reservation rates must be positive")
        path = self._path(src, dst)
        if path is None:
            return None
        demand = cbr_bps + vbr_bps
        for hop in path:
            capacity = self._link_capacity(hop)
            if self._committed.get(hop, 0.0) + demand > (
                capacity * self.reservable_fraction
            ):
                self.rejected_admissions += 1
                return None
        reservation = FlowReservation(
            flow_id=next(_flow_ids),
            src=src,
            dst=dst,
            cbr_bps=cbr_bps,
            vbr_bps=vbr_bps,
            links=path,
        )
        for hop in path:
            self._committed[hop] = self._committed.get(hop, 0.0) + demand
            self._buckets[(hop, reservation.flow_id)] = _TokenBucket(
                rate_bps=demand,
                burst_bits=max(demand * 0.25, 64_000),
                tokens=max(demand * 0.25, 64_000),
                last_refill=self.sim.now,
            )
        self.reservations[reservation.flow_id] = reservation
        return reservation

    def release(self, reservation: FlowReservation) -> None:
        if reservation.released:
            return
        reservation.released = True
        self.reservations.pop(reservation.flow_id, None)
        for hop in reservation.links:
            self._committed[hop] = max(
                0.0, self._committed.get(hop, 0.0) - reservation.total_bps
            )
            self._buckets.pop((hop, reservation.flow_id), None)

    def committed_on(self, node_a: int, node_b: int) -> float:
        return self._committed.get((node_a, node_b), 0.0)

    # ------------------------------------------------------------------
    # Data path (called by the link layer)
    # ------------------------------------------------------------------
    def admit_packet(
        self, from_node: int, to_node: int, flow_id: int, wire_bytes: int
    ) -> bool:
        """True if this packet rides its reservation on this hop."""
        bucket = self._buckets.get(((from_node, to_node), flow_id))
        if bucket is None:
            return False
        if bucket.conforms(self.sim.now, wire_bytes * 8.0):
            self.guaranteed_packets += 1
            return True
        self.policed_packets += 1
        return False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _path(self, src: int, dst: int) -> Optional[List[Tuple[int, int]]]:
        """Directed hops of the current routing path src -> dst."""
        path = self.network.resolve_path(src, dst)
        if path is None:
            return None
        nodes = [src] + [to_node for _direction, to_node in path]
        return list(zip(nodes, nodes[1:]))

    def _link_capacity(self, hop: Tuple[int, int]) -> float:
        link = self.network.link(*hop)
        return link.direction(hop[0]).params.bandwidth_bps
