"""Datagram model.

Payloads are ordinary Python objects (message dataclasses); the wire size
is carried explicitly so bandwidth and serialization-delay modelling do
not depend on actually encoding anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.address import DATACLASS_SLOTS, Endpoint

_packet_ids = itertools.count(1)

#: Fixed per-datagram header overhead we charge on the wire, roughly an
#: IP + UDP header (20 + 8 bytes) — matches the paper's UDP/IP transport.
HEADER_BYTES = 28


@dataclass(**DATACLASS_SLOTS)
class Datagram:
    """One unreliable datagram in flight.

    ``size_bytes`` is the payload size; :meth:`wire_bytes` adds header
    overhead.  ``packet_id`` is unique per send, so duplicates created by
    the link layer can be recognised in traces (receivers must still cope
    with them — the ID is not exposed to protocols).
    """

    src: Endpoint
    dst: Endpoint
    payload: Any
    size_bytes: int
    packet_id: int = field(default_factory=_packet_ids.__next__)
    hops_remaining: int = 64
    # QoS: id of an admitted reservation (see repro.net.qos); packets of
    # a reserved flow that conform to their token bucket ride loss- and
    # queue-drop-free.
    flow_id: Optional[int] = None

    def wire_bytes(self) -> int:
        return self.size_bytes + HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Datagram #{self.packet_id} {self.src}->{self.dst} "
            f"{self.size_bytes}B {type(self.payload).__name__}>"
        )
