"""Unreliable datagram sockets.

The socket API mirrors classic BSD UDP semantics: ``sendto`` never blocks
and gives no delivery guarantee; received datagrams invoke a callback.
Both the video plane and the GCS control plane of the VoD service use
these sockets.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SocketClosedError
from repro.net.address import Endpoint
from repro.net.node import Node
from repro.net.packet import Datagram

ReceiveFn = Callable[[Datagram], None]


class UdpSocket:
    """An unreliable datagram socket bound to one node and port."""

    def __init__(
        self,
        node: Node,
        port: Optional[int] = None,
        on_receive: Optional[ReceiveFn] = None,
    ) -> None:
        self.node = node
        self.port = node.bind(self, port)
        #: This socket's address: one object for its lifetime, so the
        #: per-packet ``src`` costs no allocation.
        self.endpoint = Endpoint(node.node_id, self.port)
        self.on_receive = on_receive
        self.closed = False
        self.sent_packets = 0
        self.sent_bytes = 0
        self.received_packets = 0
        self.received_bytes = 0

    def sendto(
        self,
        dst: Endpoint,
        payload: Any,
        size_bytes: int,
        flow_id: Optional[int] = None,
    ) -> Datagram:
        """Fire-and-forget send.  Returns the in-flight datagram.

        ``flow_id`` tags the datagram as belonging to a QoS reservation
        (see :mod:`repro.net.qos`)."""
        if self.closed:
            raise SocketClosedError(f"socket {self.endpoint} is closed")
        if size_bytes < 0:
            raise ValueError(f"negative payload size {size_bytes!r}")
        datagram = Datagram(
            src=self.endpoint, dst=dst, payload=payload, size_bytes=size_bytes,
            flow_id=flow_id,
        )
        self.sent_packets += 1
        self.sent_bytes += size_bytes
        self.node.network.send(datagram)
        return datagram

    def sendto_burst(
        self,
        dst: Endpoint,
        send_times,
        sizes,
        build_payload,
        on_abort=None,
        carry_tx_free=None,
    ):
        """Start a precomputed batched transfer toward ``dst``.

        ``send_times`` (nondecreasing) and ``sizes`` give each frame of
        the window its send time and payload size; ``build_payload(i)``
        makes the i-th frame's payload at its delivery.  Returns a
        :class:`repro.net.burst.BurstTransfer`, or ``None`` when the
        current path is not eligible for the fast path (the caller must
        then fall back to per-frame :meth:`sendto`).  Socket counters are
        settled as each frame delivers, so end-of-run totals match the
        per-frame path exactly."""
        if self.closed:
            raise SocketClosedError(f"socket {self.endpoint} is closed")
        from repro.net.burst import start_burst

        return start_burst(
            self.node.network, self, dst, send_times, sizes, build_payload,
            on_abort=on_abort, carry_tx_free=carry_tx_free,
        )

    def handle_datagram(self, datagram: Datagram) -> None:
        """Called by the node when a datagram reaches this socket."""
        if self.closed:
            return
        self.received_packets += 1
        self.received_bytes += datagram.size_bytes
        if self.on_receive is not None:
            self.on_receive(datagram)

    def close(self) -> None:
        """Close the socket; further sends raise, arrivals are dropped."""
        if self.closed:
            return
        self.closed = True
        self.node.unbind(self.port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<UdpSocket {self.endpoint} {state}>"
