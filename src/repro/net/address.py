"""Addressing primitives: node identifiers and (node, port) endpoints."""

from __future__ import annotations

import sys
from typing import NamedTuple

NodeId = int
"""Nodes are identified by small integers assigned by the Network."""

#: ``@dataclass(slots=True)`` needs Python 3.10; on older interpreters
#: the hot wire types simply keep their __dict__ (correctness is
#: unaffected, only allocation cost).
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


class Endpoint(NamedTuple):
    """A (node, port) pair — the datagram-layer address of a socket.

    Endpoints key the per-packet dicts and sets of every layer, so the
    type is a tuple: hash, ``==`` and ordering run in C, with the values
    (and so every set/dict iteration order) of the bare ``(node, port)``
    pair, which an endpoint also equals.
    """

    node: NodeId
    port: int

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


# Well-known ports used by the VoD service.  These mirror the role of
# registered port numbers on a real deployment; any free port works, the
# constants just make traces readable.
GCS_PORT = 7000
VIDEO_PORT = 8000
CONTROL_PORT = 8001
