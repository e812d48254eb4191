"""Addressing primitives: node identifiers and (node, port) endpoints."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

NodeId = int
"""Nodes are identified by small integers assigned by the Network."""

#: ``@dataclass(slots=True)`` needs Python 3.10; on older interpreters
#: the hot wire types simply keep their __dict__ (correctness is
#: unaffected, only allocation cost).
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, order=True, **DATACLASS_SLOTS)
class Endpoint:
    """A (node, port) pair — the datagram-layer address of a socket.

    Endpoints key the per-packet dicts and sets of every layer, so the
    hash is computed once: exactly the value the generated ``__hash__``
    would return, kept out of ``==``, ordering and ``repr``.
    """

    node: NodeId
    port: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.node, self.port)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The cached hash never travels through pickle (see ProcessId).
        return (Endpoint, (self.node, self.port))

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


# Well-known ports used by the VoD service.  These mirror the role of
# registered port numbers on a real deployment; any free port works, the
# constants just make traces readable.
GCS_PORT = 7000
VIDEO_PORT = 8000
CONTROL_PORT = 8001
