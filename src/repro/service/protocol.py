"""Application-level messages of the VoD service.

Control messages travel through the GCS (session-group multicast,
open-group sends to the server group, reliable point-to-point); video
frames travel as raw UDP datagrams carrying :class:`FramePacket`.
Wire-size estimates follow the paper's claim that per-client shared
state is "a few dozen bytes".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.gcs.view import ProcessId
from repro.media.frames import Frame
from repro.net.address import Endpoint
from repro.net.packet import DATACLASS_SLOTS

#: Name of the group containing every VoD server.
SERVER_GROUP = "vod.servers"


def movie_group(title: str) -> str:
    """Group of the servers holding a replica of ``title``."""
    return f"vod.movie.{title}"


def session_group(client_name: str) -> str:
    """Group pairing one client with its current server."""
    return f"vod.session.{client_name}"


# ----------------------------------------------------------------------
# Connection establishment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConnectRequest:
    """Client -> server group (open-group send): start a movie.

    ``resume_offset``/``resume_epoch`` let a client that lost the whole
    service (e.g. a long partition) re-join where it left off instead of
    replaying the movie from the top."""

    client: ProcessId
    movie: str
    video_endpoint: Endpoint
    session: str
    quality_fps: Optional[int] = None
    resume_offset: int = 1
    resume_epoch: int = 0

    def wire_bytes(self) -> int:
        return 72


@dataclass(frozen=True)
class ListMoviesRequest:
    """Client -> server group: what movies are offered?"""

    client: ProcessId

    def wire_bytes(self) -> int:
        return 16


@dataclass(frozen=True)
class ListMoviesReply:
    """Server -> client (reliable p2p): the offered movie titles."""

    titles: Tuple[str, ...]

    def wire_bytes(self) -> int:
        return 8 + sum(len(title) + 2 for title in self.titles)


@dataclass(frozen=True)
class QualityNotice:
    """Server -> client (reliable p2p): admission granted a different
    stream quality than requested (policy degrade under overload).

    The client adopts ``quality_fps`` so its re-ordering logic treats
    the server-skipped frames as intentional gaps, and its reconnects
    carry the granted quality forward."""

    movie: str
    quality_fps: int
    epoch: int = 0

    def wire_bytes(self) -> int:
        return 16 + len(self.movie)


# ----------------------------------------------------------------------
# Flow control (client -> server, session-group multicast)
# ----------------------------------------------------------------------
class FlowKind(enum.Enum):
    INCREASE = "increase"  # +1 frame/s
    DECREASE = "decrease"  # -1 frame/s
    EMERGENCY = "emergency"  # refill quickly


class EmergencyLevel(enum.IntEnum):
    """Two-tier emergencies of Section 4.1."""

    MILD = 1  # occupancy below 30% (base quantity 6)
    SEVERE = 2  # occupancy below 15% (base quantity 12)


@dataclass(frozen=True)
class FlowControlMsg:
    kind: FlowKind
    level: Optional[EmergencyLevel] = None
    occupancy: int = 0  # diagnostic only; the server does not use it

    def wire_bytes(self) -> int:
        return 16


# ----------------------------------------------------------------------
# VCR control (client -> server, session-group multicast)
# ----------------------------------------------------------------------
class VcrOp(enum.Enum):
    PAUSE = "pause"
    RESUME = "resume"
    SEEK = "seek"
    QUALITY = "quality"
    SPEED = "speed"


@dataclass(frozen=True)
class VcrCommand:
    op: VcrOp
    position_s: Optional[float] = None  # for SEEK
    quality_fps: Optional[int] = None  # for QUALITY
    speed: Optional[float] = None  # for SPEED (e.g. 2.0 = fast forward)
    epoch: int = 0  # playback epoch; bumped by each SEEK

    def wire_bytes(self) -> int:
        return 24


# ----------------------------------------------------------------------
# Server state sharing (movie-group multicast, every sync period)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClientRecord:
    """Everything a replica needs to take over a client mid-movie."""

    client: ProcessId
    movie: str
    session: str
    video_endpoint: Endpoint
    offset: int  # next frame index to transmit
    rate_fps: int  # current base transmission rate
    quality_fps: Optional[int]
    paused: bool
    epoch: int
    server: ProcessId  # who currently serves this client
    updated_at: float

    def wire_bytes(self) -> int:
        return 40  # "a few dozens of bytes" per client (paper §5.2)


@dataclass(frozen=True)
class StateSync:
    """A server's periodic snapshot of the clients it serves."""

    server: ProcessId
    movie: str
    records: Tuple[ClientRecord, ...]
    departed: Tuple[ProcessId, ...] = ()

    def wire_bytes(self) -> int:
        return (
            24
            + sum(record.wire_bytes() for record in self.records)
            + 8 * len(self.departed)
        )


@dataclass(frozen=True)
class CohortSync:
    """A server's flyweight viewers for one movie, as *one* batched
    state-share record.

    Steady-state viewers need none of :class:`ClientRecord`'s identity
    fields repeated twice a second: their endpoints and session names
    are immutable after admission (the flyweight pool holds them), so
    the periodic share shrinks to row index + playhead offset — a few
    bytes per viewer in one message per movie group, instead of one
    40-byte record per client.  ``rows`` are pool row indices, sorted;
    ``offsets[i]`` is the next frame index of ``rows[i]`` at ``at``.
    """

    server: ProcessId
    movie: str
    rows: Tuple[int, ...]
    offsets: Tuple[int, ...]
    rate_fps: int
    at: float

    def wire_bytes(self) -> int:
        # ~3B varint row index + ~3B varint offset per viewer.
        return 32 + 6 * len(self.rows)


# ----------------------------------------------------------------------
# Video plane (server -> client, raw UDP)
# ----------------------------------------------------------------------
#: What a :class:`FramePacket` adds to its frame's bytes on the wire.
FRAME_HEADER_BYTES = 16


@dataclass(frozen=True, **DATACLASS_SLOTS)
class FramePacket:
    """One video frame in flight (a single frame per message)."""

    frame: Frame
    epoch: int
    server: ProcessId
    sent_at: float

    def wire_bytes(self) -> int:
        return self.frame.size_bytes + FRAME_HEADER_BYTES


@dataclass(frozen=True)
class EndOfStream:
    """Server -> client: the movie finished."""

    movie: str
    epoch: int

    def wire_bytes(self) -> int:
        return 16
