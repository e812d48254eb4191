"""Flyweight viewers: steady-state clients as columnar rows.

A steady-state viewer on a clean link exercises none of the client
machinery that makes :class:`~repro.client.player.VoDClient` expensive
at scale — no per-client timers, sockets, buffers or GCS state.  Its
whole observable footprint is (a) the connect handshake and (b) a
playhead the serving server advances deterministically.  The
:class:`FlyweightPool` therefore keeps such viewers as *rows* in
columnar arrays (name, node, video endpoint, last offset) and
lets each server's :class:`~repro.server.streamer.CohortSession`
advance the playheads arithmetically per batch window.  A row stays a
row for life: it never interacts, so a viewer that will pause, seek or
raise emergencies is attached as a full client from the start.

Rows still speak the real protocol where it matters: every row sends a
genuine :class:`~repro.service.protocol.ConnectRequest` through the
abstract server group (with the same 1 s application-level retry the
full client uses), so servers admit flyweight and full-object viewers
through the identical deferred-admission path and arrive at the
identical placement.  To keep the GCS domain small at 100k viewers the
pool concentrates those sends through a bounded number of edge daemons
(:data:`SENDERS_MAX`) instead of one daemon per edge node — every daemon
hears the servers' join, leave and presence broadcasts, so daemon count,
not viewer count, is what the control plane scales with.  (A connect
itself costs one datagram per daemon hosting a server, whoever sends it.)
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.client.player import CONNECT_RETRY_S
from repro.errors import ServiceError
from repro.gcs.view import ProcessId
from repro.net.address import Endpoint
from repro.service.protocol import SERVER_GROUP, ConnectRequest, session_group
from repro.sim.core import Lane

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.deployment import Deployment

#: First fabricated video port per node — clear of the well-known ports
#: (7000/8000 range) and of the ephemeral allocator (49152+), so a
#: row's endpoint never names a full client's real socket.
ROW_PORT_BASE = 30000

#: Edge daemons used as connect concentrators.  Membership discovery
#: (JoinRequest / LeaveRequest / Presence) is broadcast to every daemon
#: in the domain, so this bounds the domain size independently of N.
SENDERS_MAX = 4


class FlyweightPool:
    """Columnar registry of steady-state viewers for one movie.  Its
    connect retry cadence is the full client's."""

    def __init__(self, deployment: "Deployment", movie: str) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.movie_title = movie
        # Columnar row state.  Identity columns are immutable after
        # add_viewer; playheads live in the serving cohorts and only
        # land back here at finish time.
        self.names: List[str] = []
        self.procs: List[ProcessId] = []
        # Video port per row; with the row's node it is the row's video
        # endpoint, built where a message needs one.
        self.video_ports = array("H")
        self.last_offsets: List[int] = []
        self.started: List[bool] = []
        self.finished: List[bool] = []
        self.serving: List[Optional[ProcessId]] = []
        self._senders: List[int] = []  # row -> sender endpoint node
        self._index: Dict[ProcessId, int] = {}
        #: client -> row index and back.  The containers' own lookups,
        #: so a cohort sorting or probing its rows pays no Python frame
        #: per row.  ``index_of`` is None for a client that is no row.
        self.row_of: Callable[[ProcessId], int] = self._index.__getitem__
        self.index_of: Callable[[ProcessId], Optional[int]] = self._index.get
        self.client_of: Callable[[int], ProcessId] = self.procs.__getitem__
        self._by_name: Dict[str, int] = {}
        self._sender_endpoints: Dict[int, object] = {}  # node -> GcsEndpoint
        # The sender nodes in order, once SENDERS_MAX is reached (the
        # set cannot change after that).
        self._sender_order: Tuple[int, ...] = ()
        self._ports_on_node: Dict[int, int] = {}
        self.connects_sent = 0
        # A row's first connect and its retries, each an ordered stream
        # of row indexes: no scheduled connect holds a kernel object.
        self._connects = Lane(self.sim, self._send_connect)
        self._retries = Lane(self.sim, self._send_connect)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_viewer(self, host_index: int, name: Optional[str] = None) -> int:
        """Register one viewer row on ``topology.hosts[host_index]``.

        Returns the row index.  No objects, sockets or timers are
        created: the row exists as one entry in each column."""
        index = len(self.names)
        if name is None:
            name = f"client{index}"
        if name in self._by_name:
            raise ServiceError(f"flyweight viewer {name!r} already exists")
        node_id = self.deployment.topology.host(host_index)
        port = self._ports_on_node.get(node_id, ROW_PORT_BASE)
        self._ports_on_node[node_id] = port + 1
        process = ProcessId(node_id, name)
        self.names.append(name)
        self.procs.append(process)
        self.video_ports.append(port)
        self.last_offsets.append(1)
        self.started.append(False)
        self.finished.append(False)
        self.serving.append(None)
        self._senders.append(self._sender_node_for(index))
        self._index[process] = index
        self._by_name[name] = index
        return index

    def _sender_node_for(self, index: int) -> int:
        """Pick (and lazily start) the connect-concentrator daemon.

        While sender slots remain, each populated edge gets its own
        daemon — at small N the GCS domain is then identical to a
        full-object run (one shared endpoint per edge).  Past the cap,
        rows round-robin over the existing daemons: the domain stays
        ``SENDERS_MAX`` wide no matter how many edges carry viewers."""
        candidate = self.procs[index].node
        if candidate in self._sender_endpoints:
            return candidate
        if len(self._sender_endpoints) < SENDERS_MAX:
            # An edge that also hosts full clients already runs a daemon.
            self._sender_endpoints[candidate] = (
                self.deployment.domain.ensure_endpoint(candidate)
            )
            return candidate
        nodes = self._sender_order
        if not nodes:
            nodes = self._sender_order = tuple(sorted(self._sender_endpoints))
        return nodes[index % len(nodes)]

    def connect_all(self, connect_window_s: float = 0.0) -> None:
        """Send every row's ConnectRequest, spread over the window
        (offset ``i * window / N`` — the scale rig's schedule).  The
        connects wait in one lane."""
        n = len(self.names)
        for index in range(n):
            offset = (index * connect_window_s) / max(1, n)
            self._connects.add(offset, index)

    def _send_connect(self, index: int) -> None:
        """One connect attempt; self-rearms every :data:`CONNECT_RETRY_S`
        until the row is served (the full client's retry loop)."""
        if self.started[index] or self.finished[index]:
            return
        endpoint = self._sender_endpoints[self._senders[index]]
        request = self.connect_request(index)
        endpoint.send_to_group(
            SERVER_GROUP, request, payload_bytes=request.wire_bytes(),
            sender_name=self.names[index],
        )
        self.connects_sent += 1
        self._retries.add(self.sim.now + CONNECT_RETRY_S, index)

    def connect_request(self, index: int) -> ConnectRequest:
        """Row ``index``'s connect, built from its columns: what it sends,
        and what a server admitting a queued row without the delivered
        request hands its admission policy.  Until the row starts, only
        finishing changes its offset, so the two are the same."""
        return ConnectRequest(
            client=self.procs[index],
            movie=self.movie_title,
            video_endpoint=self.video_endpoint(index),
            session=session_group(self.names[index]),
            quality_fps=None,
            resume_offset=self.last_offsets[index],
        )

    # ------------------------------------------------------------------
    # Cohort callbacks (server side), by row index
    # ------------------------------------------------------------------
    def record_fields(self, index: int):
        return (
            session_group(self.names[index]),
            self.video_endpoint(index),
            None,
        )

    def video_endpoint(self, index: int) -> Endpoint:
        return Endpoint(self.procs[index].node, self.video_ports[index])

    def note_started(self, index: int, server: ProcessId) -> None:
        self.started[index] = True
        self.serving[index] = server

    def note_finished(self, index: int, offset: int) -> None:
        self.finished[index] = True
        self.serving[index] = None
        self.last_offsets[index] = offset

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def _cohorts(self):
        """The live servers' cohorts serving this pool's rows."""
        for server in self.deployment.live_servers():
            replica = server.movies.get(self.movie_title)
            if replica is not None and replica.cohort is not None:
                yield replica.cohort

    def positions(self) -> Dict[str, int]:
        """Current playhead per viewer (live rows read their serving
        cohort; finished/unstarted rows their last known offset)."""
        out = {}
        for cohort in self._cohorts():
            for client in cohort.clients():
                out[client.name] = cohort.position_of(client)
        for name, index in self._by_name.items():
            if name not in out:
                out[name] = self.last_offsets[index]
        return out

    def frames_served(self) -> int:
        """Frames the service has (arithmetically) delivered to rows."""
        total = 0
        seen = set()
        for cohort in self._cohorts():
            for client in cohort.clients():
                total += cohort.position_of(client) - 1
                seen.add(client)
        for index in range(len(self.names)):
            if self.procs[index] not in seen and self.started[index]:
                total += self.last_offsets[index] - 1
        return total

    def listing(self) -> Tuple[int, int]:
        """``(unlisted, listed_twice)``: rows no live cohort lists, and
        rows two or more list.  Counted per pool row in one byte each
        (a cohort lists a row once, and no rig runs 255 servers), so a
        million rows cost a megabyte, not a dict of clients."""
        listed = bytearray(len(self.names))
        for cohort in self._cohorts():
            for index in cohort.rows():
                listed[index] += 1
        unlisted = listed.count(0)
        return unlisted, len(listed) - unlisted - listed.count(1)

    def serving_counts(self) -> Dict[str, int]:
        return {
            cohort.server.name: len(cohort) for cohort in self._cohorts()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlyweightPool {self.movie_title!r} rows={len(self.names)}>"
