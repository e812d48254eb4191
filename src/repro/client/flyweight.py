"""Flyweight viewers: steady-state clients as columnar rows.

A steady-state viewer on a clean link exercises none of the client
machinery that makes :class:`~repro.client.player.VoDClient` expensive
at scale — no per-client timers, sockets, buffers or GCS state.  Its
whole observable footprint is (a) the connect handshake and (b) a
playhead the serving server advances deterministically.  The
:class:`FlyweightPool` therefore keeps such viewers as *rows* in
columnar arrays (name, node, video endpoint, epoch, buffer level) and
lets each server's :class:`~repro.server.streamer.CohortSession`
advance the playheads arithmetically per batch window.

Rows still speak the real protocol where it matters: every row sends a
genuine :class:`~repro.service.protocol.ConnectRequest` through the
abstract server group (with the same 1 s application-level retry the
full client uses), so servers admit flyweight and full-object viewers
through the identical deferred-admission path and arrive at the
identical placement.  To keep the GCS domain small at 100k viewers the
pool concentrates those sends through a bounded number of edge daemons
(``senders_max``) instead of one daemon per edge node — every daemon
hears the servers' join, leave and presence broadcasts, so daemon count,
not viewer count, is what the control plane scales with.  (A connect
itself costs one datagram per daemon hosting a server, whoever sends it.)

Interaction is the escape hatch: :meth:`FlyweightPool.promote` turns a
row into a full :class:`VoDClient` (real socket on the row's node and
port, software buffer seeded with the frames the row notionally holds)
served by a real per-client session, and :meth:`FlyweightPool.demote`
folds the client back into a row, capturing its offset, epoch, pause
state and buffer level.  Steady-state viewing costs O(1) per batch
window; VCR ops, emergencies and debugging cost the full price only
while they last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.client.player import ClientConfig, VoDClient
from repro.errors import ServiceError, SessionError
from repro.gcs.view import ProcessId
from repro.net.address import Endpoint
from repro.service.protocol import SERVER_GROUP, ConnectRequest, session_group

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.deployment import Deployment

#: First fabricated video port per node — clear of the well-known ports
#: (7000/8000 range) and of the ephemeral allocator (49152+), so a
#: promoted row can bind its fabricated port as a real socket.
ROW_PORT_BASE = 30000

#: Frames a steady-state row notionally buffers (seeded into the
#: software buffer at promotion, truncated to its capacity).
BUFFER_TARGET_FRAMES = 300


@dataclass(frozen=True)
class FlyweightConfig:
    """Pool tunables.  Connect behaviour (the retry cadence) is the full
    client's: it comes from the pool's ``client_config``."""

    # Edge daemons used as connect concentrators.  Membership discovery
    # (JoinRequest / LeaveRequest / Presence) is broadcast to every
    # daemon in the domain, so this bounds the domain size
    # independently of N.
    senders_max: int = 4


class FlyweightPool:
    """Columnar registry of steady-state viewers for one movie."""

    def __init__(
        self,
        deployment: "Deployment",
        movie: str,
        config: Optional[FlyweightConfig] = None,
        client_config: Optional[ClientConfig] = None,
    ) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.movie_title = movie
        self.config = config or FlyweightConfig()
        # Configuration a promoted row's full client is built with.
        self.client_config = client_config or ClientConfig(session_mux=True)
        if not self.client_config.session_mux:
            raise ServiceError(
                "flyweight pools require session_mux clients (a promoted "
                "row cannot join a session group the servers ignore)"
            )
        # Columnar row state.  Identity columns are immutable after
        # add_viewer; playheads live in the serving cohorts and only
        # land back here at finish/demote time.
        self.names: List[str] = []
        self.procs: List[ProcessId] = []
        self.video_endpoints: List[Endpoint] = []
        self.epochs: List[int] = []
        self.buffer_frames: List[int] = []
        self.last_offsets: List[int] = []
        self.started: List[bool] = []
        self.finished: List[bool] = []
        self.serving: List[Optional[ProcessId]] = []
        self._senders: List[int] = []  # row -> sender endpoint node
        self._index: Dict[ProcessId, int] = {}
        #: client -> row index and back.  The containers' own lookups,
        #: so a cohort sorting or probing its rows pays no Python frame
        #: per row.
        self.row_of: Callable[[ProcessId], int] = self._index.__getitem__
        self.client_of: Callable[[int], ProcessId] = self.procs.__getitem__
        self._by_name: Dict[str, int] = {}
        self._promoted: Dict[int, VoDClient] = {}
        self._sender_endpoints: Dict[int, object] = {}  # node -> GcsEndpoint
        self._ports_on_node: Dict[int, int] = {}
        self.connects_sent = 0

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
        self.video_endpoints.append(Endpoint(node_id, port))
        self.epochs.append(0)
        self.buffer_frames.append(0)
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
        ``senders_max`` wide no matter how many edges carry viewers."""
        candidate = self.procs[index].node
        if candidate in self._sender_endpoints:
            return candidate
        if len(self._sender_endpoints) < self.config.senders_max:
            # An edge that also hosts full clients already runs a daemon.
            self._sender_endpoints[candidate] = (
                self.deployment.domain.ensure_endpoint(candidate)
            )
            return candidate
        nodes = sorted(self._sender_endpoints)
        return nodes[index % len(nodes)]

    def connect_all(self, connect_window_s: float = 0.0) -> None:
        """Send every row's ConnectRequest, spread over the window
        (offset ``i * window / N`` — the scale rig's schedule)."""
        n = len(self.names)
        for index in range(n):
            offset = (index * connect_window_s) / max(1, n)
            self.sim.call_at(offset, self._send_connect, index)

    def _send_connect(self, index: int) -> None:
        """One connect attempt; self-rearms every ``connect_retry_s``
        until the row is served (the full client's retry loop)."""
        if self.started[index] or self.finished[index] or index in self._promoted:
            return
        endpoint = self._sender_endpoints[self._senders[index]]
        request = ConnectRequest(
            client=self.procs[index],
            movie=self.movie_title,
            video_endpoint=self.video_endpoints[index],
            session=session_group(self.names[index]),
            quality_fps=None,
            resume_offset=self.last_offsets[index],
            resume_epoch=self.epochs[index],
        )
        endpoint.send_to_group(
            SERVER_GROUP, request, payload_bytes=request.wire_bytes(),
            sender_name=self.names[index],
        )
        self.connects_sent += 1
        self.sim.call_after(
            self.client_config.connect_retry_s, self._send_connect, index
        )

    # ------------------------------------------------------------------
    # Cohort callbacks (server side)
    # ------------------------------------------------------------------
    def owns(self, client: ProcessId) -> bool:
        index = self._index.get(client)
        return index is not None and index not in self._promoted

    def record_fields(self, client: ProcessId):
        index = self._index[client]
        return (
            session_group(self.names[index]),
            self.video_endpoints[index],
            None,
        )

    def epoch_of(self, client: ProcessId) -> int:
        return self.epochs[self._index[client]]

    def last_offset(self, client: ProcessId) -> int:
        return self.last_offsets[self._index[client]]

    def note_started(self, client: ProcessId, server: ProcessId) -> None:
        index = self._index[client]
        self.started[index] = True
        self.serving[index] = server
        if self.buffer_frames[index] < BUFFER_TARGET_FRAMES:
            self.buffer_frames[index] = BUFFER_TARGET_FRAMES

    def note_finished(self, client: ProcessId, offset: int) -> None:
        index = self._index[client]
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
            for client in cohort.rows:
                out[client.name] = cohort.position_of(client)
        for index, client in self._promoted.items():
            out[self.names[index]] = client.decoder.stats.last_displayed_index + 1
        for name, index in self._by_name.items():
            if name not in out:
                out[name] = self.last_offsets[index]
        return out

    def frames_served(self) -> int:
        """Frames the service has (arithmetically) delivered to rows."""
        total = 0
        seen = set()
        for cohort in self._cohorts():
            for client in cohort.rows:
                total += cohort.position_of(client) - 1
                seen.add(client)
        for index in range(len(self.names)):
            if self.procs[index] not in seen and self.started[index]:
                total += self.last_offsets[index] - 1
        return total

    def serving_counts(self) -> Dict[str, int]:
        return {
            cohort.server.name: len(cohort.rows) for cohort in self._cohorts()
        }

    # ------------------------------------------------------------------
    # Promotion / demotion
    # ------------------------------------------------------------------
    def promote(self, name: str) -> VoDClient:
        """Inflate a row into a full client for interaction.

        The serving server converts the cohort row into a real
        per-client session in place (same offset, same epoch); the new
        client binds the row's advertised video endpoint and has its
        software buffer seeded with the frames the row notionally
        holds, so playback continues without a connect handshake."""
        index = self._by_name.get(name)
        if index is None:
            raise SessionError(f"no flyweight viewer named {name!r}")
        if index in self._promoted:
            raise SessionError(f"viewer {name!r} is already promoted")
        process = self.procs[index]
        server = self._server_of(process)
        if server is None:
            raise SessionError(f"viewer {name!r} is not currently served")
        node_id = process.node
        endpoint = self._sender_endpoints.get(node_id)
        if endpoint is None or endpoint.closed:
            endpoint = self.deployment.domain.ensure_endpoint(node_id)
            self._sender_endpoints[node_id] = endpoint
        client = VoDClient(
            self.deployment.domain,
            node_id,
            name,
            config=self.client_config,
            endpoint=endpoint,
            video_port=self.video_endpoints[index].port,
        )
        # Mark promoted before the server swaps the row for a session,
        # so owns() already answers False for the in-flight record.
        self._promoted[index] = client
        record = server.movies[self.movie_title].promote_row(process)
        movie = self.deployment.catalog.movie(self.movie_title)
        buffered = []
        depth = min(
            self.buffer_frames[index],
            self.client_config.sw_capacity_frames,
            record.offset - 1,
        )
        for frame_index in range(record.offset - depth, record.offset):
            buffered.append(movie.frame(frame_index))
        client.adopt_session(
            self.movie_title,
            serving_server=record.server,
            offset=record.offset,
            epoch=record.epoch,
            buffered=buffered,
        )
        return client

    def demote(self, client: VoDClient) -> int:
        """Fold a promoted client back into its row.

        Captures offset, epoch, pause state and buffer level from the
        live session, tears the full client down, and re-seats the row
        in the serving server's cohort.  Returns the row index."""
        index = self._by_name.get(client.name)
        if index is None or self._promoted.get(index) is not client:
            raise SessionError(f"{client.name!r} is not a promoted viewer")
        process = self.procs[index]
        server = self._server_of(process)
        if server is None:
            raise SessionError(
                f"viewer {client.name!r} has no live server to return to"
            )
        self.buffer_frames[index] = min(
            client.combined_occupancy, BUFFER_TARGET_FRAMES
        )
        self.epochs[index] = client.epoch
        del self._promoted[index]
        record = server.movies[self.movie_title].demote_session(process)
        self.epochs[index] = record.epoch
        self.last_offsets[index] = record.offset
        client.stop()
        return index

    def _server_of(self, process: ProcessId):
        """The live server whose session or cohort holds this viewer."""
        for server in self.deployment.live_servers():
            if process in server.sessions:
                return server
        for cohort in self._cohorts():
            if process in cohort.rows:
                return cohort.server
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlyweightPool {self.movie_title!r} rows={len(self.names)} "
            f"promoted={len(self._promoted)}>"
        )
