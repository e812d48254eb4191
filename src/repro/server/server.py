"""The VoD server process.

Responsibilities (paper Sections 3 and 5):

* join the *server group* and answer client connect/catalog requests
  addressed to the abstract group;
* join one *movie group* per replicated movie, multicast per-client
  state there every half second, and on every membership change run the
  deterministic re-distribution so each client is served by exactly one
  live replica;
* per client, join the *session group*, stream frames over UDP at the
  controlled rate, and react to flow-control and VCR commands;
* take over clients of crashed/detached replicas from their last shared
  offset and rate, and shed clients to newly started replicas.

Everything per movie group — the second and fourth bullets — lives in
one :class:`~repro.server.replica.MovieReplica` per title; this module
is the process around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.gcs.domain import GcsDomain
from repro.gcs.endpoint import GcsEndpoint, GroupListener
from repro.gcs.view import ProcessId, View
from repro.media.catalog import MovieCatalog
from repro.net.address import VIDEO_PORT, Endpoint
from repro.net.udp import UdpSocket
from repro.server.rate_controller import EmergencyConfig
from repro.server.replica import MovieReplica
from repro.server.streamer import ClientSession
from repro.service.protocol import (
    SERVER_GROUP,
    ClientRecord,
    ConnectRequest,
    FlowControlMsg,
    ListMoviesReply,
    ListMoviesRequest,
    VcrCommand,
    VcrOp,
)
from repro.sim.process import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.client.flyweight import FlyweightPool


@dataclass(frozen=True)
class ServerConfig:
    """Server tunables, defaulted to the paper's prototype values."""

    sync_interval_s: float = 0.5  # "servers synchronize every 1/2 second"
    emergency: EmergencyConfig = field(default_factory=EmergencyConfig)
    # When true and the network has a QoS manager installed, each
    # session reserves a CBR channel for the stream plus a VBR channel
    # of 40% for emergency periods (the paper's Section 4.1 sizing and
    # its Section 8 ATM plan).
    use_qos: bool = False
    # Session-group multiplexing: when true the server joins no
    # per-client session group.  Flow control and VCR commands arrive
    # point-to-point (routed by sender), migrations are announced by
    # the ``server`` field of the frames themselves, and the movie
    # group's batched state share is the only per-client control-plane
    # traffic.  Must match the clients' ``ClientConfig.session_mux``.
    session_mux: bool = False

    @property
    def freshness_ttl_s(self) -> float:
        """How long a shared record or cohort share vouches for what it
        lists: a served client is re-shared every sync period, so three
        periods without a refresh mean nobody is serving it."""
        return 3.0 * self.sync_interval_s


class VoDServer:
    """One VoD server instance: lifecycle, the video plane, the session
    registry with its flow/VCR control, and one :class:`MovieReplica`
    per movie group it is a member of."""

    def __init__(
        self,
        domain: GcsDomain,
        node_id: int,
        name: str,
        catalog: MovieCatalog,
        config: Optional[ServerConfig] = None,
        endpoint: Optional[GcsEndpoint] = None,
        admission_policy: Optional[Any] = None,
    ) -> None:
        self.domain = domain
        self.sim = domain.sim
        self.name = name
        self.catalog = catalog
        self.config = config or ServerConfig()
        # Pool-level admission policy (see repro.server.admission).
        # None = the historical admit-all path, with no policy hook at
        # all.  The policy object is shared by every replica but only
        # ever consulted by the deterministically chosen owner, so its
        # bucket state cannot diverge between replicas.
        self.admission_policy = admission_policy
        self.endpoint = endpoint or domain.create_endpoint(node_id)
        self.process = self.endpoint.process_id(name)
        self.node_id = self.endpoint.daemon_id
        self.running = True

        self.video_socket = UdpSocket(
            self.domain.network.node(self.node_id), VIDEO_PORT
        )
        self.sessions: Dict[ProcessId, ClientSession] = {}
        self._session_handles: Dict[ProcessId, Any] = {}
        # This server's movie-group memberships by title, in join order
        # (the order the sync tick walks them).  Everything the server
        # knows per title lives on the replica; this is the only
        # attribute keyed by title.
        self.movies: Dict[str, MovieReplica] = {}
        # Flyweight viewer pools attached to this server (see
        # repro.client.flyweight), whether or not it holds their movie
        # yet: a replica created later picks its pool up from here.
        self.pools: List["FlyweightPool"] = []
        self.video_bytes_sent = 0
        self.video_frames_sent = 0
        self.state_sync_bytes_sent = 0
        # Read-only lifecycle observers (see repro.faulting): objects
        # optionally implementing on_server_crash(server, clients),
        # on_server_shutdown(server, clients), on_session_start(server,
        # record, takeover) and on_session_end(server, client, departed).
        self.observers: List[Any] = []

        self._server_group_handle = self.endpoint.join(
            SERVER_GROUP,
            name,
            GroupListener(on_view=self._on_server_group_view),
        )
        self.endpoint.register_open_group_handler(
            SERVER_GROUP, self._on_open_request
        )
        if self.config.session_mux:
            self.endpoint.register_p2p_handler(name, self._on_p2p)
        for title in catalog.movies_of(name):
            self.movies[title] = MovieReplica(self, title)

        self._sync_timer = Timer(
            self.sim,
            self.config.sync_interval_s,
            self._sync_tick,
            start_delay=self.sim.rng(f"server.sync.{name}").uniform(
                0.0, self.config.sync_interval_s
            ),
        )

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def add_movie(self, title: str, prefix_s: Optional[float] = None) -> None:
        """Start serving a replica of ``title`` ("added on the fly").

        ``prefix_s`` stores only the first ``prefix_s`` seconds (an
        edge/prefix cache, see ``repro.placement``): the server admits
        viewers near the start of the title and hands them off to a
        full replica before the playhead leaves the prefix."""
        self.catalog.place_replica(title, self.name, prefix_s=prefix_s)
        if title not in self.movies:
            self.movies[title] = MovieReplica(self, title)

    def drop_movie(self, title: str) -> None:
        """Stop serving a replica of ``title`` (the source side of a
        live migration, see :class:`repro.placement.Rebalancer`).

        A graceful, crash-shaped departure scoped to one movie group:
        current viewers — sessions and rows — get "takeover" spans
        (reason="migration"), the replica hands them over and leaves
        its group (:meth:`MovieReplica.release`), and the surviving
        replicas adopt them through the same machinery a crash
        exercises, minus the detection latency."""
        replica = self.movies.get(title)
        if replica is None:
            return
        self._open_departure_spans(
            "migration", replica.served_clients(), title=title
        )
        replica.release()
        del self.movies[title]
        self.catalog.remove_replica(title, self.name)

    def attach_flyweight(self, pool: "FlyweightPool") -> None:
        """Serve ``pool``'s viewers as flyweight cohort rows.

        Every replica of the pool's movie must attach the same pool
        (Deployment.attach_flyweight does, present and future servers
        alike) — the deterministic placement rules assume all replicas
        can resolve row indices to viewers.  One pool per movie: a
        second one would silently take the first one's connects."""
        title = pool.movie_title
        if any(attached.movie_title == title for attached in self.pools):
            raise ServiceError(
                f"{self.name} already has a flyweight pool for {title!r}"
            )
        self.pools.append(pool)
        replica = self.movies.get(title)
        if replica is not None:
            replica.pool = pool

    def shutdown(self) -> None:
        """Graceful detach: leave all groups so peers react immediately."""
        if not self.running:
            return
        self.running = False
        served = self.served_clients()
        self._open_departure_spans("shutdown", served)
        for client in list(self.sessions):
            self.end_session(client, departed=False)
        for replica in self.movies.values():
            replica.stop()
        self._sync_timer.cancel()
        self.endpoint.shutdown()
        if not self.video_socket.closed:
            self.video_socket.close()
        self.notify("on_server_shutdown", self, served)

    def crash(self) -> None:
        """Fail-stop together with the hosting node."""
        if not self.running:
            return
        self.running = False
        served = self.served_clients()
        self._open_departure_spans("crash", served)
        for session in self.sessions.values():
            session.stop()
        self.sessions.clear()
        for replica in self.movies.values():
            replica.stop()
        self._sync_timer.cancel()
        self.domain.network.node(self.node_id).crash()
        self.endpoint.crash()
        self.notify("on_server_crash", self, served)

    def _open_departure_spans(
        self,
        reason: str,
        clients: Sequence[ProcessId],
        title: Optional[str] = None,
    ) -> None:
        """Open one "takeover" span per client this server stops serving
        (crash, shutdown, or — for the one ``title`` dropped — migration).

        The causal id inherits the ambient cause when the departure
        happens inside a fault-injector episode; a spontaneous departure
        mints its own.  It is then attributed to every served client
        (the client looks it up when the replacement stream reaches it)
        and, when the whole server goes, to the dead node (the failure
        detector looks it up at suspicion time) — that is how the cause
        survives the asynchronous gap between the departure and its
        observable consequences.
        """
        tel = self.sim.telemetry
        whole_server = title is None
        if not tel.active or not (whole_server or clients):
            return
        cause = tel.cause
        if cause is None:
            scope = self.name if whole_server else f"{self.name}.{title}"
            cause = tel.new_cause(f"{reason}.{scope}")
        if whole_server:
            tel.attribute(f"node:{self.node_id}", cause)
        for client in clients:
            tel.attribute(f"client:{client}", cause)
        if whole_server:
            tel.emit(
                f"server.{reason}", server=self.name, served=len(clients),
                cause=cause,
            )
        for client in clients:
            tel.span(
                "takeover", key=str(client),
                reason=reason, from_server=self.name, cause=cause,
            )

    def notify(self, event: str, *args: Any) -> None:
        for observer in self.observers:
            callback = getattr(observer, event, None)
            if callback is not None:
                callback(*args)

    @property
    def n_clients(self) -> int:
        return len(self.sessions) + sum(
            len(replica.cohort)
            for replica in self.movies.values()
            if replica.cohort is not None
        )

    def served_clients(self) -> Tuple[ProcessId, ...]:
        """Every client this server currently serves — full per-client
        sessions and flyweight cohort rows alike."""
        return tuple(
            client
            for replica in self.movies.values()
            for client in replica.served_clients()
        )

    # ==================================================================
    # Video plane
    # ==================================================================
    def send_video(
        self, endpoint: Endpoint, payload: Any, flow_id: Optional[int] = None
    ) -> None:
        if not self.running or self.video_socket.closed:
            return
        size = payload.wire_bytes()
        self.video_bytes_sent += size
        self.video_frames_sent += 1
        self.video_socket.sendto(endpoint, payload, size, flow_id=flow_id)

    # ==================================================================
    # Open-group requests to the server group, dispatched by title
    # ==================================================================
    def _on_server_group_view(self, view: View) -> None:
        """Server-group membership is informational (connect fan-in and
        catalog queries use it); per-movie logic lives in movie groups."""

    def _on_open_request(self, sender: ProcessId, payload: Any) -> None:
        if not self.running:
            return
        if isinstance(payload, ConnectRequest):
            replica = self.movies.get(payload.movie)
            if replica is not None:  # else: we do not hold this movie
                replica.connect(payload)
        elif isinstance(payload, ListMoviesRequest):
            self._on_list_movies(payload)

    def _on_list_movies(self, request: ListMoviesRequest) -> None:
        # Exactly one member answers: the server-group coordinator.
        view = self._server_group_handle.view
        if view is None or view.coordinator != self.process:
            return
        reply = ListMoviesReply(tuple(self.catalog.titles()))
        self.endpoint.send_p2p(
            request.client, reply, reply.wire_bytes(), sender_name=self.name
        )

    def _sync_tick(self) -> None:
        if not self.running:
            return
        for replica in list(self.movies.values()):
            replica.tick()

    # ==================================================================
    # Sessions
    # ==================================================================
    def start_session(self, record: ClientRecord, takeover: bool = False) -> None:
        movie = self.catalog.movie(record.movie)
        session = ClientSession(
            server=self,
            movie=movie,
            client=record.client,
            session_name=record.session,
            video_endpoint=record.video_endpoint,
            start_offset=record.offset,
            rate_fps=record.rate_fps,
            quality_fps=record.quality_fps,
            paused=record.paused,
            epoch=record.epoch,
        )
        self.sessions[record.client] = session
        if not self.config.session_mux:
            listener = GroupListener(
                on_view=lambda view, c=record.client: self._on_session_view(
                    c, view
                ),
                on_message=lambda sender, payload, c=record.client: (
                    self._on_session_message(c, sender, payload)
                ),
            )
            self._session_handles[record.client] = self.endpoint.join(
                record.session, self.name, listener
            )
        self.announce_start(record, takeover)

    def announce_start(
        self, record: ClientRecord, takeover: bool, flyweight: bool = False
    ) -> None:
        """Tell the bus and the observers that ``record.client`` is
        served here from now on — as a full session or (``flyweight``) a
        cohort row: a takeover row closes the handoff span its previous
        owner's departure opened, feeding the same take-over latency
        histogram a full-object takeover would."""
        tel = self.sim.telemetry
        if tel.active:
            # Prefer the cause recorded on the handoff span this start is
            # about to close (the crash/shutdown/rebalance that orphaned
            # the client); fall back to the client's attributed cause or
            # the ambient one (a view-install chain reaching here
            # synchronously).
            # Several reassignment spans can be open for one client (a
            # stale rebalance prediction plus a fresh prefix handoff):
            # the newest one is the operation this start resolves.
            kind, span = "takeover", None
            for candidate in ("takeover", "rebalance", "placement.handoff"):
                open_span = tel.open_span(candidate, key=str(record.client))
                if open_span is not None and (
                    span is None or open_span.start > span.start
                ):
                    kind, span = candidate, open_span
            cause = span.attrs.get("cause") if span is not None else None
            if cause is None:
                cause = tel.cause_for(f"client:{record.client}")
            start_fields = dict(
                server=self.name,
                client=str(record.client),
                movie=record.movie,
                offset=record.offset,
                rate_fps=record.rate_fps,
                takeover=takeover,
            )
            if flyweight:
                start_fields["flyweight"] = True
            if cause is not None:
                tel.attribute(f"client:{record.client}", cause)
                start_fields["cause"] = cause
            tel.emit("server.session.start", **start_fields)
            if takeover and span is not None:
                # Close whichever handoff span the previous owner (or its
                # crash/shutdown path) opened for this client; the latency
                # histogram is the paper's "take-over time" distribution.
                duration = span.end(to_server=self.name)
                if duration is not None:
                    tel.metrics.histogram(f"{kind}.latency_s").observe(duration)
        self.notify("on_session_start", self, record, takeover)

    def end_session(self, client: ProcessId, departed: bool) -> None:
        session = self.sessions.pop(client, None)
        if session is not None:
            session.stop()
            if departed:
                replica = self.movies.get(session.movie.title)
                if replica is not None:
                    replica.state.mark_departed(client, self.sim.now)
            tel = self.sim.telemetry
            if tel.active:
                end_fields = dict(
                    server=self.name, client=str(client), departed=departed,
                )
                cause = tel.cause_for(f"client:{client}")
                if cause is not None:
                    end_fields["cause"] = cause
                tel.emit("server.session.end", **end_fields)
            self.notify("on_session_end", self, client, departed)
        handle = self._session_handles.pop(client, None)
        if handle is not None:
            handle.leave()

    def _on_session_view(self, client: ProcessId, view: View) -> None:
        if not self.running:
            return
        session = self.sessions.get(client)
        if session is None:
            return
        if client not in view.member_set:
            # Only a present -> absent transition means the client is
            # gone; a view without the client *before we ever saw it*
            # is just our own join still converging with the client's
            # side of the session group.  And even then, the transition
            # only counts when the failure detector agrees (or a
            # graceful leave was recorded): a partition-heal flush can
            # race and commit a view excluding a live client.  Tearing
            # the session down on such a view strands the client — stay
            # in the group instead, keep streaming (frames travel over
            # UDP, not the session group), and let the presence union
            # pull the diverged views back together.
            if session.saw_client_in_view:
                departed = self.endpoint.is_tombstoned(
                    session.session_name, client
                ) or not self.endpoint.heard_within(
                    client.node, self.endpoint.fd.timeout
                )
                if departed:
                    self.end_session(client, departed=True)
            return
        session.saw_client_in_view = True
        other_servers = sorted(
            member
            for member in view.members
            if member != client and member != self.process
        )
        if other_servers and min([self.process] + other_servers) != self.process:
            # Two replicas admitted the same client from ledgers that
            # disagreed; the smallest process id keeps it.
            self.end_session(client, departed=False)

    def _on_session_message(
        self, client: ProcessId, sender: ProcessId, payload: Any
    ) -> None:
        if not self.running or sender != client:
            return
        session = self.sessions.get(client)
        if session is None:
            return
        if isinstance(payload, FlowControlMsg):
            session.on_flow_message(payload)
        elif isinstance(payload, VcrCommand):
            self._on_vcr(session, payload)

    def _on_p2p(self, sender: ProcessId, payload: Any) -> None:
        """Session-mux control path: flow / VCR unicasts routed by their
        sender, replacing the per-client session group."""
        if isinstance(payload, (FlowControlMsg, VcrCommand)):
            self._on_session_message(sender, sender, payload)

    def _on_vcr(self, session: ClientSession, command: VcrCommand) -> None:
        if command.op == VcrOp.PAUSE:
            session.pause()
        elif command.op == VcrOp.RESUME:
            session.resume()
        elif command.op == VcrOp.SEEK:
            if command.position_s is None:
                raise ServiceError("SEEK command without a position")
            session.seek(command.position_s, command.epoch)
        elif command.op == VcrOp.QUALITY:
            session.set_quality(command.quality_fps)
        elif command.op == VcrOp.SPEED:
            if command.speed is None:
                raise ServiceError("SPEED command without a factor")
            session.set_speed(command.speed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VoDServer {self.name} node={self.node_id} "
            f"clients={self.n_clients} movies={sorted(self.movies)}>"
        )
