"""Deployment builder: servers, clients and the catalog on a topology."""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.client.player import ClientConfig, VoDClient
from repro.errors import ServiceError
from repro.gcs.domain import GcsDomain
from repro.media.catalog import MovieCatalog
from repro.net.address import VIDEO_PORT
from repro.net.topologies import Topology
from repro.placement.plan import PlacementPlan
from repro.server.server import ServerConfig, VoDServer


class Deployment:
    """A running VoD service on a simulated network.

    Parameters
    ----------
    topology:
        The network to deploy on (see :mod:`repro.net.topologies`).
    catalog:
        The movies.  When ``replicate_all`` is true every server gets a
        replica of every movie; pass a ``placement`` plan (or build via
        :meth:`from_placement`) to derive the replica map from a
        strategy instead.
    server_nodes:
        Host indices (into ``topology.hosts``) that run servers at start.
    server_config:
        Shared by every server; its ``use_qos`` also installs a
        :class:`~repro.net.qos.QosManager` on the network
        (``deployment.qos``) for the streams' reservations.
    client_config:
        The default for :meth:`attach_client`.  Its ``session_mux``, and
        that of any config passed there, must equal ``server_config``'s
        (:class:`ServiceError` otherwise).
    placement:
        A :class:`~repro.placement.PlacementPlan` consulted by
        :meth:`add_server` for each server's stored titles (full or
        prefix).  Servers unknown to the plan fall back to
        ``replicate_all``.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: MovieCatalog,
        server_nodes: Sequence[int] = (),
        server_config: Optional[ServerConfig] = None,
        client_config: Optional[ClientConfig] = None,
        replicate_all: bool = True,
        fd_timeout: Optional[float] = None,
        placement: Optional[PlacementPlan] = None,
        admission_policy: Optional[Any] = None,
    ) -> None:
        self.topology = topology
        self.network = topology.network
        self.sim = topology.sim
        self.catalog = catalog
        self.server_config = server_config or ServerConfig()
        self.client_config = client_config or ClientConfig()
        self._check_session_mux(self.client_config)
        self.replicate_all = replicate_all
        self.placement = placement
        # One pool-level admission policy shared by every server,
        # present and future (see repro.server.admission); None keeps
        # the historical admit-all behaviour byte-for-byte.
        self.admission_policy = admission_policy
        self.domain = GcsDomain(self.sim, self.network, fd_timeout=fd_timeout)
        self.qos = None
        if self.server_config.use_qos:
            from repro.net.qos import QosManager

            self.qos = QosManager(self.network)
            self.qos.install()
        self.servers: Dict[str, VoDServer] = {}
        self.clients: Dict[str, VoDClient] = {}
        self.flyweight_pools: List[Any] = []
        self._server_counter = 0
        self._client_counter = 0
        # Lifecycle observers attached to every server, present and
        # future (see repro.faulting.InvariantChecker).
        self.server_observers: List[Any] = []
        for host_index in server_nodes:
            self.add_server(host_index)

    def _check_session_mux(self, client_config: ClientConfig) -> None:
        # Either mismatch breaks the control path between the two (a mux
        # server's client never learns who serves it), and a crash stalls it.
        server_mux = self.server_config.session_mux
        if client_config.session_mux != server_mux:
            raise ServiceError(
                f"ServerConfig.session_mux={server_mux} does not match "
                f"ClientConfig.session_mux={client_config.session_mux}"
            )

    # ------------------------------------------------------------------
    # Placement-first construction
    # ------------------------------------------------------------------
    @classmethod
    def from_placement(
        cls,
        topology: Topology,
        plan: PlacementPlan,
        catalog: MovieCatalog,
        server_hosts: Optional[Mapping[str, int]] = None,
        **kwargs: Any,
    ) -> "Deployment":
        """Build a running service from a placement plan.

        The plan is validated against the catalog (every title needs a
        full replica), applied to it, and one server is brought up per
        plan server — on ``server_hosts[name]`` when given, else on
        hosts 0, 1, ... in sorted name order.  The deployment keeps the
        plan (``deployment.placement``) so late servers started by a
        fault plan inherit their assignments too.  Remaining
        keyword arguments go to :class:`Deployment`.
        """
        plan.validate(catalog)
        plan.apply(catalog)
        kwargs.setdefault("replicate_all", False)
        deployment = cls(topology, catalog, placement=plan, **kwargs)
        names = plan.servers()
        if server_hosts is None:
            server_hosts = {name: index for index, name in enumerate(names)}
        for name in names:
            if name not in server_hosts:
                raise ServiceError(f"no host mapping for plan server {name!r}")
            deployment.add_server(server_hosts[name], name=name)
        return deployment

    # ------------------------------------------------------------------
    # Servers
    # ------------------------------------------------------------------
    def add_server(
        self,
        host_index: int,
        name: Optional[str] = None,
    ) -> VoDServer:
        """Bring a server up on the fly on ``topology.hosts[host_index]``.

        The server's stored titles come from the deployment's placement
        plan or — for servers the plan does not know — the
        ``replicate_all`` default.
        """
        if name is None:
            name = f"server{self._server_counter}"
        self._server_counter += 1
        if name in self.servers:
            raise ServiceError(f"server name {name!r} already in use")
        assigned = (
            self.placement.movies_for(name)
            if self.placement is not None
            else None
        )
        if assigned is not None:
            for title, prefix_s in assigned:
                self.catalog.place_replica(title, name, prefix_s=prefix_s)
        elif self.replicate_all:
            for title in self.catalog.titles():
                self.catalog.place_replica(title, name)
        node_id = self.topology.host(host_index)
        node = self.network.node(node_id)
        if not node.alive:
            node.restart()
        server = VoDServer(
            self.domain, node_id, name, self.catalog, self.server_config,
            admission_policy=self.admission_policy,
        )
        server.observers.extend(self.server_observers)
        for pool in self.flyweight_pools:
            server.attach_flyweight(pool)
        self.servers[name] = server
        return server

    def add_server_observer(self, observer: Any) -> None:
        """Attach a lifecycle observer to all servers, present and future."""
        self.server_observers.append(observer)
        for server in self.servers.values():
            server.observers.append(observer)

    def server(self, name: str) -> VoDServer:
        server = self.servers.get(name)
        if server is None:
            raise ServiceError(f"no server named {name!r}")
        return server

    def live_servers(self) -> List[VoDServer]:
        return [server for server in self.servers.values() if server.running]

    def busiest_server(self) -> Optional[VoDServer]:
        """The live server with the most clients, the first in
        ``servers`` order on a tie (None when none is live)."""
        return max(self.live_servers(), key=lambda s: s.n_clients, default=None)

    # ------------------------------------------------------------------
    # Viewers
    # ------------------------------------------------------------------
    def attach_client(
        self,
        host_index: int,
        name: Optional[str] = None,
        config: Optional[ClientConfig] = None,
        endpoint: Optional[Any] = None,
        video_port: Optional[int] = VIDEO_PORT,
    ) -> VoDClient:
        """Attach a :class:`VoDClient` on ``topology.hosts[host_index]``.

        Large deployments can pack many clients onto one host by sharing
        a GCS ``endpoint`` and passing ``video_port=None`` so each client
        binds an ephemeral video port (the edge-concentrator rig of the
        scale experiment does both)."""
        if name is None:
            name = f"client{self._client_counter}"
        self._client_counter += 1
        if name in self.clients:
            raise ServiceError(f"client name {name!r} already in use")
        if config is not None:
            self._check_session_mux(config)
        client = VoDClient(
            self.domain, self.topology.host(host_index), name,
            config or self.client_config,
            endpoint=endpoint, video_port=video_port,
        )
        self.clients[name] = client
        return client

    def client(self, name: str) -> VoDClient:
        client = self.clients.get(name)
        if client is None:
            raise ServiceError(f"no client named {name!r}")
        return client

    def attach_flyweight(self, movie: str):
        """Create a columnar viewer pool for ``movie``, attach it to
        every server — present and future — and return it.

        Steady-state viewers then live as rows served by the servers'
        cohort sessions for their whole movie (see
        :mod:`repro.client.flyweight`); an interactive viewer is a
        :class:`VoDClient` from the start.  One pool per movie."""
        from repro.client.flyweight import FlyweightPool

        if any(pool.movie_title == movie for pool in self.flyweight_pools):
            raise ServiceError(f"{movie!r} already has a flyweight pool")
        pool = FlyweightPool(self, movie)
        self.flyweight_pools.append(pool)
        for server in self.servers.values():
            server.attach_flyweight(pool)
        return pool

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def run_until(self, time: float) -> None:
        self.sim.run_until(time)

    def video_bytes_sent(self) -> int:
        """Video bytes sent by every server, live or crashed."""
        return sum(server.video_bytes_sent for server in self.servers.values())

    def control_bytes_sent(self) -> int:
        """GCS control bytes sent by the servers' and clients' endpoints
        (each once, however many clients share it)."""
        endpoints = {
            member.endpoint
            for members in (self.servers, self.clients)
            for member in members.values()
        }
        return sum(endpoint.control_bytes_sent for endpoint in endpoints)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Deployment servers={sorted(self.servers)} "
            f"clients={sorted(self.clients)}>"
        )
