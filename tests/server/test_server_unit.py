"""Unit-level tests of VoDServer internals via a minimal deployment."""

import pytest

from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.placement import StaticPlacement
from repro.service.deployment import Deployment
from repro.service.protocol import ConnectRequest, movie_group
from repro.sim.core import Simulator


def make(n_servers=2, movies=("m",), seed=8):
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=n_servers + 2)
    catalog = MovieCatalog(
        [Movie.synthetic(title, duration_s=60) for title in movies]
    )
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(n_servers))
    )
    return sim, topology, deployment


class TestConnectPath:
    def test_connect_for_unknown_movie_ignored(self):
        sim, topo, deployment = make()
        sim.run_until(2.0)
        server = deployment.server("server0")
        request = ConnectRequest(
            client=server.endpoint.process_id("ghost"),
            movie="not-a-movie",
            video_endpoint=server.video_socket.endpoint,
            session="s.ghost",
        )
        server._on_connect(request)
        assert server.n_clients == 0

    def test_duplicate_connect_is_idempotent(self):
        sim, topo, deployment = make()
        client = deployment.attach_client(2)
        client.request_movie("m")
        sim.run_until(5.0)
        total = sum(s.n_clients for s in deployment.servers.values())
        assert total == 1
        # The client's retry timer may have fired several times already;
        # force one more connect round and re-check.
        client._send_connect()
        sim.run_until(7.0)
        total = sum(s.n_clients for s in deployment.servers.values())
        assert total == 1

    def test_quality_request_propagates_to_session(self):
        sim, topo, deployment = make()
        client = deployment.attach_client(2)
        client.request_movie("m", quality_fps=10)
        sim.run_until(5.0)
        sessions = [
            s for server in deployment.servers.values()
            for s in server.sessions.values()
        ]
        assert sessions and sessions[0].quality_fps == 10


class TestMovies:
    def test_add_movie_on_the_fly(self):
        """"new movies can be added on the fly by storing them on
        machines where servers are running" (Section 7)."""
        sim, topo, deployment = make(movies=("m",))
        sim.run_until(2.0)
        deployment.catalog.add_movie(Movie.synthetic("late", duration_s=30))
        for server in deployment.servers.values():
            server.add_movie("late")
        sim.run_until(4.0)
        client = deployment.attach_client(2)
        client.request_movie("late")
        sim.run_until(10.0)
        assert client.serving_server is not None
        assert client.displayed_total > 100

    def test_movie_group_contains_only_replica_holders(self):
        sim, topo, deployment = make(n_servers=2, movies=("m",))
        sim.run_until(2.0)
        view = deployment.server("server0").endpoint.group_view(
            movie_group("m")
        )
        names = {member.name for member in view.members}
        assert names == {"server0", "server1"}

    def test_partial_replication(self):
        sim = Simulator(seed=8)
        topology = build_lan(sim, n_hosts=4)
        catalog = MovieCatalog([
            Movie.synthetic("a", duration_s=30),
            Movie.synthetic("b", duration_s=30),
        ])
        plan = StaticPlacement.from_server_movies(
            {"s0": ["a"], "s1": ["b"]}
        ).as_plan()
        deployment = Deployment.from_placement(topology, plan, catalog)
        sim.run_until(2.0)
        client = deployment.attach_client(2)
        client.request_movie("b")
        sim.run_until(6.0)
        assert deployment.server("s1").n_clients == 1
        assert deployment.server("s0").n_clients == 0


class TestLifecycle:
    def test_crash_is_idempotent(self):
        sim, topo, deployment = make()
        server = deployment.server("server0")
        server.crash()
        server.crash()
        assert not server.running

    def test_shutdown_is_idempotent(self):
        sim, topo, deployment = make()
        sim.run_until(1.0)
        server = deployment.server("server0")
        server.shutdown()
        server.shutdown()
        assert not server.running

    def test_video_counters_track_traffic(self):
        sim, topo, deployment = make()
        client = deployment.attach_client(2)
        client.request_movie("m")
        sim.run_until(10.0)
        total_frames = sum(
            s.video_frames_sent for s in deployment.servers.values()
        )
        assert total_frames >= client.stats.received > 0

    def test_deployment_name_collisions_rejected(self):
        from repro.errors import ServiceError

        sim, topo, deployment = make()
        with pytest.raises(ServiceError):
            deployment.add_server(0, "server0")
        deployment.attach_client(2, "c")
        with pytest.raises(ServiceError):
            deployment.attach_client(3, "c")

    def test_unknown_lookups_raise(self):
        from repro.errors import ServiceError

        sim, topo, deployment = make()
        with pytest.raises(ServiceError):
            deployment.server("nope")
        with pytest.raises(ServiceError):
            deployment.client("nope")
