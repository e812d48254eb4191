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
        server._on_open_request(request.client, request)
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


def flyweight_rig():
    """30 flyweight viewers, all connecting at t=0, over 3 servers."""
    from repro.experiments.scale import build_scale_rig

    sim, deployment, pool, _ = build_scale_rig(
        30, mode="flyweight", connect_window_s=0.0
    )
    return sim, deployment, pool


class TestDropMovie:
    """drop_movie releases everything the server held for the title —
    for flyweight rows and queued connects as much as for sessions."""

    def test_drop_while_connects_are_queued(self):
        sim, deployment, pool = flyweight_rig()
        sim.run_until(1.2)
        server = deployment.server("server0")
        replica = server.movies["feature"]
        assert replica.admission.pending() == 30  # the view is settling
        fired, _ = sim.telemetry.collect(prefixes=("sim.fire",))
        server.drop_movie("feature")
        assert "feature" not in server.movies
        assert replica.admission.pending() == 0
        sim.run_until(10.0)
        # The held requests used to stay queued with the drain timer
        # re-arming every sync period for the rest of the run.  Each of
        # the two remaining replicas drains once; nothing else fires.
        drains = [e for e in fired if e.fields["name"].endswith("._drain")]
        assert len(drains) == 2
        assert all(pool.started)
        assert pool.serving_counts() == {"server1": 15, "server2": 15}

    def test_rows_get_the_span_and_the_notification(self):
        sim, deployment, pool = flyweight_rig()
        ends = []

        class EndLog:
            def on_session_end(self, server, client, departed):
                ends.append((server.name, client, departed))

        deployment.add_server_observer(EndLog())
        sim.run_until(4.0)
        server = deployment.server("server0")
        victims = server.served_clients()
        assert len(victims) == 10
        before = pool.positions()
        spans, _ = sim.telemetry.collect(prefixes=("span.",))
        server.drop_movie("feature")
        assert ends == [("server0", client, False) for client in victims]
        opened = [e for e in spans if e.kind == "span.begin"]
        assert [e.fields["key"] for e in opened] == [str(c) for c in victims]
        assert {e.fields["reason"] for e in opened} == {"migration"}
        sim.run_until(4.1)
        # Peers adopt from the final share: the exact playhead, and the
        # adoption closes every span.
        assert len([e for e in spans if e.kind == "span.end"]) == 10
        assert sum(pool.serving_counts().values()) == 30
        for client in victims:
            assert 0 <= pool.positions()[client.name] - before[client.name] <= 3

    def test_title_serves_again_from_a_clean_replica(self):
        sim, deployment, pool = flyweight_rig()
        sim.run_until(4.0)
        server = deployment.server("server0")
        dropped = server.movies["feature"]
        server.drop_movie("feature")
        sim.run_until(6.0)
        server.add_movie("feature")
        fresh = server.movies["feature"]
        assert fresh is not dropped
        assert fresh.pool is pool and fresh.cohort is None
        assert len(fresh.state) == 0 and not fresh.assignment
        sim.run_until(9.0)
        # The join regime hands the returning replica its even share.
        assert pool.serving_counts() == {
            "server0": 10, "server1": 10, "server2": 10,
        }


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
