"""Regression tests for membership-churn corner cases.

These scenarios were found by running the elastic-pool example: clients
orphaned across back-to-back server joins, lost view commits under
bursty flush traffic, and multi-movie load spreading.
"""

from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.sim.core import Simulator


def make_two_movie_service(n_clients=6, seed=42):
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=3 + n_clients)
    catalog = MovieCatalog(
        [
            Movie.synthetic("news", duration_s=300),
            Movie.synthetic("feature", duration_s=300),
        ]
    )
    deployment = Deployment(topology, catalog, server_nodes=[0])
    clients = []
    for index in range(n_clients):
        client = deployment.attach_client(3 + index)
        client.request_movie("news" if index % 2 else "feature")
        clients.append(client)
    return sim, deployment, clients


def schedule(deployment, plan):
    FaultInjector(deployment, plan).start()


def assert_every_client_served_once(deployment, clients):
    served = {}
    for server in deployment.live_servers():
        for client_pid in server.sessions:
            served.setdefault(client_pid, []).append(server.name)
    for client in clients:
        if client.finished:
            continue
        owners = served.get(client.process, [])
        assert owners != [], f"{client.name} is orphaned"
        assert len(owners) == 1, f"{client.name} served twice: {owners}"


class TestBackToBackJoins:
    def test_no_client_orphaned_after_two_joins(self):
        """Two servers brought up 10 s apart (the flush replays state
        to each joiner) must not leave any client unserved."""
        sim, deployment, clients = make_two_movie_service()
        schedule(
            deployment, FaultPlan().server_up(40.0, host=1).server_up(50.0, host=2)
        )
        sim.run_until(80.0)
        assert_every_client_served_once(deployment, clients)
        for client in clients:
            assert client.decoder.stats.stall_time_s <= 1.0, client.name

    def test_joiners_views_install_despite_state_transfer_burst(self):
        """The ViewCommit must survive the state-transfer burst (it was
        once tail-dropped and never re-sent)."""
        from repro.service.protocol import movie_group

        sim, deployment, clients = make_two_movie_service()
        schedule(deployment, FaultPlan().server_up(40.0, host=1))
        sim.run_until(45.0)
        for title in ("news", "feature"):
            view = deployment.server("server1").endpoint.group_view(
                movie_group(title)
            )
            assert view is not None, f"no view for {title}"
            assert len(view.members) == 2

    def test_loads_spread_after_joins(self):
        sim, deployment, clients = make_two_movie_service()
        schedule(
            deployment, FaultPlan().server_up(40.0, host=1).server_up(50.0, host=2)
        )
        sim.run_until(80.0)
        loads = sorted(s.n_clients for s in deployment.live_servers())
        assert sum(loads) == len(clients)
        assert loads[-1] - loads[0] <= 2


class TestDetachChurn:
    def test_join_then_detach_keeps_everyone_served(self):
        sim, deployment, clients = make_two_movie_service()
        schedule(
            deployment, FaultPlan().server_up(40.0, host=1).stop(70.0, "server1")
        )
        sim.run_until(100.0)
        assert_every_client_served_once(deployment, clients)
        total_stall = sum(c.decoder.stats.stall_time_s for c in clients)
        assert total_stall <= 1.0

    def test_crash_during_settle_window(self):
        """A server crash right after another server's join exercises
        the orphan-repair path."""
        sim, deployment, clients = make_two_movie_service()
        schedule(
            deployment, FaultPlan().server_up(40.0, host=1).crash(40.6, "server0")
        )
        sim.run_until(80.0)
        assert_every_client_served_once(deployment, clients)


class TestOrphanRepair:
    def test_stale_record_is_reclaimed(self):
        """A record whose server field points at a live server that is
        not actually serving gets re-admitted within a few sync
        periods (the anti-orphan staleness rule)."""
        sim, deployment, clients = make_two_movie_service(n_clients=2)
        sim.run_until(10.0)
        server = deployment.server("server0")
        victim = clients[0]
        # Simulate the lost-session pathology directly: drop the session
        # without marking the client departed.
        session = server.sessions.pop(victim.process)
        session.stop()
        handle = server._session_handles.pop(victim.process)
        handle.leave()
        sim.run_until(16.0)
        assert victim.process in server.sessions  # reclaimed
        assert victim.decoder.stats.stall_time_s <= 1.5
