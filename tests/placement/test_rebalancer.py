"""Online rebalancer: copy-then-drop migrations over the live service."""

import pytest

from repro.errors import ServiceError
from repro.faulting.invariants import InvariantChecker
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.placement import Rebalancer
from repro.service.deployment import Deployment
from repro.sim.core import Simulator


def make_world(n_servers=3, n_clients=1, movie_s=60.0, seed=11):
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=n_servers + n_clients + 1)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=movie_s)])
    deployment = Deployment(topology, catalog, replicate_all=False)
    for i in range(n_servers):
        deployment.add_server(i, name=f"server{i}")
    # server0 and server1 hold the feature; server2 starts empty.
    deployment.server("server0").add_movie("feature")
    deployment.server("server1").add_movie("feature")
    clients = [
        deployment.attach_client(n_servers + i) for i in range(n_clients)
    ]
    for client in clients:
        client.request_movie("feature")
    return sim, deployment, clients


class TestMigrate:
    def test_live_migration_completes_without_violations(self):
        sim, deployment, (client,) = make_world()
        checker = InvariantChecker(deployment).install()
        rebalancer = Rebalancer(deployment)
        sim.call_at(
            8.0, lambda: rebalancer.migrate("feature", "server0", "server2")
        )
        sim.run_until(25.0)
        checker.stop()
        assert rebalancer.completed == [("feature", "server0", "server2")]
        assert rebalancer.aborted == []
        assert checker.violations == []
        catalog = deployment.catalog
        assert catalog.full_replicas("feature") == {"server1", "server2"}
        assert "feature" not in deployment.server("server0").movies
        assert client.displayed_total > 20 * 30

    def test_migration_emits_placement_spans(self):
        sim, deployment, _ = make_world()
        events, subscription = sim.telemetry.collect(
            prefixes=("placement.", "span.")
        )
        rebalancer = Rebalancer(deployment)
        sim.call_at(
            8.0, lambda: rebalancer.migrate("feature", "server0", "server2")
        )
        sim.run_until(15.0)
        subscription.close()
        kinds = [event.kind for event in events]
        assert "placement.migration.start" in kinds
        assert "placement.migration.complete" in kinds
        spans = [
            event
            for event in events
            if event.kind == "span.end"
            and event.fields.get("span") == "placement.migrate"
        ]
        assert len(spans) == 1
        assert spans[0].fields["outcome"] == "completed"
        histogram = sim.telemetry.metrics.histogram(
            "placement.migrate.latency_s"
        )
        assert histogram.count == 1

    def test_target_crash_aborts_and_source_keeps_replica(self):
        sim, deployment, _ = make_world()
        checker = InvariantChecker(deployment).install()
        rebalancer = Rebalancer(deployment)
        sim.call_at(
            8.0, lambda: rebalancer.migrate("feature", "server0", "server2")
        )
        sim.call_at(9.0, lambda: deployment.server("server2").crash())
        sim.run_until(20.0)
        checker.stop()
        assert rebalancer.aborted == [("feature", "server0", "server2")]
        assert rebalancer.completed == []
        assert checker.violations == []
        assert "feature" in deployment.server("server0").movies

    def test_rejects_bad_endpoints(self):
        sim, deployment, _ = make_world()
        sim.run_until(2.0)
        rebalancer = Rebalancer(deployment)
        with pytest.raises(ServiceError):
            rebalancer.migrate("feature", "server2", "server0")  # no replica
        deployment.server("server2").crash()
        with pytest.raises(ServiceError):
            rebalancer.migrate("feature", "server0", "server2")  # dead target


class TestHeal:
    def test_heal_restores_the_floor_after_a_crash(self):
        sim, deployment, _ = make_world()
        rebalancer = Rebalancer(deployment)
        sim.call_at(8.0, lambda: deployment.server("server1").crash())
        sim.run_until(10.0)
        additions = rebalancer.heal(k=2)
        sim.run_until(16.0)
        assert additions == [("feature", "server2")]
        live = {server.name for server in deployment.live_servers()}
        assert deployment.catalog.full_replicas("feature") & live == {
            "server0", "server2",
        }

    def test_heal_is_idempotent(self):
        sim, deployment, _ = make_world()
        sim.run_until(5.0)
        rebalancer = Rebalancer(deployment)
        assert rebalancer.heal(k=2) == []
