"""Attaching viewers (attach_client, attach_flyweight) and from_placement."""

import pytest

from repro.client.player import VoDClient
from repro.errors import ServiceError
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.placement import PlacementContext, ServerProfile, StaticKWay
from repro.placement.plan import build_zipf_catalog
from repro.service.deployment import Deployment
from repro.sim.core import Simulator


def make_deployment(n_servers=2, n_hosts=6, replicate_all=True):
    sim = Simulator(seed=11)
    topology = build_lan(sim, n_hosts=n_hosts)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=30.0)])
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(n_servers)),
        replicate_all=replicate_all,
    )
    return sim, deployment


class TestAttach:
    def test_full_mode_returns_a_client(self):
        sim, deployment = make_deployment()
        client = deployment.attach_client(2, name="alice")
        assert isinstance(client, VoDClient)
        assert deployment.client("alice") is client
        client.request_movie("feature")
        sim.run_until(8.0)
        assert client.displayed_total > 150

    def test_flyweight_mode_returns_a_pool(self):
        from repro.client.flyweight import FlyweightPool

        sim, deployment = make_deployment()
        pool = deployment.attach_flyweight("feature")
        assert isinstance(pool, FlyweightPool)
        assert pool in deployment.flyweight_pools

    def test_second_pool_for_a_movie_is_rejected(self):
        """A second pool used to overwrite the first on every server:
        the first pool's rows then never started (their connects were
        answered with real sessions streaming at unbound endpoints)."""
        _, deployment = make_deployment()
        deployment.attach_flyweight("feature")
        with pytest.raises(ServiceError):
            deployment.attach_flyweight("feature")
        assert len(deployment.flyweight_pools) == 1
        # Direct server-level attach is guarded too.
        from repro.client.flyweight import FlyweightPool

        with pytest.raises(ServiceError):
            deployment.server("server0").attach_flyweight(
                FlyweightPool(deployment, "feature")
            )


@pytest.mark.parametrize("via", ["Deployment", "attach_client"])
@pytest.mark.parametrize("server_mux, client_mux", [(True, False), (False, True)])
def test_mismatched_session_mux_fails_loudly(via, server_mux, client_mux):
    """Mismatched ``session_mux`` breaks the control path: with a mux
    server and a session-group client the client never learns who
    serves it.  Either way round, a crash of its server at 20 s stalls
    it 0.53 s where matching configs stall it none (LAN, two servers,
    seed 3).  So the mismatch is refused where the configs meet, naming
    both values."""
    from repro.client.player import ClientConfig
    from repro.server.server import ServerConfig

    sim = Simulator(seed=3)
    topology = build_lan(sim, n_hosts=4)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=30.0)])
    configs = dict(
        server_config=ServerConfig(session_mux=server_mux),
        client_config=ClientConfig(session_mux=client_mux),
    )
    with pytest.raises(ServiceError) as raised:
        if via == "Deployment":
            Deployment(topology, catalog, server_nodes=[0, 1], **configs)
        else:
            deployment = Deployment(
                topology, catalog, server_nodes=[0, 1],
                server_config=configs["server_config"],
                client_config=ClientConfig(session_mux=server_mux),
            )
            deployment.attach_client(2, config=configs["client_config"])
    message = str(raised.value)
    assert f"ServerConfig.session_mux={server_mux}" in message
    assert f"ClientConfig.session_mux={client_mux}" in message


class TestFromPlacement:
    def test_replica_map_is_derived_from_the_plan(self):
        sim = Simulator(seed=11)
        topology = build_lan(sim, n_hosts=5)
        catalog = build_zipf_catalog(4, duration_s=20.0)
        profiles = [ServerProfile(name=f"server{i}") for i in range(3)]
        plan = StaticKWay(k=2).build(
            PlacementContext(catalog=catalog, servers=profiles, k=2)
        )
        deployment = Deployment.from_placement(topology, plan, catalog)
        assert sorted(deployment.servers) == ["server0", "server1", "server2"]
        assert deployment.placement is plan
        for title in catalog.titles():
            assert catalog.full_replicas(title) == set(plan.replicas(title))
            assert len(catalog.full_replicas(title)) == 2

    def test_plan_served_catalog_streams(self):
        sim = Simulator(seed=11)
        topology = build_lan(sim, n_hosts=5)
        catalog = build_zipf_catalog(4, duration_s=20.0)
        profiles = [ServerProfile(name=f"server{i}") for i in range(3)]
        plan = StaticKWay(k=2).build(
            PlacementContext(catalog=catalog, servers=profiles, k=2)
        )
        deployment = Deployment.from_placement(topology, plan, catalog)
        client = deployment.attach_client(4)
        client.request_movie(catalog.titles()[0])
        sim.run_until(8.0)
        assert client.displayed_total > 150

    def test_missing_host_mapping_rejected(self):
        sim = Simulator(seed=11)
        topology = build_lan(sim, n_hosts=5)
        catalog = build_zipf_catalog(2, duration_s=20.0)
        profiles = [ServerProfile(name=f"server{i}") for i in range(2)]
        plan = StaticKWay(k=1).build(
            PlacementContext(catalog=catalog, servers=profiles, k=1)
        )
        with pytest.raises(ServiceError):
            Deployment.from_placement(
                topology, plan, catalog, server_hosts={"server0": 0}
            )
