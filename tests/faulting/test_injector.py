"""FaultInjector: plans fire against a live deployment, targets resolve
at fire time, host-slot bookkeeping follows the vacancy-refill policy."""

import pytest

from repro.errors import FaultError
from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan, IsolateHost
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.sim.core import Simulator


def make_service(k=2, seed=17, movie_s=60.0):
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=k + 2)
    catalog = MovieCatalog([Movie.synthetic("m", duration_s=movie_s)])
    deployment = Deployment(topology, catalog, server_nodes=list(range(k)))
    client = deployment.attach_client(k)
    client.request_movie("m")
    return sim, deployment, client


def test_crash_serving_resolves_victim_at_fire_time():
    sim, deployment, client = make_service()
    plan = FaultPlan().crash_serving(at=15.0)
    injector = FaultInjector(deployment, plan, client=client).start()
    sim.run_until(25.0)
    assert injector.crash_times == [15.0]
    assert len(deployment.live_servers()) == 1
    assert any("crashed" in note for _t, note in injector.fired)
    # The survivor adopted the client.
    assert any(
        client.process in server.sessions
        for server in deployment.live_servers()
    )


def test_server_up_refills_vacated_host_by_default():
    sim, deployment, client = make_service()
    plan = FaultPlan().crash_serving(at=15.0).server_up(at=25.0)
    injector = FaultInjector(deployment, plan, client=client).start()

    sim.run_until(20.0)
    crashed = [s for s in deployment.servers.values() if not s.running]
    assert len(crashed) == 1
    vacated = deployment.topology.hosts.index(crashed[0].node_id)

    sim.run_until(30.0)
    assert injector.server_up_times == [25.0]
    newest = [
        s
        for s in deployment.live_servers()
        if s.node_id == deployment.topology.host(vacated)
    ]
    assert newest, "replacement server should reuse the vacated host"


def test_server_up_explicit_host_claims_fresh_slot():
    sim, deployment, client = make_service()
    plan = FaultPlan().crash_serving(at=15.0).server_up(at=25.0, host=3)
    FaultInjector(deployment, plan, client=client).start()
    sim.run_until(30.0)
    nodes = {s.node_id for s in deployment.live_servers()}
    assert deployment.topology.host(3) in nodes


def test_isolate_and_heal_change_reachability():
    sim, deployment, client = make_service()
    plan = FaultPlan().isolate(10.0, 0).heal_host(12.0, 0)
    FaultInjector(deployment, plan, client=client).start()
    network = deployment.network
    host0 = deployment.topology.host(0)
    host1 = deployment.topology.host(1)
    sim.run_until(11.0)
    assert not network.reachable(host0, host1)
    sim.run_until(13.0)
    assert network.reachable(host0, host1)


def test_partition_and_heal_all():
    """Partition cuts the direct links crossing between the two sides
    (here: a two-host point-to-point topology); HealAll restores them."""
    from types import SimpleNamespace

    from repro.net.link import LinkParams
    from repro.net.network import Network
    from repro.net.topologies import Topology

    sim = Simulator(seed=3)
    network = Network(sim)
    a = network.add_node("a").node_id
    b = network.add_node("b").node_id
    network.add_link(a, b, LinkParams(delay_s=0.001, bandwidth_bps=1e8))
    topology = Topology(network=network, hosts=[a, b])
    deployment = SimpleNamespace(sim=sim, topology=topology, network=network)

    plan = FaultPlan().partition(10.0, [0], [1]).heal_all(12.0)
    FaultInjector(deployment, plan).start()
    sim.run_until(11.0)
    assert not network.reachable(a, b)
    sim.run_until(13.0)
    assert network.reachable(a, b)


def test_start_is_idempotent():
    sim, deployment, client = make_service()
    plan = FaultPlan().crash_serving(at=15.0)
    injector = FaultInjector(deployment, plan, client=client)
    injector.start()
    injector.start()
    sim.run_until(20.0)
    assert len(injector.fired) == 1


def test_every_action_is_logged():
    sim, deployment, client = make_service()
    plan = (
        FaultPlan()
        .false_suspicion(10.0, 0)
        .crash_serving(at=15.0)
        .server_up(at=25.0)
    )
    injector = FaultInjector(deployment, plan, client=client).start()
    sim.run_until(30.0)
    assert len(injector.fired) == len(plan)
    times = [t for t, _note in injector.fired]
    assert times == sorted(times)


def test_crash_named_server_and_restart():
    sim, deployment, client = make_service()
    name = next(iter(deployment.servers))
    plan = FaultPlan().crash(15.0, name).restart(25.0, name)
    injector = FaultInjector(deployment, plan, client=client).start()
    sim.run_until(30.0)
    assert injector.crash_times == [15.0]
    assert injector.server_up_times == [25.0]
    old_node = deployment.server(name).node_id
    assert any(
        s.node_id == old_node and s.running
        for s in deployment.servers.values()
    )


def test_crash_most_loaded_picks_the_busiest_live_server_at_fire_time():
    sim = Simulator(seed=17)
    topology = build_lan(sim, n_hosts=3 + 5)
    catalog = MovieCatalog([Movie.synthetic("m", duration_s=60.0)])
    deployment = Deployment(topology, catalog, server_nodes=[0, 1, 2])
    for host in range(3, 8):
        deployment.attach_client(host).request_movie("m")
    plan = FaultPlan().crash_most_loaded(20.0)
    assert plan.describe() == ["t=  20.00s  crash the most-loaded server"]
    injector = FaultInjector(deployment, plan).start()
    sim.run_until(19.999)
    loads = {name: s.n_clients for name, s in deployment.servers.items()}
    busiest = max(loads, key=loads.get)  # first in servers order on a tie
    assert loads[busiest] > min(loads.values())
    sim.run_until(21.0)
    assert [s.name for s in deployment.servers.values() if not s.running] == [
        busiest
    ]
    assert injector.fired == [
        (20.0, f"crashed {busiest} (most loaded, {loads[busiest]} clients)")
    ]
    assert injector.crash_times == [20.0]


def test_crash_most_loaded_breaks_ties_in_server_order():
    sim = Simulator(seed=17)
    topology = build_lan(sim, n_hosts=3)
    catalog = MovieCatalog([Movie.synthetic("m", duration_s=60.0)])
    deployment = Deployment(topology, catalog, server_nodes=[0, 1, 2])
    plan = FaultPlan().crash_most_loaded(1.0).crash_most_loaded(2.0)
    injector = FaultInjector(deployment, plan).start()
    sim.run_until(3.0)
    assert [s.name for s in deployment.live_servers()] == ["server2"]
    assert [note for _t, note in injector.fired] == [
        "crashed server0 (most loaded, 0 clients)",
        "crashed server1 (most loaded, 0 clients)",
    ]


def test_a_host_index_past_the_topology_is_refused_before_the_run():
    sim, deployment, client = make_service()  # four hosts
    plan = FaultPlan().crash_serving(5.0).isolate(10.0, 99)
    with pytest.raises(FaultError, match=r"IsolateHost at t=10.0 .* host 99"):
        FaultInjector(deployment, plan, client=client)
    assert sim.now == 0.0
    with pytest.raises(FaultError, match="ServerUp"):
        FaultInjector(deployment, FaultPlan().server_up(5.0, host=4))
    with pytest.raises(FaultError, match="host indices >= 0"):
        FaultInjector(
            deployment, FaultPlan(actions=(IsolateHost(1.0, host=-1),))
        )


@pytest.mark.parametrize("plan, note", [
    # A restart of a server that is still up.
    (FaultPlan().restart(10.0, "server0"),
     "host 0 already runs server0; nothing started"),
    # The auto server-up refilled host 0 before the restart came.
    (FaultPlan().crash(10.0, "server0").server_up(12.0).restart(14.0, "server0"),
     "host 0 already runs server2; nothing started"),
    # An explicit server-up onto a live server, and onto the client.
    (FaultPlan().server_up(10.0, host=1),
     "host 1 already runs server1; nothing started"),
    (FaultPlan().server_up(10.0, host=2),
     "host 2 already runs client0; nothing started"),
])
def test_a_server_up_onto_an_occupied_host_is_a_noop(plan, note):
    sim, deployment, client = make_service()
    injector = FaultInjector(deployment, plan, client=client).start()
    servers = len(deployment.live_servers())
    sim.run_until(20.0)
    assert injector.fired[-1] == (plan.horizon, note)
    assert len(deployment.live_servers()) == servers
