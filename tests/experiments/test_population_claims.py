"""The paper's single-client transparency, held by a population.

"In such an environment, scalability and fault tolerance will be key
issues": three hand-built rigs (not registry experiments, so not rows
of ``repro-vod gate paper``) — a loaded service staying balanced and
smooth, the most-loaded server crashing under load, and W-1, a
day-in-the-life workload (Zipf demand, Poisson arrivals, viewers with
VCR habits) with a server failure at peak.
"""

from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.sim.core import Simulator
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.driver import WorkloadDriver
from repro.workloads.popularity import ZipfCatalogSampler
from repro.workloads.viewer import ViewerProfile

N_SERVERS = 3


def run_scaled(n_clients, duration_s=40.0, seed=77, crash_at=None):
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=N_SERVERS + n_clients + 1)
    catalog = MovieCatalog(
        [Movie.synthetic("feature", duration_s=duration_s + 20)]
    )
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(N_SERVERS))
    )
    clients = []
    for index in range(n_clients):
        client = deployment.attach_client(N_SERVERS + index)
        client.request_movie("feature")
        clients.append(client)
    if crash_at is not None:
        FaultInjector(deployment, FaultPlan().crash_most_loaded(crash_at)).start()
    sim.run_until(duration_s)
    return deployment, clients


def test_scale_16_clients():
    """16 concurrent viewers on 3 servers: all smooth, load balanced."""
    deployment, clients = run_scaled(16)
    total_stall = sum(c.decoder.stats.stall_time_s for c in clients)
    loads = sorted(s.n_clients for s in deployment.live_servers())
    control = deployment.control_bytes_sent()

    assert sum(loads) == 16
    assert max(loads) - min(loads) <= 2
    assert total_stall <= 1.0
    assert control / deployment.video_bytes_sent() < 0.02


def test_failover_under_load():
    """Crashing the most-loaded server migrates its whole client share
    transparently; takeover effort does not scale with client count."""
    deployment, clients = run_scaled(12, crash_at=20.0)
    survivors = deployment.live_servers()
    loads = sorted(s.n_clients for s in survivors)
    stalls = [c.decoder.stats.stall_time_s for c in clients]

    assert len(survivors) == 2
    assert sum(loads) == 12
    assert max(stalls) <= 1.0  # nobody saw a human-visible freeze


def run_day_in_the_life(n_hosts=12, run_s=90.0):
    sim = Simulator(seed=61)
    topology = build_lan(sim, n_hosts=N_SERVERS + n_hosts)
    titles = [f"movie{i}" for i in range(5)]
    catalog = MovieCatalog(
        [Movie.synthetic(title, duration_s=150.0) for title in titles]
    )
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(N_SERVERS))
    )
    driver = WorkloadDriver(
        deployment,
        client_hosts=list(range(N_SERVERS, N_SERVERS + n_hosts)),
        sampler=ZipfCatalogSampler(titles, alpha=0.9),
        profile=ViewerProfile(
            pause_prob=0.2, seek_prob=0.15, abandon_prob=0.08
        ),
    )
    arrivals = poisson_arrivals(
        sim.rng("w1.arrivals"), rate_per_s=0.25, duration_s=50.0, start_s=1.0
    )
    driver.schedule_arrivals(arrivals)
    # Peak-time failure: kill the most loaded server mid-run.
    sim.call_at(
        45.0,
        lambda: max(
            deployment.live_servers(), key=lambda s: s.n_clients
        ).crash(),
    )
    sim.run_until(run_s)
    return deployment, driver


def test_w1_day_in_the_life():
    deployment, driver = run_day_in_the_life()
    stats = driver.stats()

    assert stats.n_viewers >= 8
    # The headline: nobody saw a visible freeze, despite churny viewers
    # and a server crash at peak load.
    assert stats.viewers_with_visible_stall == 0
    assert stats.worst_stall_s <= 1.0
    assert stats.skip_fraction < 0.02
    # Zipf demand: the top title got at least as many requests as the
    # tail title.
    requests = stats.requests_per_title
    assert requests.get("movie0", 0) >= requests.get("movie4", 0)
    # The crash actually happened and the survivors absorbed the load.
    assert len(deployment.live_servers()) == N_SERVERS - 1
