"""W-1 — a day-in-the-life workload: Zipf demand, Poisson arrivals,
human viewers with VCR habits, and a server failure at peak.

The population-scale version of the paper's single-client evaluation:
whatever the viewers do and whichever server dies, nobody sees a freeze.
"""

from conftest import show

from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.sim.core import Simulator
from repro.telemetry.text import Table
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.driver import WorkloadDriver
from repro.workloads.popularity import ZipfCatalogSampler
from repro.workloads.viewer import ViewerProfile

N_HOSTS = 12
N_SERVERS = 3
RUN_S = 90.0


def run_day_in_the_life():
    sim = Simulator(seed=61)
    topology = build_lan(sim, n_hosts=N_SERVERS + N_HOSTS)
    titles = [f"movie{i}" for i in range(5)]
    catalog = MovieCatalog(
        [Movie.synthetic(title, duration_s=150.0) for title in titles]
    )
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(N_SERVERS))
    )
    driver = WorkloadDriver(
        deployment,
        client_hosts=list(range(N_SERVERS, N_SERVERS + N_HOSTS)),
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
    sim.run_until(RUN_S)
    return sim, deployment, driver


def test_w1_day_in_the_life(benchmark):
    sim, deployment, driver = benchmark.pedantic(
        run_day_in_the_life, rounds=1, iterations=1
    )
    stats = driver.stats()
    table = Table(
        "W-1 — Zipf/Poisson population with a peak-time server crash",
        ["metric", "value"],
    )
    table.add_row("viewers admitted", stats.n_viewers)
    table.add_row("busy signals", driver.skipped_arrivals)
    table.add_row("abandoned (by choice)", stats.n_abandoned)
    table.add_row("requests per title", str(stats.requests_per_title))
    table.add_row("frames displayed", stats.total_displayed)
    table.add_row("skip fraction", f"{stats.skip_fraction:.4f}")
    table.add_row("mean stall (s)", f"{stats.mean_stall_s:.2f}")
    table.add_row("worst stall (s)", f"{stats.worst_stall_s:.2f}")
    table.add_row(
        "viewers who saw a freeze", stats.viewers_with_visible_stall
    )
    show(table.render())

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
