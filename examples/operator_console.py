#!/usr/bin/env python3
"""An operator's evening: population load, failures, scale-out — with a
status console.

Runs a realistic evening at a small VoD provider (Zipf demand, Poisson
arrivals, viewers who pause and seek), narrates server failures and
recoveries, and renders the service-wide health as tables and a
terminal chart at checkpoints — the view the paper's operator would
have had.

Run with::

    python examples/operator_console.py
"""

from repro import Deployment, Movie, MovieCatalog, Simulator, build_lan
from repro.telemetry.text import Table, render_chart
from repro.workloads.arrivals import poisson_arrivals
from repro.workloads.driver import WorkloadDriver
from repro.workloads.popularity import ZipfCatalogSampler
from repro.workloads.viewer import ViewerProfile

N_SERVERS = 2
N_HOSTS = 10
RUN_S = 150.0


def console(sim, deployment, driver, samples) -> None:
    table = Table(f"status @ t={sim.now:.0f}s", ["server", "clients", "sent (MB)"])
    total_clients = 0
    for name, server in sorted(deployment.servers.items()):
        if not server.running:
            table.add_row(name, "DOWN", f"{server.video_bytes_sent / 1e6:.0f}")
            continue
        table.add_row(
            name, server.n_clients, f"{server.video_bytes_sent / 1e6:.0f}"
        )
        total_clients += server.n_clients
    print()
    print(table.render())
    samples.append((sim.now, total_clients))


def main() -> None:
    sim = Simulator(seed=71)
    topology = build_lan(sim, n_hosts=N_SERVERS + 1 + N_HOSTS)
    titles = ["blockbuster", "comedy", "documentary", "noir"]
    catalog = MovieCatalog(
        [Movie.synthetic(t, duration_s=200.0) for t in titles]
    )
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(N_SERVERS))
    )
    driver = WorkloadDriver(
        deployment,
        client_hosts=list(range(N_SERVERS + 1, N_SERVERS + 1 + N_HOSTS)),
        sampler=ZipfCatalogSampler(titles, alpha=1.0),
        profile=ViewerProfile(pause_prob=0.2, seek_prob=0.15,
                              abandon_prob=0.05),
    )
    arrivals = poisson_arrivals(
        sim.rng("console.arrivals"), rate_per_s=0.15, duration_s=100.0,
        start_s=2.0,
    )
    driver.schedule_arrivals(arrivals)
    print(f"{len(arrivals)} viewers will arrive over the first 100 s")

    # The evening's events.
    def crash_most_loaded():
        victim = max(deployment.live_servers(), key=lambda s: s.n_clients)
        print(f"\n[t={sim.now:5.1f}s] !!! {victim.name} CRASHED "
              f"(was serving {victim.n_clients} viewers)")
        victim.crash()

    sim.call_at(60.0, crash_most_loaded)
    sim.call_at(
        75.0,
        lambda: (
            print(f"\n[t={sim.now:5.1f}s] operator brings up a fresh server"),
            deployment.add_server(N_SERVERS, "standby"),
        ),
    )

    samples = []
    for checkpoint in (30.0, 59.0, 70.0, 90.0, 120.0, RUN_S):
        sim.run_until(checkpoint)
        console(sim, deployment, driver, samples)

    stats = driver.stats()
    print()
    print(render_chart(
        samples, title="active viewers over the evening",
        width=48, height=8,
        markers=[(60.0, "crash"), (75.0, "standby up")],
    ))
    print()
    print(f"viewers admitted:        {stats.n_viewers}")
    print(f"abandoned (by choice):   {stats.n_abandoned}")
    print(f"busy signals:            {driver.skipped_arrivals}")
    print(f"requests per title:      {stats.requests_per_title}")
    print(f"worst stall any viewer:  {stats.worst_stall_s:.2f}s")
    print(f"viewers who saw a freeze: {stats.viewers_with_visible_stall}")
    assert stats.viewers_with_visible_stall == 0
    print("\nA server died at peak load and not one viewer noticed.")


if __name__ == "__main__":
    main()
