#!/usr/bin/env python3
"""Elastic server pool: scale out under load, scale back in.

The motivating deployment of the paper's introduction: a VoD provider
whose load changes over the day.  Ten clients arrive over a minute and
overload the single initial server; two more servers are brought up *on
the fly* and the group deterministically re-distributes the clients;
later one server is gracefully detached and its clients migrate without
a failure-detection delay.

Run with::

    python examples/elastic_server_pool.py
"""

from repro import Deployment, Movie, MovieCatalog, Simulator, build_lan
from repro.faulting import FaultInjector, FaultPlan

N_CLIENTS = 10


def print_loads(deployment, sim, label) -> None:
    loads = {
        name: server.n_clients
        for name, server in sorted(deployment.servers.items())
        if server.running
    }
    print(f"[t={sim.now:6.1f}s] {label}: loads={loads}")


def main() -> None:
    sim = Simulator(seed=42)
    topology = build_lan(sim, n_hosts=3 + N_CLIENTS)
    catalog = MovieCatalog(
        [
            Movie.synthetic("news", duration_s=300),
            Movie.synthetic("feature", duration_s=300),
        ]
    )
    deployment = Deployment(topology, catalog, server_nodes=[0])

    # Clients trickle in over the first minute, alternating movies.
    clients = []
    for index in range(N_CLIENTS):
        def attach(index=index):
            client = deployment.attach_client(3 + index)
            client.request_movie("news" if index % 2 else "feature")
            clients.append(client)

        sim.call_at(2.0 + 6.0 * index, attach)

    # Scale out at t=70 and t=80 (server1 on host 1, server2 on host 2);
    # scale in (graceful) at t=160.
    plan = (
        FaultPlan(name="elastic-pool")
        .server_up(70.0, host=1)
        .server_up(80.0, host=2)
        .stop(160.0, "server1")
    )
    FaultInjector(deployment, plan).start()

    for checkpoint, label in [
        (65.0, "one server, fully loaded"),
        (95.0, "after scale-out to three servers"),
        (175.0, "after graceful scale-in"),
        (240.0, "steady state"),
    ]:
        sim.run_until(checkpoint)
        print_loads(deployment, sim, label)

    print()
    stalls = [c.decoder.stats.stall_time_s for c in clients]
    skipped = [c.skipped_total for c in clients]
    print(f"clients: {len(clients)}")
    print(f"total visible stall time across all clients: {sum(stalls):.2f}s")
    print(f"skipped frames per client: {skipped}")
    balanced = [s.n_clients for s in deployment.live_servers()]
    print(f"final load spread over live servers: {balanced}")
    assert max(balanced) - min(balanced) <= 2, "load badly unbalanced"


if __name__ == "__main__":
    main()
