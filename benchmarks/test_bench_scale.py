"""Scale behaviour: the deployment the paper's introduction motivates.

"In such an environment, scalability and fault tolerance will be key
issues" — these benchmarks load one service with a growing client
population and verify the control plane stays negligible and failover
stays client-count-independent.
"""

import json
import os

from conftest import show

from repro.experiments.scale import (
    _FailoverObserver,
    make_crash_most_loaded,
    run_scale_point,
)
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.sim.core import Simulator
from repro.telemetry.text import Table

FLYWEIGHT_BASELINE = os.path.join(
    os.path.dirname(__file__), "BENCH_scale_flyweight.json"
)


def run_scaled(n_clients, n_servers=3, duration_s=40.0, seed=77,
               crash_at=None):
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=n_servers + n_clients + 1)
    catalog = MovieCatalog(
        [Movie.synthetic("feature", duration_s=duration_s + 20)]
    )
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(n_servers))
    )
    clients = []
    for index in range(n_clients):
        client = deployment.attach_client(n_servers + index)
        client.request_movie("feature")
        clients.append(client)
    if crash_at is not None:
        sim.call_at(
            crash_at,
            make_crash_most_loaded(deployment, _FailoverObserver(sim)),
        )
    sim.run_until(duration_s)
    return sim, deployment, clients


def test_scale_16_clients(benchmark):
    """16 concurrent viewers on 3 servers: all smooth, load balanced."""
    sim, deployment, clients = benchmark.pedantic(
        lambda: run_scaled(16), rounds=1, iterations=1
    )
    table = Table(
        "Scale — 16 clients, 3 servers, 40 s",
        ["metric", "value"],
    )
    total_stall = sum(c.decoder.stats.stall_time_s for c in clients)
    loads = sorted(s.n_clients for s in deployment.live_servers())
    video = sum(s.video_bytes_sent for s in deployment.servers.values())
    control = sum(
        s.endpoint.control_bytes_sent for s in deployment.servers.values()
    ) + sum(c.endpoint.control_bytes_sent for c in clients)
    table.add_row("clients served", sum(loads))
    table.add_row("load spread", str(loads))
    table.add_row("total stall (s)", f"{total_stall:.2f}")
    table.add_row("control/video bytes", f"{control / video:.5f}")
    show(table.render())

    assert sum(loads) == 16
    assert max(loads) - min(loads) <= 2
    assert total_stall <= 1.0
    assert control / video < 0.02


def test_failover_under_load(benchmark):
    """Crashing the most-loaded server migrates its whole client share
    transparently; takeover effort does not scale with client count."""
    sim, deployment, clients = benchmark.pedantic(
        lambda: run_scaled(12, crash_at=20.0), rounds=1, iterations=1
    )
    survivors = deployment.live_servers()
    loads = sorted(s.n_clients for s in survivors)
    stalls = [c.decoder.stats.stall_time_s for c in clients]
    table = Table(
        "Scale — failover with 12 clients",
        ["metric", "value"],
    )
    table.add_row("surviving servers", len(survivors))
    table.add_row("load spread after crash", str(loads))
    table.add_row("max client stall (s)", f"{max(stalls):.2f}")
    table.add_row(
        "clients with any stall", sum(1 for s in stalls if s > 0.05)
    )
    show(table.render())

    assert len(survivors) == 2
    assert sum(loads) == 12
    assert max(stalls) <= 1.0  # nobody saw a human-visible freeze


def test_flyweight_20k_smoke(benchmark):
    """20 000 columnar viewers with a mid-run crash: the population the
    per-object control plane could never admit.  Measurements must match
    the committed reference — the run is seed-deterministic, so event-
    count drift means behaviour changed, not the machine."""
    point = benchmark.pedantic(
        lambda: run_scale_point(20000, batch_window_s=1.0, duration_s=10.0,
                                flyweight=True),
        rounds=1, iterations=1,
    )
    with open(FLYWEIGHT_BASELINE) as fh:
        baseline = json.load(fh)
    table = Table("Scale — 20k flyweight viewers, 3 servers, 10 s",
                  ["metric", "value", "reference"])
    table.add_row("events", point.events, baseline["events"])
    table.add_row("frames served", point.frames_delivered,
                  baseline["frames_delivered"])
    table.add_row("takeovers", point.takeovers, baseline["takeovers"])
    table.add_row("wall (s)", f"{point.wall_s:.2f}", "(not judged)")
    show(table.render())

    tol = baseline["tolerances"]
    assert abs(point.events - baseline["events"]) <= (
        tol["events_rel"] * baseline["events"]
    )
    assert point.takeovers == baseline["takeovers"]
    assert max(point.failover_latencies) < tol["failover_ceiling_s"]
