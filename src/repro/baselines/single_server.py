"""The trivial baseline: one server, no replication, no failover.

Uses the full VoD stack with a replication degree of 1 — everything is
identical to the fault-tolerant deployment except that no other replica
exists, so when the server crashes the client's buffers drain and the
display freezes for good.
"""

from __future__ import annotations

from typing import Tuple

from repro.client.player import VoDClient
from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.sim.core import Simulator


def run_single_server_crash(
    crash_at: float = 30.0,
    duration_s: float = 90.0,
    seed: int = 41,
) -> Tuple[VoDClient, Deployment]:
    """One server, one client; crash the server mid-movie."""
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=2)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=duration_s)])
    deployment = Deployment(topology, catalog, server_nodes=[0])
    client = deployment.attach_client(1)
    client.request_movie("feature")
    FaultInjector(
        deployment, FaultPlan().crash(crash_at, "server0"), client=client
    ).start()
    sim.run_until(duration_s)
    client.decoder.end_stall(sim.now)
    return client, deployment
