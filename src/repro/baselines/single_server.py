"""The trivial baseline: one server, no replication, no failover.

Uses the full VoD stack with a replication degree of 1 — everything is
identical to the fault-tolerant deployment except that no other replica
exists, so when the server crashes the client's buffers drain and the
display freezes for good.
"""

from __future__ import annotations

from typing import Tuple

from repro.client.player import VoDClient
from repro.experiments.scenarios import ScenarioSpec, run_scenario
from repro.faulting.plan import FaultPlan
from repro.service.deployment import Deployment


def run_single_server_crash(
    crash_at: float = 30.0,
    duration_s: float = 90.0,
    seed: int = 41,
) -> Tuple[VoDClient, Deployment]:
    """One server, one client; crash the server mid-movie."""
    result = run_scenario(ScenarioSpec(
        "single-server", "lan", seed=seed,
        movie_duration_s=duration_s, run_duration_s=duration_s,
        n_initial_servers=1, spare_hosts=0,
        plan=FaultPlan().crash(crash_at, "server0"),
    ))
    result.client.decoder.end_stall(result.sim.now)
    return result.client, result.deployment
