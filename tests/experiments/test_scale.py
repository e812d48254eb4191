"""Smoke test for the population-scale experiment.

A 500-client run with a mid-run server crash must finish inside a
generous wall budget, deliver a large frame volume, and fail every victim over to a survivor.  Failover
latency is governed by failure-detection rounds, not population size, so
it must stay in the same band at 100 and 500 clients.
"""

import pytest

from repro.experiments.scale import build_scale_rig, run_scale_point

#: Generous for CI machines; the run takes ~20-30 s on a laptop, so a
#: blown budget means the kernel has regressed badly.
WALL_BUDGET_S = 180.0


@pytest.fixture(scope="module")
def point_100():
    return run_scale_point(100, duration_s=10.0, crash_at=6.0)


@pytest.fixture(scope="module")
def point_500():
    return run_scale_point(500, duration_s=10.0, crash_at=6.0)


def test_500_clients_with_crash_inside_wall_budget(point_500):
    assert point_500.wall_s < WALL_BUDGET_S
    assert point_500.events > 100_000
    # ~500 clients x 30 fps x ~7.5 s of streaming, minus the failover gap.
    assert point_500.frames_delivered > 50_000


def test_crash_fails_every_victim_over(point_500):
    assert point_500.takeovers > 0
    # Every takeover produced a measured failover latency.
    assert len(point_500.failover_latencies) == point_500.takeovers
    assert all(lat > 0 for lat in point_500.failover_latencies)


def test_failover_latency_flat_in_population(point_100, point_500):
    """Detection rounds, not client count, set the failover clock."""
    assert point_100.takeovers > 0 and point_500.takeovers > 0
    # Both populations recover within the same failure-detection band;
    # a latency that grows with N would blow straight past this.
    assert point_100.max_failover_s < 3.0
    assert point_500.max_failover_s < 3.0
    assert point_500.max_failover_s <= 2.5 * point_100.max_failover_s


def test_an_injected_most_loaded_crash_fails_over_as_the_rig_did():
    """The N = 400 full rig (the benchmark's ``full400_crash``), its
    busiest server crashed through ``FaultPlan.crash_most_loaded``: the
    rig's failover observer, fed by ``on_server_crash``, reads the same
    134 latencies as when the rig crashed the server itself."""
    import hashlib

    from repro.faulting import FaultInjector, FaultPlan

    sim, deployment, _clients, observer = build_scale_rig(
        400, seed=77, mode="full", connect_window_s=0.0
    )
    FaultInjector(deployment, FaultPlan().crash_most_loaded(3.0)).start()
    sim.run_until(6.0)
    latencies = observer.latencies
    assert len(latencies) == 134
    assert max(latencies) == 0.4912997264472585
    assert hashlib.sha256(repr(latencies).encode()).hexdigest() == (
        "1b4cb5fe5963b0678015e3823f3e9702becd81e1a99badb29c8bf00ea04bb44f"
    )
