"""E-capacity — when does a single server saturate?

The paper's introduction motivates the design with scale ("high
bandwidth communication lines will reach millions of homes"), and its
answer to a loaded server is to bring another up and migrate clients.
This experiment quantifies the trigger: one server on a 100 Mbps access
link serves a growing client population (each stream ~1.4 Mbps); past
the uplink capacity the transmit queue tail-drops, clients see skipped
frames and stalls.  Bringing up a second server restores clean playback
for the same population — the load-balancing payoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.scenarios import ScenarioSpec, run_scenario
from repro.telemetry.text import Table


@dataclass
class CapacityPoint:
    n_clients: int
    n_servers: int
    offered_mbps: float
    mean_skipped: float
    max_skipped: int
    worst_stall_s: float

    @property
    def clean(self) -> bool:
        """No viewer saw a freeze (> 1 s).  Skips are not part of it: the
        synchronised start-up transient alone costs the unluckiest viewer
        up to ~25 frames at any load (EXPERIMENTS.md, E-capacity)."""
        return self.worst_stall_s <= 1.0


def run_capacity_point(
    n_clients: int,
    n_servers: int = 1,
    duration_s: float = 30.0,
    seed: int = 51,
) -> CapacityPoint:
    result = run_scenario(ScenarioSpec(
        f"capacity-{n_clients}x{n_servers}", "lan", seed=seed,
        movie_duration_s=duration_s + 20, run_duration_s=duration_s,
        n_initial_servers=n_servers, spare_hosts=0, n_viewers=n_clients,
    ))
    clients = result.viewers
    for client in clients:
        client.decoder.end_stall(result.sim.now)

    movie = result.deployment.catalog.movie("feature")
    offered = n_clients * movie.bitrate_bps() / 1e6
    skipped = [c.skipped_total for c in clients]
    stalls = [c.decoder.stats.stall_time_s for c in clients]
    return CapacityPoint(
        n_clients=n_clients,
        n_servers=n_servers,
        offered_mbps=offered,
        mean_skipped=sum(skipped) / len(skipped),
        max_skipped=max(skipped),
        worst_stall_s=max(stalls),
    )


def run_capacity_sweep(
    populations: List[int] = (10, 30, 50, 70),
    duration_s: float = 30.0,
    seed: int = 51,
) -> List[CapacityPoint]:
    """Single-server sweep plus a two-server point at the largest load."""
    points = [
        run_capacity_point(n, n_servers=1, duration_s=duration_s, seed=seed)
        for n in populations
    ]
    points.append(
        run_capacity_point(
            populations[-1], n_servers=2, duration_s=duration_s, seed=seed
        )
    )
    return points


def capacity_table(points: List[CapacityPoint]) -> Table:
    table = Table(
        "E-capacity — clients per server on a 100 Mbps uplink "
        "(1.4 Mbps streams)",
        ["clients", "servers", "offered (Mbps)", "mean skipped",
         "max skipped", "worst stall (s)", "clean"],
    )
    for point in points:
        table.add_row(
            point.n_clients,
            point.n_servers,
            f"{point.offered_mbps:.0f}",
            f"{point.mean_skipped:.0f}",
            point.max_skipped,
            f"{point.worst_stall_s:.1f}",
            "yes" if point.clean else "NO",
        )
    return table


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`)."""
    from repro.experiments.api import ExperimentResult

    populations = tuple(spec.params.get("populations", (10, 30, 50, 70)))
    kwargs = {} if spec.seed is None else {"seed": spec.seed}
    points = run_capacity_sweep(populations=populations, **kwargs)
    return ExperimentResult(
        spec=spec, blocks=[capacity_table(points).render()], data=points
    )
