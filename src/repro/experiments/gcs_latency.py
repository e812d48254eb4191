"""T-gcs — view-agreement latency of the group communication substrate.

The paper's takeover time decomposes into failure detection plus view
agreement; this experiment isolates the substrate's contribution and its
scaling with group size: for n daemons on a LAN, measure

* **join latency** — from a join request to every member (including the
  joiner) installing the enlarged view;
* **crash latency** — from a member's fail-stop to every survivor
  installing the shrunken view (includes the ~0.45 s detection timeout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.gcs import GcsDomain, GroupListener
from repro.net.topologies import build_lan
from repro.sim.core import Simulator
from repro.telemetry.text import Table


@dataclass
class GcsLatencyPoint:
    group_size: int
    join_latency_s: float
    crash_latency_s: float


def measure_group_size(n: int, seed: int = 81) -> GcsLatencyPoint:
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=n + 1)
    domain = GcsDomain(sim, topology.network)

    installs: dict = {}

    def listener(name):
        def on_view(view):
            installs.setdefault(name, []).append((sim.now, len(view.members)))

        return GroupListener(on_view=on_view)

    def first_install(name, size, after):
        for time, members in installs.get(name, []):
            if members == size and time >= after:
                return time
        raise AssertionError(f"{name} never installed a {size}-member view")

    endpoints = []
    for index in range(n):
        endpoint = domain.create_endpoint(topology.host(index))
        endpoint.join("g", f"p{index}", listener(f"p{index}"))
        endpoints.append(endpoint)
    sim.run_until(3.0)

    # Join: bring up daemon n and measure until everyone has n+1 members.
    join_at = sim.now
    joiner = domain.create_endpoint(topology.host(n))
    joiner.join("g", "joiner", listener("joiner"))
    sim.run_until(join_at + 5.0)
    join_done = max(
        first_install(f"p{i}", n + 1, join_at) for i in range(n)
    )
    join_done = max(join_done, first_install("joiner", n + 1, join_at))
    join_latency = join_done - join_at

    # Crash: fail-stop the joiner, measure until survivors see n members.
    crash_at = sim.now
    topology.network.node(topology.host(n)).crash()
    joiner.crash()
    sim.run_until(crash_at + 5.0)
    crash_done = max(
        first_install(f"p{i}", n, crash_at) for i in range(n)
    )
    crash_latency = crash_done - crash_at

    return GcsLatencyPoint(
        group_size=n,
        join_latency_s=join_latency,
        crash_latency_s=crash_latency,
    )


def measure_scaling(sizes=(2, 4, 8, 16), seed: int = 81) -> List[GcsLatencyPoint]:
    return [measure_group_size(n, seed=seed) for n in sizes]


def gcs_latency_table(points: List[GcsLatencyPoint]) -> Table:
    table = Table(
        "T-gcs — view agreement latency on a LAN vs group size",
        ["members", "join -> view (s)", "crash -> view (s)"],
    )
    for point in points:
        table.add_row(
            point.group_size,
            f"{point.join_latency_s:.3f}",
            f"{point.crash_latency_s:.3f}",
        )
    return table


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`)."""
    from repro.experiments.api import ExperimentResult

    sizes = tuple(spec.params.get("sizes", (2, 4, 8, 16)))
    kwargs = {} if spec.seed is None else {"seed": spec.seed}
    points = measure_scaling(sizes=sizes, **kwargs)
    return ExperimentResult(
        spec=spec, blocks=[gcs_latency_table(points).render()], data=points
    )
