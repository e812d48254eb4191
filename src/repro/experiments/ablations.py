"""Ablations over the knobs Section 4.2 calls "subject to fine tuning".

Each sweep re-runs the LAN crash/load-balance scenario varying one
parameter and reports the metrics that parameter trades off:

* **buffer size** — smaller buffers cover a shorter irregularity period
  (stall time rises); larger ones waste memory but absorb more;
* **emergency refill** — without it, re-filling after a migration takes
  tens of seconds and a second fault would hit empty buffers; too
  aggressive a refill overflows the buffers;
* **sync interval** — tighter synchronization shrinks duplicate
  transmission at migration but costs proportionally more control
  bandwidth;
* **failure-detection timeout** — shorter detection shortens the
  irregularity period but (too short) risks false suspicions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence

from repro.client.player import ClientConfig
from repro.experiments.scenarios import LAN_SCENARIO, ScenarioSpec, run_scenario
from repro.faulting import FaultPlan
from repro.server.rate_controller import EmergencyConfig
from repro.server.server import ServerConfig
from repro.telemetry.text import Table


@dataclass
class AblationRow:
    parameter: str
    value: str
    stall_s: float
    skipped: int
    late: int
    overflow: int
    control_fraction: float


def _scenario_row(parameter: str, value: str, spec, seed: int) -> AblationRow:
    result = run_scenario(spec, seed=seed)
    client, deployment = result.client, result.deployment
    client.decoder.end_stall(result.sim.now)
    return AblationRow(
        parameter=parameter,
        value=value,
        stall_s=client.decoder.stats.stall_time_s,
        skipped=client.skipped_total,
        late=client.late_total,
        overflow=client.stats.overflow_discards,
        control_fraction=(
            deployment.control_bytes_sent()
            / max(1, deployment.video_bytes_sent())
        ),
    )


def ablate_buffer_size(
    sw_capacities: Sequence[int] = (10, 20, 37, 74),
    seed: int = LAN_SCENARIO.seed,
) -> List[AblationRow]:
    rows = []
    for capacity in sw_capacities:
        spec = dataclasses.replace(
            LAN_SCENARIO,
            name=f"lan-sw{capacity}",
            client_config=ClientConfig(sw_capacity_frames=capacity),
        )
        rows.append(_scenario_row("sw buffer (frames)", str(capacity), spec, seed))
    return rows


def ablate_emergency(
    configs: Sequence = (
        ("no refill", EmergencyConfig(base_severe=0, base_mild=0)),
        ("mild only (q=6)", EmergencyConfig(base_severe=6, base_mild=6)),
        ("paper (q=12/6)", EmergencyConfig()),
        ("aggressive (q=24/12)", EmergencyConfig(base_severe=24, base_mild=12)),
    ),
    seed: int = LAN_SCENARIO.seed,
) -> List[AblationRow]:
    rows = []
    for label, emergency in configs:
        spec = dataclasses.replace(
            LAN_SCENARIO,
            name=f"lan-emerg-{label}",
            server_config=ServerConfig(emergency=emergency),
        )
        rows.append(_scenario_row("emergency quota", label, spec, seed))
    return rows


def ablate_sync_interval(
    intervals: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    seed: int = LAN_SCENARIO.seed,
) -> List[AblationRow]:
    rows = []
    for interval in intervals:
        spec = dataclasses.replace(
            LAN_SCENARIO,
            name=f"lan-sync{interval}",
            server_config=ServerConfig(sync_interval_s=interval),
        )
        rows.append(_scenario_row("sync interval (s)", str(interval), spec, seed))
    return rows


def ablate_fd_timeout(
    timeouts: Sequence[float] = (0.25, 0.45, 1.0, 2.0),
    seed: int = LAN_SCENARIO.seed,
) -> List[AblationRow]:
    rows = []
    for timeout in timeouts:
        spec = dataclasses.replace(
            LAN_SCENARIO,
            name=f"lan-fd{timeout}",
            run_duration_s=120.0,
            schedule=((38.0, "crash-serving"),),
            fd_timeout=timeout,
        )
        rows.append(_scenario_row("fd timeout (s)", str(timeout), spec, seed))
    return rows


def ablate_double_emergency(
    sw_capacities: Sequence[int] = (37, 74),
    gap_s: float = 1.0,
    seed: int = 31,
) -> List[AblationRow]:
    """A-5: back-to-back failures (Section 4.2's buffer-sizing caveat).

    "Note that our buffer sizes account for a single emergency
    situation. ... In order to guarantee smoothly coping with additional
    emergency situations occurring before the buffers start to re-fill,
    the buffer size should be enlarged."  Two serving-server crashes
    ``gap_s`` apart hit the buffers before the first refill completes;
    the paper-sized buffer shows visible jitter, a doubled buffer rides
    it out.
    """
    rows = []
    for capacity in sw_capacities:
        spec = ScenarioSpec(
            f"lan-double-crash-sw{capacity}", "lan",
            movie_duration_s=90.0, run_duration_s=80.0,
            n_initial_servers=3, spare_hosts=0,
            plan=FaultPlan().crash_serving(30.0).crash_serving(30.0 + gap_s),
            client_config=ClientConfig(sw_capacity_frames=capacity),
        )
        rows.append(
            _scenario_row("double crash, sw buffer", str(capacity), spec, seed)
        )
    return rows


def ablation_table(rows: List[AblationRow], title: str) -> Table:
    table = Table(
        title,
        ["parameter", "value", "stall (s)", "skipped", "late", "overflow",
         "control/video"],
    )
    for row in rows:
        table.add_row(
            row.parameter,
            row.value,
            f"{row.stall_s:.2f}",
            row.skipped,
            row.late,
            row.overflow,
            f"{row.control_fraction:.5f}",
        )
    return table


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`)."""
    from repro.experiments.api import ExperimentResult

    sweeps = (
        ("A-1 — software buffer size", ablate_buffer_size),
        ("A-2 — emergency refill quota", ablate_emergency),
        ("A-3 — state sync interval", ablate_sync_interval),
        ("A-4 — failure detection timeout", ablate_fd_timeout),
        ("A-5 — back-to-back failures (1 s apart) vs buffer size",
         ablate_double_emergency),
    )
    only = spec.params.get("only")
    kwargs = {} if spec.seed is None else {"seed": spec.seed}
    result = ExperimentResult(spec=spec, data={})
    for title, sweep in sweeps:
        if only is not None and only not in title:
            continue
        rows = sweep(**kwargs)
        result.data[title] = rows
        result.blocks.append(ablation_table(rows, title).render())
    return result
