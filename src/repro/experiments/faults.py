"""T-ft: fault-tolerance envelope (paper Section 7 comparison).

"If a movie is replicated k times, then up to k-1 failures are
tolerated" — versus Microsoft Tiger, which "smoothly tolerates the
failure of one server, but not necessarily two failures even if the
failures are not concurrent", and versus a plain single server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baselines.single_server import run_single_server_crash
from repro.baselines.striped import run_striped_crash
from repro.faulting.chaos import run_chaos_trial
from repro.faulting.plan import FaultPlan
from repro.telemetry.text import Table


@dataclass
class FaultTrial:
    system: str
    servers: int
    kills: int
    stall_time_s: float
    skipped: int
    displayed: int
    # Runtime invariant violations (group-service trials only; the
    # baselines have no GCS to check).
    violations: int = 0

    @property
    def survived(self) -> bool:
        """Playback continuity survived: no human-visible freeze (>1 s)."""
        return self.stall_time_s <= 1.0


def kill_plan(kills: int) -> FaultPlan:
    """``kills`` non-concurrent crashes of the serving server, from 30 s
    on, 15 s apart."""
    plan = FaultPlan(name=f"kill-{kills}")
    for kill in range(kills):
        plan = plan.crash_serving(30.0 + 15.0 * kill)
    return plan


def run_group_service_trial(
    k: int = 3, kills: int = 2, duration_s: float = 90.0, seed: int = 61
) -> FaultTrial:
    """k replicas, crash ``kills`` servers 15 s apart (non-concurrent):
    a chaos trial whose plan is :func:`kill_plan`."""
    trial = run_chaos_trial(seed, duration_s, k, plan=kill_plan(kills))
    return FaultTrial(
        system="group-communication VoD",
        servers=k,
        kills=kills,
        stall_time_s=trial.stall_time_s,
        skipped=trial.skipped,
        displayed=trial.displayed,
        violations=len(trial.violations),
    )


def run_striped_trial(
    n: int = 3, kills: int = 1, duration_s: float = 90.0, seed: int = 31
) -> FaultTrial:
    client, cluster = run_striped_crash(
        n_servers=n, kills=kills, duration_s=duration_s, seed=seed
    )
    del cluster
    return FaultTrial(
        system="Tiger-like striped",
        servers=n,
        kills=kills,
        stall_time_s=client.stall_time_s,
        skipped=client.skipped_total,
        displayed=client.decoder.stats.displayed,
    )


def run_single_server_trial(duration_s: float = 90.0, seed: int = 41) -> FaultTrial:
    client, deployment = run_single_server_crash(duration_s=duration_s, seed=seed)
    del deployment
    return FaultTrial(
        system="single server",
        servers=1,
        kills=1,
        stall_time_s=client.decoder.stats.stall_time_s,
        skipped=client.skipped_total,
        displayed=client.displayed_total,
    )


def run_fault_matrix(
    duration_s: float = 90.0, seed: Optional[int] = None
) -> List[FaultTrial]:
    """The full comparison matrix of the Section 7 discussion; ``seed``
    replaces each system's own default seed."""
    common = {"duration_s": duration_s}
    if seed is not None:
        common["seed"] = seed
    trials = [run_single_server_trial(**common)]
    for kills in (1, 2):
        trials.append(run_striped_trial(n=3, kills=kills, **common))
    for kills in (1, 2):
        trials.append(run_group_service_trial(k=3, kills=kills, **common))
    return trials


def fault_matrix_table(trials: List[FaultTrial]) -> Table:
    table = Table(
        "T-ft — failures tolerated (3 servers unless noted, kills 15 s apart)",
        [
            "system",
            "servers",
            "kills",
            "stall (s)",
            "skipped",
            "survived",
            "violations",
        ],
    )
    for trial in trials:
        table.add_row(
            trial.system,
            trial.servers,
            trial.kills,
            f"{trial.stall_time_s:.1f}",
            trial.skipped,
            "yes" if trial.survived else "NO",
            trial.violations if "group" in trial.system else "-",
        )
    return table


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`)."""
    from repro.experiments.api import ExperimentResult

    duration_s = float(spec.params.get("duration_s", 90.0))
    trials = run_fault_matrix(duration_s=duration_s, seed=spec.seed)
    return ExperimentResult(
        spec=spec, blocks=[fault_matrix_table(trials).render()], data=trials
    )
