"""E-qos — the Section 8 extension, evaluated.

The paper's conclusion plans an ATM port: "the video material will be
transmitted via native ATM connections", with Section 4.1 already sizing
the reservation (CBR for the stream + a VBR channel of at most 40% for
emergencies).  This experiment runs the WAN scenario with and without
such reservations and quantifies what the reservation buys:

* without QoS: steady frame loss (never retransmitted) shows up as
  skipped frames for the whole run;
* with QoS: the stream rides loss-free reserved slots; the only skips
  left are the startup refill's overflow discards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.scenarios import ScenarioSpec, run_scenario
from repro.faulting import FaultPlan
from repro.server.server import ServerConfig
from repro.telemetry.text import Table


@dataclass
class QosTrial:
    qos: bool
    skipped: int
    late: int
    overflow: int
    displayed: int
    stall_s: float
    reserved_bps: float


def run_wan_trial(
    use_qos: bool,
    duration_s: float = 120.0,
    crash_at: float = 60.0,
    seed: int = 5,
) -> QosTrial:
    """One WAN run (7 hops, ~1% loss) with a mid-movie crash."""
    result = run_scenario(ScenarioSpec(
        "wan-qos" if use_qos else "wan-best-effort", "wan", seed=seed,
        movie_duration_s=duration_s, run_duration_s=duration_s + 10.0,
        plan=FaultPlan().crash_serving(crash_at),
        server_config=ServerConfig(use_qos=use_qos), spare_hosts=0,
    ))
    client, deployment = result.client, result.deployment
    client.decoder.end_stall(result.sim.now)
    reserved = 0.0
    if deployment.qos is not None:
        reserved = sum(
            r.total_bps for r in deployment.qos.reservations.values()
        )
    return QosTrial(
        qos=use_qos,
        skipped=client.skipped_total,
        late=client.late_total,
        overflow=client.stats.overflow_discards,
        displayed=client.displayed_total,
        stall_s=client.decoder.stats.stall_time_s,
        reserved_bps=reserved,
    )


def qos_comparison_table(best_effort: QosTrial, reserved: QosTrial) -> Table:
    table = Table(
        "E-qos — WAN playback, best-effort UDP vs CBR+VBR reservation "
        "(the paper's Section 8 plan)",
        ["quantity", "best effort", "with reservation"],
    )
    table.add_row("skipped frames", best_effort.skipped, reserved.skipped)
    table.add_row(
        "skips from network loss",
        best_effort.skipped - best_effort.overflow,
        reserved.skipped - reserved.overflow,
    )
    table.add_row("late frames", best_effort.late, reserved.late)
    table.add_row("visible stall (s)",
                  f"{best_effort.stall_s:.2f}", f"{reserved.stall_s:.2f}")
    table.add_row("frames displayed", best_effort.displayed, reserved.displayed)
    return table


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`)."""
    from repro.experiments.api import ExperimentResult

    kwargs = {}
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    best_effort = run_wan_trial(False, **kwargs)
    reserved = run_wan_trial(True, **kwargs)
    return ExperimentResult(
        spec=spec,
        blocks=[qos_comparison_table(best_effort, reserved).render()],
        data=(best_effort, reserved),
    )
