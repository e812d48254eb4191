"""Figure 2: the client's flow-control policy table.

Regenerates the paper's table by evaluating the implemented policy over
every occupancy band and trend, confirming the implementation *is* the
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.client.flow_control import FlowControlPolicy
from repro.service.protocol import FlowControlMsg, FlowKind
from repro.telemetry.text import Table


@dataclass(frozen=True)
class PolicyRow:
    band: str
    condition: str
    frequency: str
    request: str


def _describe(message: Optional[FlowControlMsg]) -> str:
    if message is None:
        return "(none)"
    if message.kind == FlowKind.EMERGENCY:
        return f"emergency (level {int(message.level)})"
    return message.kind.value


def generate_policy_rows(capacity_frames: int = 79) -> List[PolicyRow]:
    """Evaluate the policy across all Figure 2 bands."""
    policy = FlowControlPolicy(capacity_frames)
    lwm, hwm = policy.low_water, policy.high_water
    mild, severe = int(policy.critical_mild), int(policy.critical_severe)
    mid = (lwm + hwm) // 2
    rows = []

    def probe(occupancy: int, previous: Optional[int], band: str, cond: str):
        policy.previous_occupancy = previous
        message = policy.decide(occupancy, occupancy)
        frequency = "f_normal" if policy.in_normal_band(occupancy) else "f_urgent"
        rows.append(PolicyRow(band, cond, frequency, _describe(message)))

    probe(max(0, severe - 1), None, f"0 .. {severe} (severe critical)", "-")
    probe(mild - 1, None, f"{severe} .. {mild} (mild critical)", "-")
    probe((mild + lwm) // 2, None, f"{mild} .. {lwm - 1}", "-")
    probe(mid, mid + 3, f"{lwm} .. {hwm - 1}", "occ < previous")
    probe(mid, mid - 3, f"{lwm} .. {hwm - 1}", "occ > previous")
    probe(mid, mid, f"{lwm} .. {hwm - 1}", "occ == previous")
    probe(hwm + 1, None, f"{hwm} .. full", "-")
    return rows


def render_figure2(capacity_frames: int = 79) -> str:
    table = Table(
        "Figure 2 — client flow-control policy (regenerated from the "
        "implementation)",
        ["occupancy band", "condition", "frequency", "request"],
    )
    for row in generate_policy_rows(capacity_frames):
        table.add_row(row.band, row.condition, row.frequency, row.request)
    return table.render()


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`)."""
    from repro.experiments.api import ExperimentResult

    capacity = spec.params.get("capacity_frames", 79)
    rows = generate_policy_rows(capacity)
    return ExperimentResult(
        spec=spec, blocks=[render_figure2(capacity)], data=rows
    )
