"""Human-readable incident postmortems (``repro-vod postmortem``).

The flight recorder assembles bounded :class:`~repro.telemetry.flight.Incident`
objects; this module renders them as the report a reviewer reads after
a failure: what triggered, the causal chain from fault to resume, the
exact detect+agree+redistribute takeover decomposition, whose QoE was
hit and by how much, and a timeline excerpt of the window.

Works from a live run (the recorder's incidents) or offline from a
recorded JSONL export (:func:`incidents_from_export` replays the
stream through a detached recorder) — the same renderer serves both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.telemetry.causal import FailoverBreakdown, render_breakdowns
from repro.telemetry.flight import Incident, incidents_from_records
from repro.telemetry.report import timeline_table
from repro.telemetry.text import Table


def incidents_from_export(
    path: str,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[Incident]:
    """Rebuild incidents from a telemetry JSONL (or .jsonl.gz) export."""
    from repro.telemetry.export import read_jsonl

    return incidents_from_records(read_jsonl(path, since=since, until=until))


def render_incident(incident: Incident, max_rows: int = 40) -> str:
    """One incident's postmortem: triggers, chains, breakdowns, QoE."""
    blocks: List[str] = []
    header = (
        f"{incident.id}: {incident.trigger_kind} at "
        f"t={incident.trigger_t:.3f}s"
    )
    if incident.trigger_detail:
        header += f" ({incident.trigger_detail})"
    blocks.append(header)
    window = (
        f"window [{incident.window_start:.3f}s, {incident.window_end:.3f}s]"
        f"  pre={incident.pre_records} captured={incident.captured_records}"
    )
    if incident.truncated_records:
        window += f" truncated={incident.truncated_records}"
    blocks.append(window)

    if incident.n_triggers > 1:
        trigger_table = Table(
            f"Triggers ({len(incident.triggers)} of {incident.n_triggers})",
            ["t (s)", "kind", "detail"],
        )
        for trigger in incident.triggers[:max_rows]:
            trigger_table.add_row(
                f"{trigger.get('t', 0.0):9.3f}",
                trigger.get("kind", "?"),
                trigger.get("detail", ""),
            )
        blocks.append(trigger_table.render())

    for chain in incident.chains:
        path = chain.get("path") or []
        if not path:
            continue
        lines = [
            f"causal chain {chain.get('cause')} "
            f"({chain.get('events')} events, "
            f"{chain.get('start', 0.0):.3f}s -> {chain.get('end', 0.0):.3f}s):"
        ]
        for step in path:
            lines.append(
                f"  {step.get('t', 0.0):9.3f}  {step.get('kind', '?'):<24} "
                f"{step.get('detail', '')}"
            )
        blocks.append("\n".join(lines))

    if incident.breakdowns:
        shown = [
            FailoverBreakdown(**b) for b in incident.breakdowns[:max_rows]
        ]
        blocks.append(render_breakdowns(shown))
        if incident.n_breakdowns > len(shown):
            blocks.append(
                f"... {incident.n_breakdowns - len(shown)} more "
                f"failover(s) in this incident"
            )

    qoe = incident.qoe or {}
    if qoe.get("clients_hit"):
        totals = qoe.get("totals", {})
        impact_table = Table(
            f"QoE impact ({qoe['clients_hit']} client(s) hit; totals: "
            f"stalls={totals.get('stalls', 0)} "
            f"stall_s={totals.get('stall_s', 0.0):.2f} "
            f"migrations={totals.get('migrations', 0)} "
            f"resumes={totals.get('resumes', 0)})",
            ["client", "penalty", "stalls", "stall (s)", "migr", "resumes",
             "rejects"],
        )
        for item in qoe.get("top", []):
            impact_table.add_row(
                item.get("client", "?"),
                f"{item.get('penalty', 0.0):.1f}",
                item.get("stalls", 0),
                f"{item.get('stall_s', 0.0):.2f}",
                item.get("migrations", 0),
                item.get("resumes", 0),
                item.get("rejects", 0),
            )
        blocks.append(impact_table.render())

    if incident.excerpt:
        shown = incident.excerpt[:max_rows]
        blocks.append(timeline_table(
            f"Timeline excerpt ({len(shown)} of {len(incident.excerpt)} "
            "notable events)", shown,
        ))

    return "\n\n".join(blocks)


def render_incidents(
    incidents: Sequence[Incident],
    max_rows: int = 40,
    metering: Optional[Dict] = None,
) -> str:
    """The full postmortem report: every incident plus recorder totals."""
    blocks: List[str] = []
    if not incidents:
        blocks.append("no incidents: no trigger fired in this run/window")
    else:
        blocks.append(
            f"{len(incidents)} incident(s); first trigger "
            f"{incidents[0].trigger_kind} at t={incidents[0].trigger_t:.3f}s"
        )
        for incident in incidents:
            blocks.append("-" * 72)
            blocks.append(render_incident(incident, max_rows=max_rows))
    if metering:
        blocks.append("-" * 72)
        blocks.append(
            "flight recorder: "
            f"seen={sum(metering.get('seen', {}).values())} "
            f"retained={sum(metering.get('retained', {}).values())} "
            f"sampled_out={sum(metering.get('sampled_out', {}).values())} "
            f"evicted={sum(metering.get('evicted', {}).values())} "
            f"captured={metering.get('captured_total', 0)} "
            f"occupancy={metering.get('occupancy', 0)} "
            f"~{metering.get('estimated_bytes', 0) / 1024.0:.0f} KiB "
            f"triggers={metering.get('triggers_seen', 0)} "
            f"(dropped={metering.get('triggers_dropped', 0)})"
        )
    return "\n\n".join(blocks)
