"""Live terminal dashboard state for ``repro-vod watch``.

A :class:`WatchState` reads one frame of a run's state from the run's
own observers — each client's QoE from the QoE accumulator's scorecards,
rule state from the SLO monitor, spans in flight from the bus's
open-span registry, trigger and incident counts from the flight
recorder — and folds only what no observer keeps: buffer levels,
serving servers, fault and view counters, the last trigger and the last
few notable events.  :func:`render_watch` draws the frame as plain
text.

The watcher follows the same contract as every other observer: it never
schedules simulation events and never draws randomness, so watching a
run cannot change it.  ``repro-vod watch`` drives the simulator in
short ``run_until`` slices and redraws between slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.telemetry.flight import is_trigger
from repro.telemetry.qoe import QoEScorecard, _client_name

#: Everything the dashboard listens to (``span.`` and ``slo.`` only for
#: the trigger and the recent-events tail).
WATCH_PREFIXES = (
    "client.", "server.", "gcs.view", "fault.", "span.", "metric.sample",
    "slo.", "invariant.",
)

#: How many recent notable events a frame shows.
RECENT_EVENTS = 8

_NOTABLE = (
    "fault.", "gcs.view.install", "server.crash", "server.shutdown",
    "server.session", "client.migrate", "client.stall", "client.resume",
    "slo.", "invariant.",
)


@dataclass
class ClientView:
    """One row of the dashboard's client table: the client's scorecard
    so far, whether it is stalled now, and the fold's buffer level and
    serving server."""

    name: str
    card: QoEScorecard
    stalled: bool
    buffer: Optional[float]
    server: str

    @property
    def status(self) -> str:
        if self.card.finished:
            return "done"
        if self.stalled:
            return "STALL"
        if self.card.startup_s is not None:
            return "play"
        return "start"


class WatchState:
    """One dashboard frame's worth of state, read from a run's
    :class:`~repro.telemetry.harness.RunObservers` (attached with
    ``observe=True, flight=True``)."""

    def __init__(self, observers) -> None:
        self.telemetry = observers.sim.telemetry
        self.qoe = observers.accumulator
        self.slo_monitor = observers.slo_monitor
        self.recorder = observers.recorder
        self.now = 0.0
        self.events_seen = 0
        self.buffers: Dict[str, float] = {}
        self.servers: Dict[str, str] = {}
        self.recent: List[str] = []
        self.faults = 0
        self.views_installed = 0
        self.last_trigger: Optional[str] = None
        self._subscription = self.telemetry.subscribe(
            self._on_event, prefixes=WATCH_PREFIXES
        )

    def close(self) -> None:
        self._subscription.close()

    # ------------------------------------------------------------------
    # Fold
    # ------------------------------------------------------------------
    def _on_event(self, event) -> None:
        self.events_seen += 1
        self.now = max(self.now, event.time)
        kind = event.kind
        fields = event.fields
        if kind == "metric.sample":
            # The dashboard's buffer column is frames; the byte-
            # denominated hardware series would drown it out.
            series = str(fields.get("series", ""))
            if series in ("combined_frames", "software_buffer_frames"):
                name = _client_name(fields.get("owner", "?"))
                if series == "combined_frames" or name not in self.buffers:
                    self.buffers[name] = float(fields.get("value", 0.0))
            return
        if kind in ("client.migrate", "server.session.start"):
            name = _client_name(fields.get("client", "?"))
            key = "to_server" if kind == "client.migrate" else "server"
            self.servers[name] = str(fields.get(key, self.servers.get(name, "")))
        elif kind == "fault.fired":
            self.faults += 1
        elif kind == "gcs.view.install":
            self.views_installed += 1
        if is_trigger(kind, fields):
            self.last_trigger = f"{kind}@{event.time:.2f}s"
        if kind.startswith(_NOTABLE):
            detail = " ".join(
                f"{k}={v}" for k, v in fields.items()
                if k not in ("start",)
            )
            self.recent.append(f"{event.time:9.3f}  {kind}  {detail}")
            del self.recent[:-RECENT_EVENTS]

    # ------------------------------------------------------------------
    # Derived
    # ------------------------------------------------------------------
    def clients(self) -> Dict[str, ClientView]:
        """One :class:`ClientView` per client, by short name."""
        cards = self.qoe.scorecards()
        stalled = self.qoe.stalled()
        return {
            name: ClientView(
                name, cards.get(name) or QoEScorecard(name), name in stalled,
                self.buffers.get(name), self.servers.get(name, ""),
            )
            for name in {**cards, **self.buffers, **self.servers}
        }

    def buffer_distribution(self, bins: int = 8) -> List[Tuple[str, int]]:
        """Histogram of current client buffer levels (frames)."""
        levels = list(self.buffers.values())
        if not levels:
            return []
        top = max(max(levels), 1.0)
        width = top / bins
        counts = [0] * bins
        for level in levels:
            slot = min(bins - 1, int(level / width))
            counts[slot] += 1
        return [
            (f"{i * width:5.0f}-{(i + 1) * width:5.0f}", counts[i])
            for i in range(bins)
        ]

    def incident_strip(self) -> Optional[str]:
        """One status line for the incident strip (None when quiet):
        the recorder's closed-incident count, open capture window and
        trigger count, the last trigger and the last breached rule."""
        recorder = self.recorder
        closed = len(recorder.incidents)
        if not recorder.triggers_seen and not closed:
            return None
        parts = [f"closed={closed}"]
        open_trigger = recorder.open_trigger
        if open_trigger is not None:
            parts.append(
                f"OPEN {open_trigger['kind']}@{open_trigger['t']:.2f}s "
                f"({open_trigger['triggers']} trigger(s), capture to "
                f"{open_trigger['deadline']:.2f}s)"
            )
        parts.append(f"triggers={recorder.triggers_seen}")
        if self.last_trigger:
            parts.append(f"last={self.last_trigger}")
        breaches = self.slo_monitor.breach_events
        if breaches:
            parts.append(f"last breach rule={breaches[-1]['rule']}")
        return "incidents: " + "  ".join(parts)

    def slo_rows(self) -> List[Tuple[str, str, str]]:
        """(rule, state, value) rows from the live monitor; ``-`` for
        both until the rule's first window closes."""
        return [
            (name, "OK" if st.ok else "BREACH", f"{st.value:.3f}")
            if st.windows else (name, "-", "-")
            for name, st in sorted(self.slo_monitor.states.items())
        ]


def render_watch(state: WatchState, max_clients: int = 12) -> str:
    """One text frame of the live dashboard."""
    lines: List[str] = []
    clients = state.clients()
    stalled = sum(1 for v in clients.values() if v.stalled)
    done = sum(1 for v in clients.values() if v.card.finished)
    lines.append(
        f"t={state.now:8.2f}s  clients={len(clients)} "
        f"(stalled={stalled} done={done})  faults={state.faults} "
        f"views={state.views_installed}  events={state.events_seen}"
    )

    slo_rows = state.slo_rows()
    if slo_rows:
        lines.append("")
        lines.append("SLO:")
        for rule, status, value in slo_rows:
            marker = "!!" if status == "BREACH" else "  "
            lines.append(f"  {marker} {rule:<28} {status:<7} {value}")

    strip = state.incident_strip()
    if strip:
        if not slo_rows:
            lines.append("")
        lines.append(strip)

    dist = state.buffer_distribution()
    if dist:
        lines.append("")
        lines.append("buffer occupancy (frames -> clients):")
        peak = max(count for _, count in dist) or 1
        for label, count in dist:
            bar = "#" * int(round(24 * count / peak)) if count else ""
            lines.append(f"  {label} | {bar} {count or ''}")

    spans = state.telemetry.open_spans()
    if spans:
        lines.append("")
        lines.append("active spans:")
        for span in sorted(spans, key=lambda s: s.start)[:10]:
            lines.append(
                f"  {span.kind:<16} {span.key:<16} open "
                f"{state.now - span.start:7.2f}s"
            )

    worst = sorted(
        clients.values(),
        key=lambda v: (
            not v.stalled, -(v.card.stall_count + v.card.migrations), v.name
        ),
    )
    if worst:
        lines.append("")
        lines.append(
            f"clients (worst {min(max_clients, len(worst))} of {len(worst)}):"
        )
        lines.append(
            "  name        status  buffer  stalls  migr  skip  server"
        )
        for view in worst[:max_clients]:
            buffer = "-" if view.buffer is None else f"{view.buffer:6.0f}"
            card = view.card
            lines.append(
                f"  {view.name:<10}  {view.status:<6} {buffer:>7} "
                f"{card.stall_count:>7} {card.migrations:>5} "
                f"{card.skipped_frames:>5}  {view.server}"
            )

    if state.recent:
        lines.append("")
        lines.append("recent events:")
        lines.extend(f"  {line}" for line in state.recent)

    return "\n".join(lines)
