"""Online SLO evaluation over the telemetry bus.

An :class:`SloMonitor` subscribes to the bus and evaluates windowed
service-level objectives *during* the run — the paper's service level,
stated as rules:

* **glitch-free**: at least 99% of active clients play without a stall
  in each window;
* **failover**: the p99 take-over/rebalance latency stays under 2 s;
* **emergency bandwidth**: extra refill bandwidth stays within 40% of
  the base stream rate per window (the paper's Section 4.1 budget).

Design constraint inherited from the bus: the monitor must not perturb
the simulation, so it never schedules timers.  Windows advance *lazily*
on event arrival — every event carries its virtual time, so when one
lands past the current window boundary the closed window is evaluated
first, then the event is folded into the new window.  Breach /
recovery transitions emit ``slo.breach`` / ``slo.recover`` events, and
windows that consume error budget faster than allowed emit ``slo.burn``
(burn rate = bad fraction over the allowed fraction, the SRE-workbook
measure).  The monitor subscribes with prefixes that exclude ``slo.``,
so its own emissions can never feed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.telemetry.text import Table


@dataclass
class WindowSnapshot:
    """What one closed window looked like, handed to each rule."""

    start: float
    end: float
    clients: int
    stalled: int
    failover_durations: List[float]  # cumulative over the run so far
    window_failovers: int
    extra_frames: float
    base_frames: float
    rejects: int = 0  # admission rejects in this window


@dataclass
class Verdict:
    """One rule's judgement of one window."""

    value: float
    ok: bool
    target: float
    burn_rate: Optional[float] = None


class SloRule:
    """Base class: a named objective evaluated per closed window."""

    name = "slo"
    description = ""

    def evaluate(self, window: WindowSnapshot) -> Verdict:
        raise NotImplementedError


@dataclass
class GlitchFreeRule(SloRule):
    """At least ``target`` of active clients stall-free per window."""

    target: float = 0.99

    def __post_init__(self) -> None:
        self.name = "glitch_free_fraction"
        self.description = (
            f">= {self.target:.0%} of clients glitch-free per window"
        )

    def evaluate(self, window: WindowSnapshot) -> Verdict:
        if window.clients == 0:
            return Verdict(value=1.0, ok=True, target=self.target)
        value = 1.0 - window.stalled / window.clients
        budget = 1.0 - self.target
        burn = ((1.0 - value) / budget) if budget > 0 else (
            0.0 if value >= 1.0 else float(window.stalled)
        )
        return Verdict(
            value=value, ok=value >= self.target, target=self.target,
            burn_rate=burn,
        )


@dataclass
class FailoverLatencyRule(SloRule):
    """The ``quantile`` failover latency stays under ``limit_s``.

    Evaluated over every handoff seen so far (failovers are rare; a
    10-second window almost never holds enough samples for a p99).
    """

    quantile: float = 0.99
    limit_s: float = 2.0

    def __post_init__(self) -> None:
        self.name = f"failover_p{int(self.quantile * 100)}_s"
        self.description = (
            f"p{int(self.quantile * 100)} takeover latency "
            f"<= {self.limit_s:g}s"
        )

    def evaluate(self, window: WindowSnapshot) -> Verdict:
        durations = window.failover_durations
        if not durations:
            return Verdict(value=0.0, ok=True, target=self.limit_s)
        value = quantile(durations, self.quantile)
        return Verdict(value=value, ok=value <= self.limit_s,
                       target=self.limit_s)


@dataclass
class EmergencyBandwidthRule(SloRule):
    """Emergency refill bandwidth <= ``limit`` of the base rate."""

    limit: float = 0.40

    def __post_init__(self) -> None:
        self.name = "emergency_bandwidth_share"
        self.description = (
            f"emergency bandwidth <= {self.limit:.0%} of base rate"
        )

    def evaluate(self, window: WindowSnapshot) -> Verdict:
        if window.base_frames <= 0:
            return Verdict(value=0.0, ok=True, target=self.limit)
        value = window.extra_frames / window.base_frames
        return Verdict(value=value, ok=value <= self.limit,
                       target=self.limit)


@dataclass
class AdmissionStormRule(SloRule):
    """At most ``limit`` admission rejects per window.

    A healthy overload policy sheds a trickle of load; a storm of
    rejects means capacity is mis-provisioned or the bucket is mis-
    tuned.  Not part of :func:`default_rules` — admission is opt-in,
    and runs without a policy should keep their historical summaries —
    so scenarios with an :class:`~repro.server.admission.AdmissionSpec`
    add it explicitly.
    """

    limit: int = 50

    def __post_init__(self) -> None:
        self.name = "admission_rejects_per_window"
        self.description = f"<= {self.limit} admission rejects per window"

    def evaluate(self, window: WindowSnapshot) -> Verdict:
        value = float(window.rejects)
        return Verdict(value=value, ok=value <= self.limit,
                       target=float(self.limit))


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (deterministic, no interpolation)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))
    return ordered[rank]


def default_rules() -> Tuple[SloRule, ...]:
    """The paper's service level as rules (fresh instances)."""
    return (GlitchFreeRule(), FailoverLatencyRule(), EmergencyBandwidthRule())


#: What the monitor listens to; ``slo.`` is deliberately absent so the
#: monitor's own emissions can never feed back into it.
SLO_PREFIXES = ("client.", "server.", "span.", "fault.")


@dataclass
class RuleState:
    """Running account of one rule across the run."""

    rule: SloRule
    ok: bool = True
    value: float = 0.0
    breaches: int = 0
    burn_windows: int = 0
    windows: int = 0
    worst: float = 0.0

    def as_dict(self) -> Dict:
        return {
            "rule": self.rule.name,
            "description": self.rule.description,
            "ok": self.ok,
            "value": self.value,
            "target": getattr(self.rule, "target",
                              getattr(self.rule, "limit_s",
                                      getattr(self.rule, "limit", 0.0))),
            "breaches": self.breaches,
            "burn_windows": self.burn_windows,
            "windows": self.windows,
        }


class SloMonitor:
    """Evaluates SLO rules over tumbling windows, live on the bus."""

    def __init__(
        self,
        telemetry,
        rules: Optional[Tuple[SloRule, ...]] = None,
        window_s: float = 10.0,
        burn_threshold: float = 1.0,
    ) -> None:
        self.telemetry = telemetry
        self.rules = tuple(rules) if rules is not None else default_rules()
        self.window_s = float(window_s)
        self.burn_threshold = float(burn_threshold)
        self.states: Dict[str, RuleState] = {
            rule.name: RuleState(rule=rule) for rule in self.rules
        }
        self.breach_events: List[Dict] = []
        self._window_start = 0.0
        # Window accumulators.
        self._clients: Set[str] = set()
        self._stalled_now: Set[str] = set()
        self._stalled_in_window: Set[str] = set()
        self._failovers: List[float] = []
        self._window_failovers = 0
        self._extra_frames = 0.0
        self._base_frames = 0.0
        self._rejects = 0
        # Per-client rate integration: [last_t, extra_fps, base_fps].
        self._rate_state: Dict[str, List[float]] = {}
        self._finished = False
        self._subscription = telemetry.subscribe(
            self._on_event, prefixes=SLO_PREFIXES
        )

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def _on_event(self, event) -> None:
        t = event.time
        while t >= self._window_start + self.window_s:
            self._close_window(self._window_start + self.window_s)
        kind = event.kind
        fields = event.fields
        if kind.startswith("client."):
            client = str(fields.get("client", "?")).split("@", 1)[0]
            self._clients.add(client)
            if kind == "client.stall.begin":
                self._stalled_now.add(client)
                self._stalled_in_window.add(client)
            elif kind == "client.stall.end":
                self._stalled_now.discard(client)
        elif kind in ("span.end", "span.abandoned"):
            if fields.get("span") in ("takeover", "rebalance"):
                duration = fields.get("duration_s")
                if duration is not None:
                    self._failovers.append(float(duration))
                    self._window_failovers += 1
        elif kind == "server.admission.reject":
            self._rejects += 1
        elif kind in ("server.rate", "server.emergency.step"):
            self._feed_rate(t, kind, fields)

    def _feed_rate(self, t: float, kind: str, fields: Dict) -> None:
        client = str(fields.get("client", "?")).split("@", 1)[0]
        self._integrate(client, t)
        rate = float(fields.get("rate_fps", 0.0))
        state = self._rate_state.get(client)
        if kind == "server.rate":
            base = float(fields.get("base_fps", rate))
            refilling = float(fields.get("emergency", 0.0)) > 0
        else:
            base = state[2] if state is not None else rate
            refilling = float(fields.get("quantity", 0.0)) > 0
        extra = max(0.0, rate - base) if refilling else 0.0
        self._rate_state[client] = [t, extra, base]

    def _integrate(self, client: str, t: float) -> None:
        state = self._rate_state.get(client)
        if state is None:
            return
        dt = t - state[0]
        if dt > 0:
            self._extra_frames += dt * state[1]
            self._base_frames += dt * state[2]
            state[0] = t

    # ------------------------------------------------------------------
    # Window evaluation
    # ------------------------------------------------------------------
    def _close_window(self, end: float) -> None:
        for client in list(self._rate_state):
            self._integrate(client, end)
        window = WindowSnapshot(
            start=self._window_start,
            end=end,
            clients=len(self._clients),
            stalled=len(self._stalled_in_window),
            failover_durations=list(self._failovers),
            window_failovers=self._window_failovers,
            extra_frames=self._extra_frames,
            base_frames=self._base_frames,
            rejects=self._rejects,
        )
        self.judge(window)
        # Roll the window: stalls spanning the boundary stay counted.
        self._window_start = end
        self._stalled_in_window = set(self._stalled_now)
        self._window_failovers = 0
        self._extra_frames = 0.0
        self._base_frames = 0.0
        self._rejects = 0

    def judge(self, window: WindowSnapshot) -> None:
        """Fold one closed window into every rule's state."""
        for rule in self.rules:
            self._judge(rule, window)

    def _judge(self, rule: SloRule, window: WindowSnapshot) -> None:
        verdict = rule.evaluate(window)
        state = self.states[rule.name]
        state.windows += 1
        state.value = verdict.value
        state.worst = max(state.worst, abs(verdict.value))
        tel = self.telemetry
        if verdict.burn_rate is not None and (
            verdict.burn_rate >= self.burn_threshold
        ):
            state.burn_windows += 1
            if tel.active:
                tel.emit(
                    "slo.burn",
                    rule=rule.name,
                    burn_rate=verdict.burn_rate,
                    value=verdict.value,
                    target=verdict.target,
                    window_start=window.start,
                    window_end=window.end,
                )
        if not verdict.ok and state.ok:
            state.breaches += 1
            record = {
                "rule": rule.name,
                "value": verdict.value,
                "target": verdict.target,
                "window_start": window.start,
                "window_end": window.end,
            }
            self.breach_events.append(record)
            if tel.active:
                tel.emit("slo.breach", **record)
                tel.count("slo.breaches")
        elif verdict.ok and not state.ok:
            if tel.active:
                tel.emit(
                    "slo.recover",
                    rule=rule.name,
                    value=verdict.value,
                    target=verdict.target,
                    window_end=window.end,
                )
        state.ok = verdict.ok

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def finish(self, end_t: Optional[float] = None) -> Dict[str, Dict]:
        """Close the trailing partial window, detach, return the summary."""
        if not self._finished:
            self._finished = True
            if end_t is not None and end_t > self._window_start:
                self._close_window(end_t)
            self._subscription.close()
        return self.summary()

    def summary(self) -> Dict[str, Dict]:
        return {name: state.as_dict() for name, state in self.states.items()}

    @property
    def ok(self) -> bool:
        return all(state.ok for state in self.states.values())

    @property
    def total_breaches(self) -> int:
        return sum(state.breaches for state in self.states.values())

    @property
    def failovers(self) -> Tuple[float, ...]:
        """Every take-over/rebalance duration seen, in event order."""
        return tuple(self._failovers)


def render_slo(summary: Dict[str, Dict]) -> str:
    """A text table of SLO rule outcomes (``repro-vod report``)."""
    table = Table(
        "SLO rules",
        ["rule", "objective", "state", "last value", "breaches",
         "burn windows", "windows"],
    )
    for name in sorted(summary):
        item = summary[name]
        table.add_row(
            name,
            item.get("description", ""),
            "OK" if item.get("ok", True) else "BREACH",
            f"{item.get('value', 0.0):.3f}",
            item.get("breaches", 0),
            item.get("burn_windows", 0),
            item.get("windows", 0),
        )
    return table.render()


def slo_from_timeline(
    timeline, rules=None, window_s: float = 10.0
) -> Dict[str, Dict]:
    """Recompute the SLO verdicts offline from a parsed export.

    Replays the export through a fresh monitor on a throwaway bus; the
    monitor is a pure fold over ``(t, kind, fields)``, so this equals
    the online summary for the same run — the determinism contract
    ``repro-vod report`` relies on.
    """
    from repro.telemetry.bus import Telemetry, TelemetryEvent

    monitor = SloMonitor(Telemetry(), rules=rules, window_s=window_s)
    last_t = 0.0
    for record in timeline.events:
        kind = str(record.get("kind", ""))
        if not kind.startswith(SLO_PREFIXES):
            continue
        t = float(record.get("t", 0.0))
        last_t = max(last_t, t)
        fields = {
            key: value for key, value in record.items()
            if key not in ("t", "kind")
        }
        monitor._on_event(TelemetryEvent(t, kind, fields))
    return monitor.finish(last_t)


def whole_run_slo(
    n_clients: int,
    duration_s: float,
    failover_latencies: List[float],
    stalled_clients: int,
) -> Dict[str, Dict]:
    """SLO verdicts over one window spanning a whole unobserved run.

    A scale run measures with the bus inactive, so there is no
    per-window stream to fold; the rules instead judge one window built
    from the run's end-of-run facts — the population, how many viewers
    stalled and every failover latency — through a monitor on a
    detached bus (the online fold, not a reimplementation).
    """
    from repro.telemetry.bus import Telemetry

    latencies = sorted(float(value) for value in failover_latencies)
    monitor = SloMonitor(Telemetry())
    monitor.judge(WindowSnapshot(
        start=0.0,
        end=float(duration_s),
        clients=int(n_clients),
        stalled=int(stalled_clients),
        failover_durations=latencies,
        window_failovers=len(latencies),
        extra_frames=0.0,
        base_frames=0.0,
    ))
    return monitor.finish()
