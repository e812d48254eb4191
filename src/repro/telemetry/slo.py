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
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.telemetry.qoe import _client_name
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
    burn_rate: Optional[float] = None


def _glitch_free(window: WindowSnapshot, target: float) -> Verdict:
    if window.clients == 0:
        return Verdict(1.0, True)
    value = 1.0 - window.stalled / window.clients
    return Verdict(value, value >= target, (1.0 - value) / (1.0 - target))


def _failover_p99(window: WindowSnapshot, limit: float) -> Verdict:
    # Over every handoff seen so far: failovers are rare, and a
    # 10-second window almost never holds enough samples for a p99.
    durations = window.failover_durations
    if not durations:
        return Verdict(0.0, True)
    value = quantile(durations, 0.99)
    return Verdict(value, value <= limit)


def _emergency_share(window: WindowSnapshot, limit: float) -> Verdict:
    if window.base_frames <= 0:
        return Verdict(0.0, True)
    value = window.extra_frames / window.base_frames
    return Verdict(value, value <= limit)


def _admission_rejects(window: WindowSnapshot, limit: float) -> Verdict:
    value = float(window.rejects)
    return Verdict(value, value <= limit)


class Rule(NamedTuple):
    """A named objective: ``judge(window, target)`` rules on one closed
    window."""

    name: str
    description: str
    target: float
    judge: Callable[[WindowSnapshot, float], Verdict]

    def evaluate(self, window: WindowSnapshot) -> Verdict:
        return self.judge(window, self.target)


#: The paper's service level: glitch-free play, p99 takeover latency
#: and the Section 4.1 emergency bandwidth budget.
PAPER_RULES: Tuple[Rule, ...] = (
    Rule("glitch_free_fraction",
         ">= 99% of clients glitch-free per window",
         0.99, _glitch_free),
    Rule("failover_p99_s", "p99 takeover latency <= 2s", 2.0, _failover_p99),
    Rule("emergency_bandwidth_share",
         "emergency bandwidth <= 40% of base rate", 0.40, _emergency_share),
)

#: A healthy overload policy sheds a trickle of load; a storm of
#: rejects means capacity is mis-provisioned or the bucket mis-tuned.
#: Only runs with an admission policy judge it, so runs without one
#: keep their historical summaries.  Its target is the int 50, which
#: summaries have always written as ``50``.
STORM_RULE = Rule(
    "admission_rejects_per_window",
    "<= 50 admission rejects per window", 50, _admission_rejects,
)

#: The rule sets a run can be judged by, by name.
RULE_SETS: Dict[str, Tuple[Rule, ...]] = {
    "paper": PAPER_RULES,
    "admission": PAPER_RULES + (STORM_RULE,),
}


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (deterministic, no interpolation)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))
    return ordered[rank]


#: What the monitor listens to; ``slo.`` is deliberately absent so the
#: monitor's own emissions can never feed back into it.
SLO_PREFIXES = ("client.", "server.", "span.", "fault.")

#: Tumbling window length (s), and the burn rate at which a window
#: counts as burning the error budget.
WINDOW_S = 10.0
BURN_THRESHOLD = 1.0


@dataclass
class RuleState:
    """Running account of one rule across the run."""

    rule: Rule
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
            "target": self.rule.target,
            "breaches": self.breaches,
            "burn_windows": self.burn_windows,
            "windows": self.windows,
        }


class SloMonitor:
    """Evaluates the ``rule_set`` (a :data:`RULE_SETS` name) over
    tumbling windows, live on the bus."""

    def __init__(self, telemetry, rule_set: str = "paper") -> None:
        self.telemetry = telemetry
        self.rules = RULE_SETS[rule_set]
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
        while t >= self._window_start + WINDOW_S:
            self._close_window(self._window_start + WINDOW_S)
        kind = event.kind
        fields = event.fields
        if kind.startswith("client."):
            client = _client_name(fields.get("client", "?"))
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
        client = _client_name(fields.get("client", "?"))
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

    def _judge(self, rule: Rule, window: WindowSnapshot) -> None:
        verdict = rule.evaluate(window)
        target = float(rule.target)
        state = self.states[rule.name]
        state.windows += 1
        state.value = verdict.value
        state.worst = max(state.worst, abs(verdict.value))
        tel = self.telemetry
        if verdict.burn_rate is not None and (
            verdict.burn_rate >= BURN_THRESHOLD
        ):
            state.burn_windows += 1
            if tel.active:
                tel.emit(
                    "slo.burn",
                    rule=rule.name,
                    burn_rate=verdict.burn_rate,
                    value=verdict.value,
                    target=target,
                    window_start=window.start,
                    window_end=window.end,
                )
        if not verdict.ok and state.ok:
            state.breaches += 1
            record = {
                "rule": rule.name,
                "value": verdict.value,
                "target": target,
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
                    target=target,
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


def slo_from_timeline(timeline) -> Dict[str, Dict]:
    """Recompute the SLO verdicts offline from a parsed export.

    Replays the export through a fresh monitor on a throwaway bus; the
    monitor is a pure fold over ``(t, kind, fields)``, so this equals
    the online summary for the same run — the determinism contract
    ``repro-vod report`` relies on.
    """
    from repro.telemetry.bus import Telemetry, TelemetryEvent
    from repro.telemetry.report import replay

    monitor = SloMonitor(Telemetry())
    last_t = replay(
        timeline.events,
        lambda t, kind, fields: monitor._on_event(TelemetryEvent(t, kind, fields)),
        SLO_PREFIXES,
    )
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
