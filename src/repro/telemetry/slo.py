"""Online SLO evaluation over the telemetry bus.

An :class:`SloMonitor` evaluates windowed service-level objectives
*during* the run — the paper's service level, stated as rules:

* **glitch-free**: at least 99% of active clients play without a stall
  in each window;
* **failover**: the p99 take-over/rebalance latency stays under 2 s;
* **emergency bandwidth**: extra refill bandwidth stays within 40% of
  the base stream rate per window (the paper's Section 4.1 budget).

The monitor judges windows of the run's one per-client fold, the
:class:`~repro.telemetry.qoe.QoEAccumulator` it owns and feeds
(``monitor.qoe``): it keeps only window-scoped facts and reads who is
heard, who is stalled and each client's rate from the accumulator.
Per event its one subscription closes the windows that are due, adds
the closing rate segment of a rate event's client, feeds the
accumulator, then notes the window-only facts.

Design constraint inherited from the bus: the monitor must not perturb
the simulation, so it never schedules timers.  Windows advance *lazily*
on event arrival, and :meth:`SloMonitor.finish` closes every whole
window a quiet tail spans, then the partial one.  Breach / recovery
transitions emit ``slo.breach`` / ``slo.recover`` events, and windows
that consume error budget faster than allowed emit ``slo.burn`` (burn
rate = bad fraction over the allowed fraction, the SRE-workbook
measure).  The monitor subscribes with prefixes that exclude ``slo.``,
so its own emissions can never feed back.  Offline,
:func:`slo_from_timeline` judges the rule set an export's header names
up to its ``run_duration_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.telemetry.qoe import QoEAccumulator, _client_name
from repro.telemetry.text import Table


@dataclass
class WindowSnapshot:
    """What one closed window looked like, handed to each rule."""

    start: float
    end: float
    clients: int
    stalled: int
    failover_durations: List[float]  # cumulative over the run so far
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


#: What advances the windows; ``slo.`` is deliberately absent so the
#: monitor's own emissions can never feed back into it.
SLO_PREFIXES = ("client.", "server.", "span.", "fault.")

#: The monitor's one subscription: the window kinds plus the one QoE
#: kind (:data:`~repro.telemetry.qoe.QOE_PREFIXES`) outside them.
OBSERVED_PREFIXES = SLO_PREFIXES + ("metric.sample",)

#: The kinds that change a client's stream rate.
RATE_KINDS = ("server.rate", "server.emergency.step")

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
    tumbling windows of the run's QoE fold, live on the bus."""

    def __init__(self, telemetry, rule_set: str = "paper") -> None:
        self.telemetry = telemetry
        self.rules = RULE_SETS[rule_set]
        self.states: Dict[str, RuleState] = {
            rule.name: RuleState(rule=rule) for rule in self.rules
        }
        self.breach_events: List[Dict] = []
        #: The run's one per-client fold, which the windows read.
        self.qoe = QoEAccumulator()
        self._window_start = 0.0
        # Window-scoped facts.
        self._stalled_in_window: Set[str] = set()
        self._failovers: List[float] = []
        self._extra_frames = 0.0
        self._base_frames = 0.0
        self._rejects = 0
        self._finished = False
        self._subscription = telemetry.subscribe(
            self._on_event, prefixes=OBSERVED_PREFIXES
        )

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def _on_event(self, event) -> None:
        t = event.time
        kind = event.kind
        fields = event.fields
        if kind.startswith(SLO_PREFIXES):
            self._close_windows_before(t)
            if kind in RATE_KINDS:
                # The client's previous rate runs up to this event.
                state = self.qoe.rates.get(_client_name(fields.get("client", "?")))
                if state is not None:
                    self._integrate(state, t)
        self.qoe.feed(t, kind, fields)
        if kind == "client.stall.begin":
            self._stalled_in_window.add(_client_name(fields.get("client", "?")))
        elif kind in ("span.end", "span.abandoned"):
            if fields.get("span") in ("takeover", "rebalance"):
                duration = fields.get("duration_s")
                if duration is not None:
                    self._failovers.append(float(duration))
        elif kind == "server.admission.reject":
            self._rejects += 1

    def _integrate(self, state: List[float], t: float) -> None:
        """Add a client's ``[last_t, extra_fps, base_fps]`` from the
        later of ``last_t`` and the window start up to ``t``."""
        dt = t - max(state[0], self._window_start)
        if dt > 0:
            self._extra_frames += dt * state[1]
            self._base_frames += dt * state[2]

    # ------------------------------------------------------------------
    # Window evaluation
    # ------------------------------------------------------------------
    def _close_windows_before(self, t: float) -> None:
        """Close every whole window that ends at or before ``t``."""
        while t >= self._window_start + WINDOW_S:
            self._close_window(self._window_start + WINDOW_S)

    def _close_window(self, end: float) -> None:
        for state in self.qoe.rates.values():
            self._integrate(state, end)
        self.judge(WindowSnapshot(
            start=self._window_start,
            end=end,
            clients=len(self.qoe.heard),
            stalled=len(self._stalled_in_window),
            failover_durations=list(self._failovers),
            extra_frames=self._extra_frames,
            base_frames=self._base_frames,
            rejects=self._rejects,
        ))
        # Roll the window: stalls spanning the boundary stay counted.
        self._window_start = end
        self._stalled_in_window = set(self.qoe.stalled())
        self._extra_frames = 0.0
        self._base_frames = 0.0
        self._rejects = 0

    def judge(self, window: WindowSnapshot) -> None:
        """Fold one closed window into every rule's state."""
        tel = self.telemetry
        for rule in self.rules:
            verdict = rule.evaluate(window)
            target = float(rule.target)
            state = self.states[rule.name]
            state.windows += 1
            state.value = verdict.value
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
        """Close every whole window that has passed by ``end_t``, then
        the trailing partial one; detach; return the summary."""
        if not self._finished:
            self._finished = True
            if end_t is not None:
                self._close_windows_before(end_t)
                if end_t > self._window_start:
                    self._close_window(end_t)
            self._subscription.close()
        return {name: state.as_dict() for name, state in self.states.items()}

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

    Replays the export through a fresh monitor judging the rule set
    the header names (default ``"paper"``) up to the header's
    ``run_duration_s`` (else the last replayed event); the monitor is a
    pure fold over ``(t, kind, fields)``, so this equals the online
    summary for the same run — the contract ``repro-vod report`` relies on.
    """
    from repro.telemetry.bus import Telemetry, TelemetryEvent
    from repro.telemetry.report import replay

    meta = timeline.meta
    monitor = SloMonitor(Telemetry(), meta.get("slo", "paper"))
    last_t = replay(
        timeline.events,
        lambda t, kind, fields: monitor._on_event(TelemetryEvent(t, kind, fields)),
        OBSERVED_PREFIXES,
    )
    return monitor.finish(float(meta.get("run_duration_s", last_t)))


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
        extra_frames=0.0,
        base_frames=0.0,
    ))
    return monitor.finish()
