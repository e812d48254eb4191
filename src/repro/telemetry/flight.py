"""The flight recorder: bounded always-on capture with incident scoping.

At million-viewer scale an exhaustive JSONL export of a run is
gigabytes — yet the moments the paper cares about (a crash, the
suspicion, the view agreement, the takeover, the client's resume) span
seconds.  A :class:`FlightRecorder` subscribes to the
:class:`~repro.telemetry.bus.Telemetry` bus like any other observer and
keeps only what a postmortem needs:

* **Ring buffers** — one bounded ``deque`` per event kind, with an
  optional sim-time horizon, so steady-state history costs O(budget)
  memory no matter how long the run is.
* **Deterministic sampling** — high-volume kinds keep 1-in-N by a
  per-kind modular counter (no RNG; the retained subset is a pure
  function of the event stream).  ``fault.*``, ``slo.*``, ``span.*``
  and ``invariant.*`` events are never sampled out.
* **Trigger rules** — an ``slo.breach``, a fault injection, an
  invariant violation, a server crash or an abandoned takeover span
  freezes the pre-trigger window from the rings and opens a
  full-fidelity capture window; overlapping triggers extend the same
  window.  Each closed window becomes an :class:`Incident` carrying the
  causal chains (:class:`~repro.telemetry.causal.TraceGraph`), the
  exact detect+agree+redistribute failover breakdowns, per-client QoE
  impact attribution and a timeline excerpt.
* **Self-metering** — the recorder counts what it saw, retained,
  sampled out and evicted per kind and publishes
  ``telemetry.flight.*`` metrics, so its own memory footprint is a
  first-class, gated number.

The recorder follows PR 2's observer contract: it never draws
randomness, schedules nothing, and emits nothing while the run is
live — enabling it cannot perturb simulation outcomes (same seed ⇒
byte-identical client stats, recorder on or off).
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.bus import Telemetry, TelemetryEvent
from repro.telemetry.causal import TraceGraph, critical_path, failover_breakdowns
from repro.telemetry.report import is_timeline_kind

#: What the recorder subscribes to: every application-level kind (the
#: exporter's default set) plus invariant violations.  The two firehose
#: kinds (``sim.*``, ``net.deliver``) stay out by construction.
FLIGHT_PREFIXES = (
    "client.", "server.", "gcs.", "net.drop", "fault.", "span.", "metric.",
    "slo.", "invariant.",
)

#: Kinds never sampled out (still ring-bounded: memory wins over
#: completeness, but these kinds are low-volume by design).
ALWAYS_RETAIN_PREFIXES = ("fault.", "slo.", "span.", "invariant.")

#: Rough per-record memory estimate (dict + a handful of small values);
#: used by the self-metering byte gauge, not for eviction decisions.
_RECORD_OVERHEAD_BYTES = 96
_FIELD_BYTES = 48


@dataclass(frozen=True)
class FlightRecorderConfig:
    """Retention budgets, sampling rates and trigger windows.

    Everything here is deterministic: budgets and sampling are pure
    functions of the event stream, and windows are in *sim* time, so a
    fixed seed produces the same incidents run after run.
    """

    #: Ring capacity per event kind (events), unless overridden.
    default_budget: int = 512
    #: Per-kind-prefix budget overrides (longest matching prefix wins).
    budgets: Dict[str, int] = field(default_factory=dict)
    #: Optional sim-time horizon: ring entries older than ``now -
    #: horizon_s`` are evicted lazily as new events of that kind arrive.
    horizon_s: Optional[float] = None
    #: Keep 1-in-N per kind prefix (longest match wins; 1 = keep all).
    #: ``metric.sample`` is the classic firehose here — one record per
    #: client per sampling tick.
    sample_every: Dict[str, int] = field(
        default_factory=lambda: {"metric.": 8}
    )
    #: Pre-trigger window frozen from the rings, in sim seconds.
    pre_trigger_s: float = 5.0
    #: Full-fidelity capture window after the last trigger, sim seconds.
    post_trigger_s: float = 5.0
    #: Hard cap on captured events per incident (excess is counted as
    #: truncated, never silently dropped).
    max_capture_events: int = 50_000
    #: Hard cap on assembled incidents (further triggers are counted).
    max_incidents: int = 16
    #: Distinct triggers recorded per incident before folding.
    max_triggers_per_incident: int = 64
    #: Failover breakdowns stored per incident (total count kept).
    max_breakdowns: int = 500
    #: Causal chains summarized per incident.
    max_chains: int = 8
    #: Timeline-excerpt rows stored per incident.
    excerpt_limit: int = 80
    #: Clients listed in the QoE-impact attribution (worst first).
    qoe_top_k: int = 10

    def budget_for(self, kind: str) -> int:
        best, best_len = self.default_budget, -1
        for prefix, budget in self.budgets.items():
            if kind.startswith(prefix) and len(prefix) > best_len:
                best, best_len = budget, len(prefix)
        return max(1, int(best))

    def sample_rate_for(self, kind: str) -> int:
        if kind.startswith(ALWAYS_RETAIN_PREFIXES):
            return 1
        best, best_len = 1, -1
        for prefix, rate in self.sample_every.items():
            if kind.startswith(prefix) and len(prefix) > best_len:
                best, best_len = rate, len(prefix)
        return max(1, int(best))


def is_trigger(kind: str, fields: Dict) -> bool:
    """The trigger rules: the moments that open a capture window.

    ``server.crash`` is a trigger in its own right (the scale rig
    crashes servers directly, without a :class:`FaultInjector`), as is
    an abandoned *takeover* span — an adopter that never resumed the
    stream is precisely the story a postmortem must keep.
    """
    if kind in ("slo.breach", "fault.fired", "invariant.violation",
                "server.crash"):
        return True
    if kind == "span.abandoned" and fields.get("span") == "takeover":
        return True
    return False


def _trigger_detail(kind: str, fields: Dict) -> str:
    """One human line identifying a trigger (for strips and reports)."""
    if kind == "slo.breach":
        return f"rule={fields.get('rule', '?')} value={fields.get('value')}"
    if kind == "fault.fired":
        return f"action={fields.get('action', '?')}"
    if kind == "invariant.violation":
        return f"rule={fields.get('rule', '?')} client={fields.get('client')}"
    if kind == "server.crash":
        return f"server={fields.get('server', '?')}"
    if kind == "span.abandoned":
        return f"span=takeover key={fields.get('key', '?')}"
    return ""


@dataclass
class Incident:
    """One assembled capture window: the *why*, bounded and portable.

    Everything is plain data (``as_dict``/``from_dict`` round-trip), so
    incidents serialize into benchmark JSON unchanged; ``from_dict``
    ignores keys it does not know (a ``shard`` tag of older files).
    The breakdowns inherit the causal layer's exactness guarantee:
    ``detect_s + agree_s + redistribute_s == total_s`` (the takeover
    span duration) by construction.
    """

    id: str
    trigger_kind: str
    trigger_t: float
    trigger_detail: str = ""
    window_start: float = 0.0
    window_end: float = 0.0
    triggers: List[Dict] = field(default_factory=list)
    n_triggers: int = 0
    pre_records: int = 0
    captured_records: int = 0
    truncated_records: int = 0
    breakdowns: List[Dict] = field(default_factory=list)
    n_breakdowns: int = 0
    chains: List[Dict] = field(default_factory=list)
    n_chains: int = 0
    qoe: Dict = field(default_factory=dict)
    excerpt: List[Dict] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "Incident":
        names = {f for f in cls.__dataclass_fields__}  # noqa: C401
        return cls(**{k: v for k, v in payload.items() if k in names})


class _Capture:
    """An open capture window (internal state between trigger and close)."""

    __slots__ = (
        "trigger_kind", "trigger_t", "trigger_detail", "deadline",
        "pre", "records", "truncated", "triggers", "n_triggers",
    )

    def __init__(self, trigger_kind, trigger_t, detail, deadline, pre):
        self.trigger_kind = trigger_kind
        self.trigger_t = trigger_t
        self.trigger_detail = detail
        self.deadline = deadline
        self.pre: List[Tuple[int, Dict]] = pre
        self.records: List[Tuple[int, Dict]] = []
        self.truncated = 0
        self.triggers: List[Dict] = [
            {"t": trigger_t, "kind": trigger_kind, "detail": detail}
        ]
        self.n_triggers = 1


class FlightRecorder:
    """Bounded always-on capture: rings + triggers + incident assembly.

    Usage::

        recorder = FlightRecorder(sim.telemetry)
        ...  # run the simulation
        incidents = recorder.finish()

    A pure observer: subscribing flips ``telemetry.active`` like any
    exporter would, but the recorder itself emits nothing, draws no
    randomness and schedules no events — PR 2's non-perturbation
    contract holds by construction.
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry],
        config: Optional[FlightRecorderConfig] = None,
    ) -> None:
        self.telemetry = telemetry
        self.config = config or FlightRecorderConfig()
        self.incidents: List[Incident] = []
        # Self-metering (per kind).
        self.seen: Dict[str, int] = {}
        self.retained: Dict[str, int] = {}
        self.sampled_out: Dict[str, int] = {}
        self.evicted: Dict[str, int] = {}
        self.triggers_seen = 0
        self.triggers_dropped = 0
        self.captured_total = 0
        # Internal state.
        self._rings: Dict[str, Deque[Tuple[int, Dict]]] = {}
        #: Keep-1-in-N per kind, resolved with the kind's ring.
        self._rates: Dict[str, int] = {}
        self._seq = 0
        self._last_t = 0.0
        self._capture: Optional[_Capture] = None
        self._finished = False
        self._subscription = None
        if telemetry is not None:
            self._subscription = telemetry.subscribe(
                self._on_event, prefixes=FLIGHT_PREFIXES
            )

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def _on_event(self, event: TelemetryEvent) -> None:
        self.feed(event.time, event.kind, event.fields)

    def feed(self, t: float, kind: str, fields: Dict) -> None:
        """Process one event (the subscriber path and offline replay)."""
        config = self.config
        self.seen[kind] = self.seen.get(kind, 0) + 1
        self._last_t = t if t > self._last_t else self._last_t

        # A capture whose post-trigger window has elapsed closes before
        # this event is considered (it may itself be a new trigger).
        capture = self._capture
        if capture is not None and t > capture.deadline:
            self._close_capture(capture.deadline)
            capture = None

        if is_trigger(kind, fields):
            self.triggers_seen += 1
            detail = _trigger_detail(kind, fields)
            if capture is not None:
                capture.deadline = max(
                    capture.deadline, t + config.post_trigger_s
                )
                capture.n_triggers += 1
                if len(capture.triggers) < config.max_triggers_per_incident:
                    capture.triggers.append(
                        {"t": t, "kind": kind, "detail": detail}
                    )
            elif len(self.incidents) >= config.max_incidents:
                self.triggers_dropped += 1
            else:
                capture = self._capture = _Capture(
                    kind, t, detail, t + config.post_trigger_s,
                    self._snapshot_window(t - config.pre_trigger_s),
                )

        record = None
        if capture is not None:
            record = self._record(t, kind, fields)
            if len(capture.records) < config.max_capture_events:
                capture.records.append((self._seq, record))
                self.captured_total += 1
            else:
                capture.truncated += 1

        # Ring retention is independent of capture state: the sampling
        # counters advance on every event, so what the rings hold is a
        # pure function of the stream, capture windows or not.
        ring = self._rings.get(kind)
        if ring is None:
            # A kind's first event is never sampled out, so its ring and
            # rate (the config is frozen) are resolved here, once.
            ring = self._rings[kind] = deque(maxlen=config.budget_for(kind))
            self._rates[kind] = config.sample_rate_for(kind)
        rate = self._rates[kind]
        if rate > 1 and (self.seen[kind] - 1) % rate:
            self.sampled_out[kind] = self.sampled_out.get(kind, 0) + 1
            return
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self.evicted[kind] = self.evicted.get(kind, 0) + 1
        if record is None:
            record = self._record(t, kind, fields)
        ring.append((self._seq, record))
        self.retained[kind] = self.retained.get(kind, 0) + 1
        if config.horizon_s is not None:
            floor = t - config.horizon_s
            while ring and ring[0][1]["t"] < floor:
                ring.popleft()
                self.evicted[kind] = self.evicted.get(kind, 0) + 1

    def _record(self, t: float, kind: str, fields: Dict) -> Dict:
        self._seq += 1
        record = dict(fields)
        record["t"] = t
        record["kind"] = kind
        return record

    def _snapshot_window(self, since_t: float) -> List[Tuple[int, Dict]]:
        """Freeze every ring entry at/after ``since_t``, emission order."""
        frozen: List[Tuple[int, Dict]] = []
        for ring in self._rings.values():
            for seq, record in ring:
                if record["t"] >= since_t:
                    frozen.append((seq, record))
        frozen.sort(key=lambda item: item[0])
        return frozen

    # ------------------------------------------------------------------
    # Incident assembly
    # ------------------------------------------------------------------
    def _close_capture(self, end_t: float) -> None:
        capture, self._capture = self._capture, None
        if capture is None:
            return
        config = self.config
        records = [rec for _, rec in capture.pre] + [
            rec for _, rec in capture.records
        ]
        window_start = (
            records[0]["t"] if records
            else capture.trigger_t - config.pre_trigger_s
        )

        graph = TraceGraph(records)
        breakdowns = failover_breakdowns(graph)
        chains = graph.chains()
        chain_summaries = []
        for chain in sorted(
            chains, key=lambda c: (-len(c.events), c.start, c.cause)
        )[:config.max_chains]:
            chain_summaries.append({
                "cause": chain.cause,
                "events": len(chain.events),
                "start": chain.start,
                "end": chain.end,
                "path": [
                    {"t": e.get("t"), "kind": e.get("kind"),
                     "detail": _brief(e)}
                    for e in critical_path(chain)
                ],
            })

        self.incidents.append(Incident(
            id=f"incident#{len(self.incidents) + 1}",
            trigger_kind=capture.trigger_kind,
            trigger_t=capture.trigger_t,
            trigger_detail=capture.trigger_detail,
            window_start=window_start,
            window_end=end_t,
            triggers=capture.triggers,
            n_triggers=capture.n_triggers,
            pre_records=len(capture.pre),
            captured_records=len(capture.records),
            truncated_records=capture.truncated,
            breakdowns=[asdict(b) for b in breakdowns[:config.max_breakdowns]],
            n_breakdowns=len(breakdowns),
            chains=chain_summaries,
            n_chains=len(chains),
            qoe=_qoe_impact(records, end_t, config.qoe_top_k),
            excerpt=_excerpt(records, config.excerpt_limit),
        ))

    # ------------------------------------------------------------------
    # Lifecycle + self-metering
    # ------------------------------------------------------------------
    def finish(self, end_t: Optional[float] = None) -> List[Incident]:
        """Detach, close any open capture, publish ``telemetry.flight.*``
        metrics, and return the assembled incidents.  Idempotent."""
        if self._finished:
            return self.incidents
        self._finished = True
        if self._subscription is not None:
            self._subscription.close()
        if self._capture is not None:
            close_t = self._capture.deadline
            if end_t is not None:
                close_t = min(close_t, max(end_t, self._capture.trigger_t))
            self._close_capture(close_t)
        if self.telemetry is not None:
            self._publish_metrics(self.telemetry.metrics)
        return self.incidents

    def _publish_metrics(self, metrics) -> None:
        metrics.counter("telemetry.flight.events.seen").inc(
            sum(self.seen.values())
        )
        metrics.counter("telemetry.flight.events.retained").inc(
            sum(self.retained.values())
        )
        metrics.counter("telemetry.flight.events.sampled_out").inc(
            sum(self.sampled_out.values())
        )
        metrics.counter("telemetry.flight.events.evicted").inc(
            sum(self.evicted.values())
        )
        metrics.counter("telemetry.flight.events.captured").inc(
            self.captured_total
        )
        metrics.counter("telemetry.flight.incidents").inc(
            len(self.incidents)
        )
        metrics.counter("telemetry.flight.triggers.seen").inc(
            self.triggers_seen
        )
        metrics.counter("telemetry.flight.triggers.dropped").inc(
            self.triggers_dropped
        )
        metrics.gauge("telemetry.flight.buffer.occupancy").set(
            self.occupancy()
        )
        metrics.gauge("telemetry.flight.buffer.estimated_bytes").set(
            self.estimated_bytes()
        )

    def occupancy(self) -> int:
        """Events currently held across every ring buffer."""
        return sum(len(ring) for ring in self._rings.values())

    def capture_occupancy(self) -> int:
        """Events held by the open capture window (0 when none)."""
        capture = self._capture
        if capture is None:
            return 0
        return len(capture.pre) + len(capture.records)

    def estimated_bytes(self) -> int:
        """Order-of-magnitude memory estimate for rings + open capture.

        A flat per-record model (overhead + per-field cost) — cheap to
        compute over the bounded buffers and stable across Python
        versions, which is what a budget gate needs.
        """
        total = 0
        for ring in self._rings.values():
            for _, record in ring:
                total += _RECORD_OVERHEAD_BYTES + _FIELD_BYTES * len(record)
        capture = self._capture
        if capture is not None:
            for _, record in capture.pre:
                total += _RECORD_OVERHEAD_BYTES + _FIELD_BYTES * len(record)
            for _, record in capture.records:
                total += _RECORD_OVERHEAD_BYTES + _FIELD_BYTES * len(record)
        return total

    def ring_budget(self) -> int:
        """Total configured ring capacity (events) across kinds seen.

        The budget gate's counterpart to :meth:`occupancy`: occupancy
        can never exceed this, by ``deque(maxlen)`` construction — the
        gate asserts it anyway as an end-to-end check."""
        config = self.config
        return sum(
            ring.maxlen or config.budget_for(kind)
            for kind, ring in self._rings.items()
        )

    def max_ring_bytes(self) -> int:
        """The configured worst-case ring footprint (budget × kinds seen)."""
        config = self.config
        total = 0
        for kind, ring in self._rings.items():
            budget = ring.maxlen or config.budget_for(kind)
            total += budget * (_RECORD_OVERHEAD_BYTES + _FIELD_BYTES * 8)
        return total

    def metering(self) -> Dict:
        """Self-metering snapshot (plain data; crosses process bounds)."""
        return {
            "seen": dict(self.seen),
            "retained": dict(self.retained),
            "sampled_out": dict(self.sampled_out),
            "evicted": dict(self.evicted),
            "occupancy": self.occupancy(),
            "capture_occupancy": self.capture_occupancy(),
            "estimated_bytes": self.estimated_bytes(),
            "ring_budget": self.ring_budget(),
            "max_ring_bytes": self.max_ring_bytes(),
            "captured_total": self.captured_total,
            "triggers_seen": self.triggers_seen,
            "triggers_dropped": self.triggers_dropped,
            "incidents": len(self.incidents),
        }

    # Live views (the watch dashboard's incident strip).
    @property
    def open_trigger(self) -> Optional[Dict]:
        capture = self._capture
        if capture is None:
            return None
        return {
            "t": capture.trigger_t,
            "kind": capture.trigger_kind,
            "detail": capture.trigger_detail,
            "deadline": capture.deadline,
            "triggers": capture.n_triggers,
        }


# ----------------------------------------------------------------------
# Incident internals (pure functions over captured records)
# ----------------------------------------------------------------------
def _brief(event: Dict) -> str:
    parts = []
    for key in ("server", "client", "key", "span", "rule", "action", "view"):
        if key in event:
            parts.append(f"{key}={event[key]}")
    return " ".join(parts)


def _excerpt(records: Sequence[Dict], limit: int) -> List[Dict]:
    """The notable-timeline slice of the window, head+tail bounded."""
    notable = [r for r in records if is_timeline_kind(str(r.get("kind", "")))]
    if len(notable) <= limit:
        return list(notable)
    head = limit // 2
    tail = limit - head
    return list(notable[:head]) + list(notable[-tail:])


def _qoe_impact(records: Sequence[Dict], end_t: float, top_k: int) -> Dict:
    """Which clients' scorecards the window hit, and by how much.

    A window-scoped fold over the captured client events, penalized
    with the scorecard's window-computable components (2/stall cap 20,
    1/migration cap 5, 3/reject cap 35).  The rebuffer-ratio component
    needs whole-session watch time, so the raw ``stall_s`` is reported
    instead of folded into the penalty.
    """
    impact: Dict[str, Dict] = {}
    stall_since: Dict[str, float] = {}

    def entry(client: object) -> Dict:
        name = str(client).split("@", 1)[0]
        item = impact.get(name)
        if item is None:
            item = impact[name] = {
                "client": name, "stalls": 0, "stall_s": 0.0,
                "migrations": 0, "resumes": 0, "rejects": 0,
            }
        return item

    for record in records:
        kind = record.get("kind", "")
        if kind == "client.stall.begin":
            item = entry(record.get("client", "?"))
            item["stalls"] += 1
            stall_since[item["client"]] = float(record.get("t", end_t))
        elif kind == "client.stall.end":
            item = entry(record.get("client", "?"))
            since = stall_since.pop(item["client"], None)
            if since is not None:
                item["stall_s"] += float(record.get("t", end_t)) - since
        elif kind == "client.migrate":
            if str(record.get("from_server")) not in ("None", ""):
                entry(record.get("client", "?"))["migrations"] += 1
        elif kind == "client.resume":
            entry(record.get("client", "?"))["resumes"] += 1
        elif kind == "server.admission.reject":
            entry(record.get("client", "?"))["rejects"] += 1
    for name, since in stall_since.items():
        impact[name]["stall_s"] += max(0.0, end_t - since)

    for item in impact.values():
        item["penalty"] = (
            min(20.0, 2.0 * item["stalls"])
            + min(5.0, float(item["migrations"]))
            + min(35.0, 3.0 * item["rejects"])
        )
    ranked = sorted(
        impact.values(), key=lambda i: (-i["penalty"], i["client"])
    )
    return {
        "clients_hit": len(impact),
        "totals": {
            "stalls": sum(i["stalls"] for i in impact.values()),
            "stall_s": sum(i["stall_s"] for i in impact.values()),
            "migrations": sum(i["migrations"] for i in impact.values()),
            "resumes": sum(i["resumes"] for i in impact.values()),
            "rejects": sum(i["rejects"] for i in impact.values()),
        },
        "top": ranked[:top_k],
    }


def incidents_from_records(
    records: Sequence[Dict],
    config: Optional[FlightRecorderConfig] = None,
) -> List[Incident]:
    """Offline replay: rebuild incidents from an exported event stream.

    Feeds a fresh detached recorder the same ``(t, kind, fields)``
    triples the subscriber path saw, so incidents recomputed from a
    full JSONL export match the live recorder's (modulo events the
    export itself filtered out).
    """
    recorder = FlightRecorder(None, config)
    for record in records:
        kind = str(record.get("kind", ""))
        if kind in ("meta", "summary") or not kind.startswith(FLIGHT_PREFIXES):
            continue
        fields = {k: v for k, v in record.items() if k not in ("t", "kind")}
        recorder.feed(float(record.get("t", 0.0)), kind, fields)
    return recorder.finish()
