"""The flight recorder: bounded always-on capture with incident scoping.

At million-viewer scale an exhaustive JSONL export of a run is
gigabytes — yet the moments the paper cares about (a crash, the
suspicion, the view agreement, the takeover, the client's resume) span
seconds.  A :class:`FlightRecorder` subscribes to the
:class:`~repro.telemetry.bus.Telemetry` bus like any other observer and
keeps only what a postmortem needs:

* **Ring buffers** — one bounded ``deque`` per event kind, so
  steady-state history costs O(budget) memory no matter how long the
  run is.
* **Deterministic sampling** — ``metric.*`` kinds keep 1-in-N by a
  per-kind modular counter (no RNG; the retained subset is a pure
  function of the event stream).  No other kind is sampled out.
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
from repro.telemetry.qoe import QoEAccumulator, _client_name, is_handoff
from repro.telemetry.report import is_timeline_kind, replay

#: What the recorder subscribes to: every application-level kind (the
#: exporter's default set) plus invariant violations.  The two firehose
#: kinds (``sim.*``, ``net.deliver``) stay out by construction.
FLIGHT_PREFIXES = (
    "client.", "server.", "gcs.", "net.drop", "fault.", "span.", "metric.",
    "slo.", "invariant.",
)

#: Rough per-record memory estimate (dict + a handful of small values);
#: used by the self-metering byte gauge, not for eviction decisions.
_RECORD_OVERHEAD_BYTES = 96
_FIELD_BYTES = 48

# Retention budgets, sampling and trigger windows.  All deterministic:
# budgets and sampling are pure functions of the event stream, and
# windows are in *sim* time, so a fixed seed produces the same incidents
# run after run.

#: Ring capacity per event kind (events).
RING_BUDGET = 512
#: ``metric.*`` kinds keep 1 event in this many; every other kind keeps
#: all.  ``metric.sample`` is the firehose here — one record per client
#: per sampling tick.
METRIC_SAMPLE_EVERY = 8
#: Pre-trigger window frozen from the rings, in sim seconds.
PRE_TRIGGER_S = 5.0
#: Full-fidelity capture window after the last trigger, sim seconds.
POST_TRIGGER_S = 5.0
#: Hard cap on captured events per incident (excess is counted as
#: truncated, never silently dropped).
MAX_CAPTURE_EVENTS = 50_000
#: Hard cap on assembled incidents (further triggers are counted).
MAX_INCIDENTS = 16
#: Distinct triggers recorded per incident before folding.
MAX_TRIGGERS_PER_INCIDENT = 64
#: Failover breakdowns stored per incident (total count kept).
MAX_BREAKDOWNS = 500
#: Causal chains summarized per incident.
MAX_CHAINS = 8
#: Timeline-excerpt rows stored per incident.
EXCERPT_LIMIT = 80
#: Clients listed in the QoE-impact attribution (worst first).
QOE_TOP_K = 10


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

    def __init__(self, telemetry: Optional[Telemetry]) -> None:
        self.telemetry = telemetry
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
                    capture.deadline, t + POST_TRIGGER_S
                )
                capture.n_triggers += 1
                if len(capture.triggers) < MAX_TRIGGERS_PER_INCIDENT:
                    capture.triggers.append(
                        {"t": t, "kind": kind, "detail": detail}
                    )
            elif len(self.incidents) >= MAX_INCIDENTS:
                self.triggers_dropped += 1
            else:
                capture = self._capture = _Capture(
                    kind, t, detail, t + POST_TRIGGER_S,
                    self._snapshot_window(t - PRE_TRIGGER_S),
                )

        record = None
        if capture is not None:
            record = self._record(t, kind, fields)
            if len(capture.records) < MAX_CAPTURE_EVENTS:
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
            # rate are resolved here, once.
            ring = self._rings[kind] = deque(maxlen=RING_BUDGET)
            self._rates[kind] = (
                METRIC_SAMPLE_EVERY if kind.startswith("metric.") else 1
            )
        rate = self._rates[kind]
        if rate > 1 and (self.seen[kind] - 1) % rate:
            self.sampled_out[kind] = self.sampled_out.get(kind, 0) + 1
            return
        if len(ring) == ring.maxlen:
            self.evicted[kind] = self.evicted.get(kind, 0) + 1
        if record is None:
            record = self._record(t, kind, fields)
        ring.append((self._seq, record))
        self.retained[kind] = self.retained.get(kind, 0) + 1

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
        records = [rec for _, rec in capture.pre] + [
            rec for _, rec in capture.records
        ]
        window_start = (
            records[0]["t"] if records
            else capture.trigger_t - PRE_TRIGGER_S
        )

        graph = TraceGraph(records)
        breakdowns = failover_breakdowns(graph)
        chains = graph.chains()
        chain_summaries = []
        for chain in sorted(
            chains, key=lambda c: (-len(c.events), c.start, c.cause)
        )[:MAX_CHAINS]:
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
            breakdowns=[asdict(b) for b in breakdowns[:MAX_BREAKDOWNS]],
            n_breakdowns=len(breakdowns),
            chains=chain_summaries,
            n_chains=len(chains),
            qoe=_qoe_impact(records, end_t),
            excerpt=_excerpt(records),
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
        """Total ring capacity (events) across kinds seen.

        The budget gate's counterpart to :meth:`occupancy`: occupancy
        can never exceed this, by ``deque(maxlen)`` construction — the
        gate asserts it anyway as an end-to-end check."""
        return RING_BUDGET * len(self._rings)

    def max_ring_bytes(self) -> int:
        """The worst-case ring footprint (budget × kinds seen)."""
        return self.ring_budget() * (_RECORD_OVERHEAD_BYTES + _FIELD_BYTES * 8)

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


def _excerpt(records: Sequence[Dict]) -> List[Dict]:
    """The notable-timeline slice of the window, head+tail bounded."""
    notable = [r for r in records if is_timeline_kind(str(r.get("kind", "")))]
    if len(notable) <= EXCERPT_LIMIT:
        return list(notable)
    head = EXCERPT_LIMIT // 2
    tail = EXCERPT_LIMIT - head
    return list(notable[:head]) + list(notable[-tail:])


#: The kinds that bear on a client's window QoE.  Each hits its client,
#: a ``client.migrate`` only when it is a handoff.
_WINDOW_KINDS = (
    "client.stall.begin", "client.stall.end", "client.migrate",
    "client.resume", "server.admission.reject",
)


def _qoe_impact(records: Sequence[Dict], end_t: float) -> Dict:
    """Which clients' scorecards the window hit, and by how much.

    The window's :data:`_WINDOW_KINDS` records are scored by a fresh
    :class:`~repro.telemetry.qoe.QoEAccumulator` and charged its
    window penalties; the rebuffer-ratio component needs whole-session
    watch time, so the raw ``stall_s`` is reported instead.  Hit
    clients keep first-hit order.
    """
    accumulator = QoEAccumulator()
    hit: Dict[str, None] = {}

    def feed(t: float, kind: str, fields: Dict) -> None:
        if kind != "client.migrate" or is_handoff(fields):
            hit.setdefault(_client_name(fields.get("client", "?")), None)
        accumulator.feed(t, kind, fields)

    replay(records, feed, _WINDOW_KINDS)
    cards = accumulator.finish(end_t)
    impact = []
    for name in hit:
        card = cards[name]
        impact.append({
            "client": name, "stalls": card.stall_count,
            "stall_s": card.stall_s, "migrations": card.migrations,
            "resumes": card.resumes, "rejects": card.admission_rejects,
            "penalty": sum(card.window_penalties()),
        })
    ranked = sorted(impact, key=lambda i: (-i["penalty"], i["client"]))
    return {
        "clients_hit": len(impact),
        "totals": {
            key: sum(i[key] for i in impact)
            for key in ("stalls", "stall_s", "migrations", "resumes", "rejects")
        },
        "top": ranked[:QOE_TOP_K],
    }


def incidents_from_records(records: Sequence[Dict]) -> List[Incident]:
    """Offline replay: rebuild incidents from an exported event stream.

    Feeds a fresh detached recorder the same ``(t, kind, fields)``
    triples the subscriber path saw, so incidents recomputed from a
    full JSONL export match the live recorder's (modulo events the
    export itself filtered out).
    """
    recorder = FlightRecorder(None)
    replay(records, recorder.feed, FLIGHT_PREFIXES)
    return recorder.finish()
