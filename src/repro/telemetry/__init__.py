"""Unified observability for the VoD reproduction (the public API).

Everything observable about a run flows through this package:

* :class:`Telemetry` — the per-simulator event bus (``sim.telemetry``)
  with typed, dotted-kind events from every layer (``client.*``,
  ``server.*``, ``gcs.*``, ``net.*``, ``fault.*``, ``sim.*``);
* :class:`MetricRegistry` — counters, gauges and fixed-bucket
  histograms, snapshotted into every export;
* :class:`Span` — interval tracing (client sessions, takeovers,
  rebalances) with cross-component open/end via ``(kind, key)``;
* :class:`Probe` / :class:`TimeSeries` — periodic state sampling
  (buffer levels), bridged onto the bus as ``metric.sample`` events;
* :class:`Tracer` — the exhaustive kernel event trace;
* :class:`JsonlExporter` / :func:`render_report` — JSONL artifacts and
  the ``repro-vod trace`` / ``repro-vod report`` CLI behind them;
* :class:`TraceGraph` / :func:`failover_breakdowns` — causal chains
  (the ``cause`` id threaded fault → view change → take-over → resume)
  and the failover critical-path decomposition built from them;
* :class:`QoECollector` / :class:`QoEScorecard` — per-client
  quality-of-experience scoring, online or from an export;
* :class:`SloMonitor` — live windowed service-level objectives
  (``slo.breach`` / ``slo.burn`` / ``slo.recover`` events);
* :class:`WatchState` / :func:`render_watch` — the ``repro-vod watch``
  terminal dashboard fold;
* :class:`FlightRecorder` / :class:`Incident` — bounded always-on
  capture (per-kind rings, deterministic sampling, trigger-scoped
  full-fidelity windows) rendered as postmortems by
  :func:`render_incidents` behind ``repro-vod postmortem``.

With no subscribers the whole subsystem costs one attribute check per
instrumented site, and enabling it never changes simulation outcomes
(same seed ⇒ same fault firings and client statistics, telemetry on or
off).  See ``docs/TELEMETRY.md`` for the event taxonomy.
"""

from repro.telemetry.bus import (
    FIREHOSE_PREFIXES,
    Subscription,
    Telemetry,
    TelemetryEvent,
)
from repro.telemetry.causal import (
    CausalChain,
    FailoverBreakdown,
    TraceGraph,
    critical_path,
    failover_breakdowns,
    load_trace_graph,
    render_breakdowns,
)
from repro.telemetry.export import (
    DEFAULT_PREFIXES,
    SCHEMA_VERSION,
    JsonlExporter,
    read_jsonl,
)
from repro.telemetry.flight import (
    ALWAYS_RETAIN_PREFIXES,
    FLIGHT_PREFIXES,
    FlightRecorder,
    FlightRecorderConfig,
    Incident,
    incidents_from_records,
    is_trigger,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricRegistry,
    MetricsCollector,
)
from repro.telemetry.qoe import (
    QoEAccumulator,
    QoECollector,
    QoEScorecard,
    render_scorecards,
    scorecards_from_timeline,
)
from repro.telemetry.postmortem import (
    incidents_from_export,
    render_incident,
    render_incidents,
)
from repro.telemetry.report import RunTimeline, load_timeline, render_report
from repro.telemetry.series import Counter, Probe, TimeSeries
from repro.telemetry.slo import (
    EmergencyBandwidthRule,
    FailoverLatencyRule,
    GlitchFreeRule,
    SloMonitor,
    SloRule,
    default_rules,
    render_slo,
    slo_from_timeline,
)
from repro.telemetry.spans import Span
from repro.telemetry.trace import Tracer, TraceRecord
from repro.telemetry.watch import WatchState, render_watch


def probe(sim, period: float = 0.25, owner: str = "") -> Probe:
    """Create a :class:`Probe` sampling on ``period`` seconds.

    Convenience constructor for the common case; ``owner`` tags the
    probe's ``metric.sample`` events (typically a client name).
    """
    return Probe(sim, period, owner=owner)


def __getattr__(name):
    # ClientStats lives with the player (it is filled by client logic)
    # but is part of the observability API; resolve it lazily because
    # importing the client here would cycle back through the sim kernel.
    if name == "ClientStats":
        from repro.client.player import ClientStats

        return ClientStats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Telemetry",
    "TelemetryEvent",
    "Subscription",
    "Span",
    "Tracer",
    "TraceRecord",
    "Counter",
    "TimeSeries",
    "Probe",
    "probe",
    "MetricRegistry",
    "MetricsCollector",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "DEFAULT_LATENCY_BUCKETS_S",
    "JsonlExporter",
    "read_jsonl",
    "SCHEMA_VERSION",
    "DEFAULT_PREFIXES",
    "FIREHOSE_PREFIXES",
    "RunTimeline",
    "load_timeline",
    "render_report",
    "CausalChain",
    "TraceGraph",
    "FailoverBreakdown",
    "load_trace_graph",
    "critical_path",
    "failover_breakdowns",
    "render_breakdowns",
    "QoEAccumulator",
    "QoECollector",
    "QoEScorecard",
    "scorecards_from_timeline",
    "render_scorecards",
    "SloMonitor",
    "SloRule",
    "GlitchFreeRule",
    "FailoverLatencyRule",
    "EmergencyBandwidthRule",
    "default_rules",
    "slo_from_timeline",
    "render_slo",
    "FlightRecorder",
    "FlightRecorderConfig",
    "Incident",
    "FLIGHT_PREFIXES",
    "ALWAYS_RETAIN_PREFIXES",
    "is_trigger",
    "incidents_from_records",
    "incidents_from_export",
    "render_incident",
    "render_incidents",
    "WatchState",
    "render_watch",
    "ClientStats",
]
