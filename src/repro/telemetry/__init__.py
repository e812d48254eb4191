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
  :func:`render_incidents` behind ``repro-vod postmortem``;
* :class:`RunObservers` — how a run attaches the exporter and these
  observers, and the one order they settle in at run end.

With no subscribers the whole subsystem costs one attribute check per
instrumented site, and enabling it never changes simulation outcomes
(same seed ⇒ same fault firings and client statistics, telemetry on or
off).  See ``docs/TELEMETRY.md`` for the event taxonomy.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bus": ("FIREHOSE_PREFIXES", "Subscription", "Telemetry", "TelemetryEvent"),
    ".causal": (
        "CausalChain",
        "FailoverBreakdown",
        "TraceGraph",
        "critical_path",
        "failover_breakdowns",
        "load_trace_graph",
        "render_breakdowns",
    ),
    ".export": ("DEFAULT_PREFIXES", "SCHEMA_VERSION", "JsonlExporter", "read_jsonl"),
    ".harness": ("RunObservers",),
    ".flight": (
        "FLIGHT_PREFIXES",
        "FlightRecorder",
        "Incident",
        "incidents_from_records",
        "is_trigger",
    ),
    ".metrics": (
        "DEFAULT_LATENCY_BUCKETS_S",
        "CounterMetric",
        "GaugeMetric",
        "HistogramMetric",
        "MetricRegistry",
    ),
    ".qoe": (
        "QoEAccumulator",
        "QoECollector",
        "QoEScorecard",
        "render_scorecards",
        "scorecards_from_timeline",
    ),
    ".postmortem": ("incidents_from_export", "render_incident", "render_incidents"),
    ".report": ("RunTimeline", "load_timeline", "render_report"),
    ".series": ("Probe", "TimeSeries", "probe"),
    ".slo": (
        "RULE_SETS",
        "SloMonitor",
        "render_slo",
        "slo_from_timeline",
        "whole_run_slo",
    ),
    ".spans": ("Span",),
    ".watch": ("WatchState", "render_watch"),
    # ClientStats lives with the player (it is filled by client logic)
    # but is part of the observability API.
    "repro.client.player": ("ClientStats",),
})
