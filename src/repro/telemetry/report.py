"""Timeline reconstruction from a telemetry JSONL export.

``repro-vod report run.jsonl`` renders a run's story from its exported
events alone: the notable-event timeline (faults, view installs,
sessions, takeover/rebalance spans, rate changes, water-mark crossings,
stalls), per-span latencies, and buffer-level summaries rebuilt from
``metric.sample`` records — exactly the reconstruction the paper's
evaluation section performs by hand.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.text import Table

#: Kinds that tell the story; everything else is counted, not listed.
TIMELINE_KINDS = (
    "fault.",
    "gcs.view",
    "gcs.flush",
    "gcs.fd.",
    "server.session",
    "server.crash",
    "server.shutdown",
    "server.rate",
    "server.emergency",
    "client.migrate",
    "client.watermark",
    "client.stall",
    "client.skip",
    "client.flow",
    "client.resume",
    "client.playback",
    "span.",
    "slo.",
)


def is_timeline_kind(kind: str) -> bool:
    return kind.startswith(TIMELINE_KINDS)


def replay(
    records: Sequence[Dict],
    feed: Callable[[float, str, Dict], None],
    prefixes: Tuple[str, ...] = ("",),
) -> float:
    """Feed every exported record whose kind starts with one of
    ``prefixes`` to ``feed(t, kind, fields)``, ``fields`` being the
    record without ``t`` and ``kind`` — the triples a bus subscriber
    heard live.  Returns the last ``t`` fed (0.0 for none)."""
    last_t = 0.0
    for record in records:
        kind = str(record.get("kind", ""))
        if not kind.startswith(prefixes):
            continue
        t = float(record.get("t", 0.0))
        last_t = max(last_t, t)
        feed(t, kind, {k: v for k, v in record.items() if k not in ("t", "kind")})
    return last_t


def timeline_table(title: str, events: Sequence[Dict]) -> str:
    """``events`` as a rendered ``t (s) | kind | detail`` table, the
    detail being the other fields as ``key=value`` pairs."""
    table = Table(title, ["t (s)", "kind", "detail"])
    for event in events:
        detail = " ".join(
            f"{key}={value}" for key, value in event.items() if key not in ("t", "kind")
        )
        table.add_row(f"{event.get('t', 0.0):9.3f}", event.get("kind", "?"), detail)
    return table.render()


class RunTimeline:
    """Parsed view of one exported run; ``since`` / ``until`` are the
    sim-time filter it was read with (None: unbounded)."""

    def __init__(
        self,
        records: List[Dict],
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> None:
        self.since = since
        self.until = until
        self.meta: Dict = {}
        self.summary: Dict = {}
        self.truncated: Optional[Dict] = None
        self.events: List[Dict] = []
        for record in records:
            kind = record.get("kind")
            if kind == "meta":
                self.meta = record
            elif kind == "summary":
                self.summary = record
            elif kind == "truncated":
                # The exporter's max_events marker: everything after its
                # ``t`` was counted, not written.
                self.truncated = record
            else:
                self.events.append(record)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            kind = event.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def timeline_events(self) -> List[Dict]:
        return [e for e in self.events if is_timeline_kind(e.get("kind", ""))]

    def spans(self) -> List[Dict]:
        """Completed + still-open spans, matched begin/end by (span, key).

        Begin/end pairs nest per key chronologically; an unmatched begin
        appears with ``duration_s=None``.  A ``span.abandoned`` close
        (the run ended first) counts as an end with ``abandoned=True``.
        """
        finished: List[Dict] = []
        open_spans: Dict[tuple, Dict] = {}
        for event in self.events:
            kind = event.get("kind")
            ident = (event.get("span"), event.get("key"))
            if kind == "span.begin":
                open_spans[ident] = {
                    "span": event.get("span"),
                    "key": event.get("key"),
                    "start": event.get("t"),
                    "end": None,
                    "duration_s": None,
                    "abandoned": False,
                }
            elif kind in ("span.end", "span.abandoned"):
                begun = open_spans.pop(ident, None)
                record = begun or {
                    "span": event.get("span"),
                    "key": event.get("key"),
                    "start": event.get("start"),
                    "abandoned": False,
                }
                record["end"] = event.get("t")
                record["duration_s"] = event.get("duration_s")
                record["abandoned"] = kind == "span.abandoned"
                finished.append(record)
        return finished + list(open_spans.values())

    def series_summaries(self) -> List[Dict]:
        """Min/mean/max/final per sampled (owner, series) pair."""
        samples: Dict[tuple, List[float]] = {}
        for event in self.events:
            if event.get("kind") != "metric.sample":
                continue
            ident = (event.get("owner", ""), event.get("series", "?"))
            samples.setdefault(ident, []).append(float(event.get("value", 0.0)))
        out = []
        for (owner, series), values in sorted(samples.items()):
            out.append({
                "owner": owner,
                "series": series,
                "n": len(values),
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
                "final": values[-1],
            })
        return out


def load_timeline(
    path: str,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> RunTimeline:
    """Parse an export, optionally restricted to a sim-time window.

    ``since``/``until`` filter at read time (``repro-vod report
    --since/--until``), so inspecting a postmortem window of a
    million-viewer artifact never materializes the whole run.
    """
    from repro.telemetry.export import read_jsonl

    return RunTimeline(
        read_jsonl(path, since=since, until=until), since=since, until=until
    )


def render_report(timeline: RunTimeline, max_rows: int = 80) -> str:
    """The ``repro-vod report`` text: header, counts, timeline, spans,
    QoE scorecards, SLO verdicts, failover breakdowns, buffer levels,
    summary.  Degrades gracefully: an empty or meta-only export renders
    a one-line note instead of empty tables, and a time-filtered read
    one line instead of SLO verdicts it cannot judge."""
    blocks: List[str] = []

    meta = dict(timeline.meta)
    meta.pop("kind", None)
    header = "telemetry run"
    if meta:
        header += ": " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    blocks.append(header)

    if not timeline.events:
        if timeline.meta or timeline.summary:
            blocks.append("no events recorded (meta-only export)")
        else:
            blocks.append("no events recorded (empty export)")
        _append_summary(timeline, blocks)
        return "\n\n".join(blocks)

    counts = timeline.counts_by_kind()
    count_table = Table("Event counts", ["kind", "events"])
    for kind in sorted(counts):
        count_table.add_row(kind, counts[kind])
    blocks.append(count_table.render())

    rows = timeline.timeline_events()
    shown = rows[:max_rows]
    blocks.append(timeline_table(
        f"Timeline ({len(shown)} of {len(rows)} notable events)", shown
    ))
    if len(rows) > len(shown):
        blocks.append(f"... {len(rows) - len(shown)} more (raise --max-rows)")

    spans = timeline.spans()
    if spans:
        span_table = Table(
            "Spans", ["span", "key", "start (s)", "end (s)", "duration (s)"]
        )
        for span in spans:
            duration = span.get("duration_s")
            if duration is None:
                shown = "open"
            else:
                shown = f"{duration:.3f}"
                if span.get("abandoned"):
                    shown += " (abandoned)"
            span_table.add_row(
                span.get("span"),
                span.get("key"),
                _maybe_time(span.get("start")),
                _maybe_time(span.get("end")),
                shown,
            )
        blocks.append(span_table.render())

    # Derived observability views, all recomputed from the export alone.
    from repro.telemetry.causal import TraceGraph, failover_breakdowns
    from repro.telemetry.causal import render_breakdowns
    from repro.telemetry.qoe import render_scorecards, scorecards_from_timeline
    from repro.telemetry.slo import render_slo, slo_from_timeline

    cards = scorecards_from_timeline(timeline)
    if cards:
        blocks.append(render_scorecards(cards))

    if timeline.since is not None or timeline.until is not None:
        # The windows are the whole run's: a replay of part of it knows
        # neither the rates nor the stalls from before the cut, nor
        # anything after it.
        blocks.append(
            "slo: rules not judged on a time-filtered read (--since/--until)"
        )
    else:
        slo_summary = slo_from_timeline(timeline)
        if any(item.get("windows") for item in slo_summary.values()):
            blocks.append(render_slo(slo_summary))

    breakdowns = failover_breakdowns(TraceGraph(timeline.events))
    if breakdowns:
        blocks.append(render_breakdowns(breakdowns))

    series = timeline.series_summaries()
    if series:
        series_table = Table(
            "Sampled series (buffer levels, cumulative counters)",
            ["owner", "series", "samples", "min", "mean", "max", "final"],
        )
        for row in series:
            series_table.add_row(
                row["owner"], row["series"], row["n"],
                f"{row['min']:.0f}", f"{row['mean']:.1f}",
                f"{row['max']:.0f}", f"{row['final']:.0f}",
            )
        blocks.append(series_table.render())

    _append_summary(timeline, blocks)
    return "\n\n".join(blocks)


def _append_summary(timeline: RunTimeline, blocks: List[str]) -> None:
    summary = dict(timeline.summary)
    if not summary:
        return
    summary.pop("kind", None)
    summary.pop("metrics", None)
    blocks.append(
        "summary: " + " ".join(
            f"{k}={v}" for k, v in sorted(summary.items())
            if not isinstance(v, (dict, list))
        )
    )
    if timeline.truncated is not None:
        dropped = timeline.summary.get("events_dropped", "?")
        blocks.append(
            f"WARNING: export truncated at "
            f"t={timeline.truncated.get('t', 0.0):.3f} "
            f"(max_events={timeline.truncated.get('max_events')}, "
            f"{dropped} events dropped)"
        )


def _maybe_time(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"
