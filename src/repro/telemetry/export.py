"""JSONL export of a telemetry stream.

One JSON object per line:

* a ``{"kind": "meta", ...}`` header (schema version, scenario, seed);
* one ``{"t": ..., "kind": ..., <fields>}`` record per bus event;
* a ``{"kind": "summary", ...}`` trailer (event counts, the metric
  registry snapshot, the spans still open at close, and whatever
  run-level counters the caller adds).

The default subscription excludes the two firehose kinds — kernel
``sim.*`` events and per-packet ``net.deliver`` — so a 240-second
scenario exports megabytes, not gigabytes; pass ``full=True`` to keep
everything.  Non-JSON field values (e.g. ``ProcessId``) fall back to
``str()``.

Million-viewer ergonomics: a path ending in ``.gz`` (conventionally
``.jsonl.gz``) writes through :mod:`gzip` transparently — and
:func:`read_jsonl` reads it back the same way; ``max_events`` caps the
event records, writing one explicit ``{"kind": "truncated"}`` marker at
the cap (the summary still lands, with an ``events_dropped`` count), so
a huge run exports *something* instead of being all-or-nothing; and
``since``/``until`` restrict the export to a sim-time window.
"""

from __future__ import annotations

import gzip
import json
from typing import Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.telemetry.bus import (
    FIREHOSE_PREFIXES,  # noqa: F401 - re-exported; the bus owns the definition
    Telemetry,
    TelemetryEvent,
)

SCHEMA_VERSION = 1

#: The default export keeps every application-level kind and neither
#: firehose kind (:data:`~repro.telemetry.bus.FIREHOSE_PREFIXES`).
DEFAULT_PREFIXES = (
    "client.", "server.", "gcs.", "net.drop", "fault.", "span.", "metric.",
    "slo.", "invariant.",
)


def _open_text(path: str, mode: str):
    """Open ``path`` for text I/O, through gzip when it ends in .gz."""
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


class JsonlExporter:
    """Subscribes to a :class:`Telemetry` bus and streams events to disk.

    Usage::

        exporter = JsonlExporter(sim.telemetry, "run.jsonl")
        exporter.meta(scenario="lan", seed=11)
        ...  # run the simulation
        exporter.close()

    Or as a context manager, which guarantees the summary trailer is
    written even when the run raises mid-simulation — a crashed
    experiment still leaves a readable artifact (the summary then
    carries ``crashed`` and ``error`` fields)::

        with JsonlExporter(sim.telemetry, "run.jsonl") as exporter:
            exporter.meta(scenario="lan", seed=11)
            ...  # run the simulation (may raise)
    """

    def __init__(
        self,
        telemetry: Telemetry,
        path: str,
        prefixes: Optional[Sequence[str]] = None,
        full: bool = False,
        max_events: Optional[int] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> None:
        self.telemetry = telemetry
        self.path = path
        self.events_written = 0
        #: Events past the ``max_events`` cap (counted, marked, skipped).
        self.events_dropped = 0
        #: Events outside the ``since``/``until`` window (just skipped).
        self.events_filtered = 0
        self.max_events = max_events
        self.since = since
        self.until = until
        self._truncation_marked = False
        self._handle = _open_text(path, "w")
        if prefixes is None:
            prefixes = None if full else DEFAULT_PREFIXES
        self._subscription = telemetry.subscribe(self._on_event, prefixes=prefixes)
        self._closed = False

    def meta(self, **fields) -> None:
        """Write the header record (call once, before the run)."""
        header = {"kind": "meta", "schema": SCHEMA_VERSION}
        if self.since is not None:
            header["since"] = self.since
        if self.until is not None:
            header["until"] = self.until
        self._write(dict(header, **fields))

    def _on_event(self, event: TelemetryEvent) -> None:
        if (self.since is not None and event.time < self.since) or (
            self.until is not None and event.time > self.until
        ):
            self.events_filtered += 1
            return
        if self.max_events is not None and self.events_written >= self.max_events:
            self.events_dropped += 1
            if not self._truncation_marked:
                self._truncation_marked = True
                self._write({
                    "kind": "truncated",
                    "t": event.time,
                    "max_events": self.max_events,
                })
            return
        self.events_written += 1
        self._write(event.as_dict())

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, default=str))
        self._handle.write("\n")

    def close(self, **summary_fields) -> None:
        """Detach, write the summary trailer and close the file.

        Spans still open are *abandoned* first (each emits a
        ``span.abandoned`` event with its duration so far, captured by
        this export) and listed in the summary's ``open_spans``.
        """
        if self._closed:
            return
        self._closed = True
        # Abandon before detaching so the span.abandoned events land in
        # this file; the summary still lists them as never-finished.
        open_spans = [
            {"span": s.kind, "key": s.key, "start": s.start}
            for s in self.telemetry.abandon_open_spans(reason="export-close")
        ]
        self._subscription.close()
        summary = {
            "kind": "summary",
            "events_written": self.events_written,
            "events_emitted": self.telemetry.emitted,
            "metrics": self.telemetry.metrics.snapshot(),
            "open_spans": open_spans,
        }
        if self.events_dropped:
            summary["events_dropped"] = self.events_dropped
        if self.events_filtered:
            summary["events_filtered"] = self.events_filtered
        summary.update(summary_fields)
        self._write(summary)
        self._handle.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is None:
            self.close()
        else:
            self.close(crashed=True, error=f"{exc_type.__name__}: {exc}")
        return False  # never swallow the exception


def _lines_before_cut(handle):
    """A gzip stream cut off mid-write raises at the cut; a plain file ends."""
    try:
        yield from handle
    except EOFError:
        return


def read_jsonl(
    path: str,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[Dict]:
    """Parse a telemetry JSONL file back into a list of dicts.

    Tolerant of a truncated final line (a run killed mid-write): that
    one line is dropped and the records before it kept.  A ``.gz`` path
    is decompressed transparently, and one cut off mid-write keeps the
    records that decoded before the cut, as a plain file does.  An empty
    file parses to an empty list.  A missing or unreadable file, or a
    line that is not a JSON object with more lines after it, raises
    :class:`~repro.errors.ServiceError` naming the file (and the line).
    ``since``/``until`` keep only the event records inside the sim-time
    window (records without a ``t`` — meta, summary, truncation
    markers — always pass).
    """
    records = []
    bad_line = 0  # an unparseable line, forgiven only if it is the last
    try:
        with _open_text(path, "r") as handle:
            for number, line in enumerate(_lines_before_cut(handle), 1):
                line = line.strip()
                if not line:
                    continue
                if bad_line:
                    raise ServiceError(
                        f"{path}:{bad_line}: not a JSON record, and not the "
                        "cut-off last line of a run killed mid-write"
                    )
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if not isinstance(record, dict):
                    bad_line = number
                    continue
                if since is not None or until is not None:
                    t = record.get("t")
                    if t is not None and record.get("kind") not in (
                        "meta", "summary", "truncated"
                    ):
                        t = float(t)
                        if (since is not None and t < since) or (
                            until is not None and t > until
                        ):
                            continue
                records.append(record)
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or error
        raise ServiceError(f"cannot read telemetry export {path}: {reason}") from None
    return records
