"""One run's observers, attached in one order and settled in one order.

Every producer of a telemetry export — a scenario, a chaos trial, a
scale point, a placement strategy run — builds its observers here and
settles them here.  The attach order is the JSONL exporter, the QoE
and SLO subscriber, then the flight recorder; subscribers hear each
event in that order, so an ``slo.*`` event the monitor emits reaches
the recorder after the export has it.  With a rule set that subscriber
is the :class:`~repro.telemetry.slo.SloMonitor`, whose windows read the
QoE accumulator it feeds; without one, the accumulator alone.

The settle order at run end:

1. the SLO monitor closes its windows, so their ``slo.*`` events land
   in the export; then the QoE accumulator settles (it moves each
   client's rate state, which the windows read, to the run end);
2. spans still open are abandoned next, before the flight recorder
   finishes: an abandoned takeover span is an incident trigger, and the
   exporter, still subscribed, records each ``span.abandoned``;
3. the export's summary trailer lists those spans, and the file closes.

An observer's module is imported only when a run attaches it, so an
unobserved build loads none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.flight import Incident
    from repro.telemetry.qoe import QoEAccumulator, QoEScorecard


class RunObservers:
    """The observers of one simulated run, and their settlement.

    ``path`` streams a JSONL export whose header carries the ``meta``
    fields; ``export_options`` (``full``, ``max_events``, ``since``,
    ``until``) go to :class:`~repro.telemetry.export.JsonlExporter`.
    ``observe`` attaches the QoE accumulator (``accumulator``) and an
    SLO monitor judging the ``slo`` rule set (a
    :data:`~repro.telemetry.slo.RULE_SETS` name; ``None`` attaches no
    monitor) — one subscriber either way.  ``flight`` attaches a flight
    recorder.

    After :meth:`settle`, ``qoe`` / ``slo`` / ``failovers`` /
    ``incidents`` / ``flight`` hold what the observers measured.  Used
    as a context manager, a run that raises is settled too, and its
    export ends with a summary marked ``crashed``.
    """

    def __init__(
        self,
        sim: Any,
        path: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
        *,
        observe: bool = False,
        slo: Optional[str] = "paper",
        flight: bool = False,
        **export_options: Any,
    ) -> None:
        telemetry = sim.telemetry
        self.sim = sim
        self.path = path
        self.exporter = None
        self.accumulator: Optional["QoEAccumulator"] = None
        self._qoe_subscription = None
        self.slo_monitor = None
        self.recorder = None
        if path is not None:
            from repro.telemetry.export import JsonlExporter

            self.exporter = JsonlExporter(telemetry, path, **export_options)
            header = dict(meta or {})
            if slo not in (None, "paper"):  # what offline replays judge
                header["slo"] = slo
            self.exporter.meta(**header)
        if observe and slo is not None:
            from repro.telemetry.slo import SloMonitor

            self.slo_monitor = SloMonitor(telemetry, slo)
            self.accumulator = self.slo_monitor.qoe
        elif observe:
            from repro.telemetry.qoe import QoEAccumulator

            self.accumulator = QoEAccumulator()
            self._qoe_subscription = self.accumulator.attach(telemetry)
        if flight:
            from repro.telemetry.flight import FlightRecorder

            self.recorder = FlightRecorder(telemetry)
        self.qoe: Dict[str, "QoEScorecard"] = {}
        self.slo: Dict[str, Dict] = {}
        self.failovers: List[float] = []
        self.incidents: List["Incident"] = []
        self.flight: Optional[Dict] = None
        self._settled = False

    def settle(
        self, error: Optional[BaseException] = None, **trailer: Any
    ) -> None:
        """Finish every observer in the settle order, then close the
        export with the ``trailer`` fields, plus ``slo_breaches`` when a
        monitor judged the run, the abandoned ``open_spans``, and
        ``crashed`` / ``error`` after an ``error``.  Idempotent."""
        if self._settled:
            return
        self._settled = True
        now = self.sim.now
        monitor = self.slo_monitor
        if monitor is not None:
            self.slo = monitor.finish(now)
            self.failovers = list(monitor.failovers)
            trailer["slo_breaches"] = monitor.total_breaches
        if self._qoe_subscription is not None:
            self._qoe_subscription.close()
        if self.accumulator is not None:
            self.qoe = self.accumulator.finish(now)
        # A run nobody observed opened no span, and must not touch its
        # bus beyond the ``active`` guard.
        abandoned = []
        if any(
            observer is not None
            for observer in (self.exporter, self.accumulator, self.recorder)
        ):
            abandoned = self.sim.telemetry.abandon_open_spans(
                reason="export-close"
            )
        if self.recorder is not None:
            self.incidents = self.recorder.finish(now)
            self.flight = self.recorder.metering()
        if self.exporter is not None:
            trailer["open_spans"] = [
                {"span": span.kind, "key": span.key, "start": span.start}
                for span in abandoned
            ]
            if error is not None:
                trailer.update(
                    crashed=True, error=f"{type(error).__name__}: {error}"
                )
            self.exporter.close(**trailer)

    def __enter__(self) -> "RunObservers":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.settle(error=exc)
        return False  # never swallow the exception
