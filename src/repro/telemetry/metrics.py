"""The metric registry: counters, gauges and fixed-bucket histograms.

Metrics are the *aggregated* half of the observability API (events are
the per-occurrence half): cheap named accumulators that instrumented
code updates inside its ``if telemetry.active:`` guard and that the
JSONL exporter snapshots into the run summary.

Naming convention (see docs/TELEMETRY.md): dotted lowercase paths,
``<layer>.<subject>[.<detail>]`` — e.g. ``net.drop.loss``,
``server.rate_changes``, ``takeover.latency_s``.  Names ending in
``_s`` hold seconds; names ending in ``_bytes`` hold bytes.

This module must stay import-free of the rest of :mod:`repro` (the sim
kernel imports the telemetry bus, so anything here importing the kernel
would be a cycle).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

#: Default histogram bucket layout for latencies, in seconds.  Fixed at
#: registration time so two runs of the same scenario always export
#: comparable distributions.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class CounterMetric:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class GaugeMetric:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class HistogramMetric:
    """A fixed-bucket histogram (cumulative bucket counts).

    ``buckets`` are upper bounds; an implicit ``+inf`` bucket catches
    everything above the last bound.  The layout is frozen at
    registration so exports from different runs line up column for
    column.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[position] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricRegistry:
    """Process-wide named metrics, created lazily on first use.

    Re-registering a name returns the existing instrument; registering
    the same name as a different metric type raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def counter(self, name: str) -> CounterMetric:
        return self._get(name, CounterMetric, lambda: CounterMetric(name))

    def gauge(self, name: str) -> GaugeMetric:
        return self._get(name, GaugeMetric, lambda: GaugeMetric(name))

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> HistogramMetric:
        return self._get(
            name,
            HistogramMetric,
            lambda: HistogramMetric(name, buckets or DEFAULT_LATENCY_BUCKETS_S),
        )

    def _get(self, name, kind, build):
        metric = self._metrics.get(name)
        if metric is None:
            metric = build()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def names(self):
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable dump of every registered metric.

        Strictly JSON: non-finite gauge/histogram values (NaN, ±inf —
        e.g. a gauge tracking a ratio whose denominator was zero) export
        as ``null`` rather than producing the invalid-JSON ``NaN`` token
        that strict parsers reject.
        """
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, CounterMetric):
                out[name] = metric.value
            elif isinstance(metric, GaugeMetric):
                out[name] = _finite_or_none(metric.value)
            else:
                hist = metric
                out[name] = {
                    "count": hist.count,
                    "total": _finite_or_none(hist.total),
                    "mean": _finite_or_none(hist.mean),
                    "buckets": list(hist.buckets),
                    "counts": list(hist.counts),
                }
        return out


def _finite_or_none(value: float) -> Optional[float]:
    return value if -_INF < value < _INF else None


_INF = float("inf")
