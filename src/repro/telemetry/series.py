"""Counters, time series and sampling probes.

The probe is the telemetry subsystem's bridge between continuous state
(buffer occupancy, cumulative counters) and the event bus — every
sample it takes is also emitted as a ``metric.sample`` event when the
bus is active, which is how JSONL exports carry the Figure 4/5 curves
without adding any timer of their own (sampling always rides the same
probe timer, so enabling telemetry cannot perturb the simulation).
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sim.process import Timer


@dataclass
class Counter:
    """A monotonically increasing event counter."""

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class TimeSeries:
    """(time, value) samples with query helpers used by the experiments.

    Times and values are two ``array("d")`` columns: a sample costs 16
    bytes, not two boxed floats."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times = array("d")
        self._values = array("d")

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r} got out-of-order sample at {time}"
            )
        self._times.append(time)
        self._values.append(value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> Sequence[float]:
        return tuple(self._times)

    @property
    def values(self) -> Sequence[float]:
        return tuple(self._values)

    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def value_at(self, time: float) -> Optional[float]:
        """Last sample at or before ``time`` (step interpolation)."""
        position = bisect.bisect_right(self._times, time) - 1
        if position < 0:
            return None
        return self._values[position]

    def window(self, start: float, end: float) -> List[Tuple[float, float]]:
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def min(self, start: float = float("-inf"), end: float = float("inf")):
        values = [v for t, v in self.window(start, end)]
        return min(values) if values else None

    def max(self, start: float = float("-inf"), end: float = float("inf")):
        values = [v for t, v in self.window(start, end)]
        return max(values) if values else None

    def mean(self, start: float = float("-inf"), end: float = float("inf")):
        values = [v for t, v in self.window(start, end)]
        return sum(values) / len(values) if values else None

    def final(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    def increase_over(self, start: float, end: float) -> float:
        """Value growth across a window (for cumulative counters)."""
        before = self.value_at(start)
        after = self.value_at(end)
        return (after or 0.0) - (before or 0.0)


@dataclass
class Probe:
    """Samples callables into time series on a fixed period.

    When the owning simulator's telemetry bus is active, every sample is
    additionally emitted as a ``metric.sample`` event (fields:
    ``series``, ``value``, ``owner``) so exporters see the same curves
    the in-memory :class:`TimeSeries` accumulate.  ``owner`` tags whose
    probe this is (e.g. the client name) — series names alone repeat
    across clients.
    """

    sim: Any
    period: float
    owner: str = ""
    _sources: List[Tuple[TimeSeries, Callable[[], float]]] = field(
        default_factory=list
    )

    def __post_init__(self) -> None:
        self._timer = Timer(self.sim, self.period, self._sample, start_delay=0.0)

    def watch(self, name: str, source: Callable[[], float]) -> TimeSeries:
        series = TimeSeries(name)
        self._sources.append((series, source))
        return series

    def stop(self) -> None:
        self._timer.cancel()

    def _sample(self) -> None:
        now = self.sim.now
        telemetry = getattr(self.sim, "telemetry", None)
        emitting = telemetry is not None and telemetry.active
        for series, source in self._sources:
            value = float(source())
            series.record(now, value)
            if emitting:
                telemetry.emit(
                    "metric.sample",
                    series=series.name,
                    value=value,
                    owner=self.owner,
                )


def probe(sim, period: float = 0.25, owner: str = "") -> Probe:
    """Create a :class:`Probe` sampling on ``period`` seconds.

    Convenience constructor for the common case; ``owner`` tags the
    probe's ``metric.sample`` events (typically a client name).
    """
    return Probe(sim, period, owner=owner)
