"""Kernel event tracing (every fired event, in order).

Tracing is off by default (it costs memory); tests and debugging
sessions enable it (``Simulator(trace=True)``) to inspect exact event
interleavings.  Unlike bus events — which are sampled views of protocol
activity — the tracer is exhaustive, so it caps itself at
:data:`MAX_RECORDS` and counts what it had to drop (``dropped``) so a
truncated trace is detectable instead of silently incomplete.

Must not import the rest of :mod:`repro` (the sim kernel imports it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Tuple


#: Records a tracer keeps before it starts counting drops.
MAX_RECORDS = 1_000_000


@dataclass(frozen=True)
class TraceRecord:
    """One fired event: when it ran and what ran."""

    time: float
    name: str
    args: Tuple[Any, ...]


@dataclass
class Tracer:
    """Collects :class:`TraceRecord` entries for fired events.

    ``dropped`` counts events that fired after ``records`` filled up;
    any non-zero value means the trace is truncated and analyses over
    it see only a prefix of the run.
    """

    enabled: bool = False
    records: List[TraceRecord] = field(default_factory=list)
    dropped: int = 0

    def record(
        self, time: float, callback: Callable[..., Any], args: Tuple[Any, ...]
    ) -> None:
        if not self.enabled:
            return
        if len(self.records) >= MAX_RECORDS:
            self.dropped += 1
            return
        self.records.append(TraceRecord(time, _callback_name(callback), args))

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def names(self) -> List[str]:
        """The sequence of fired callback names, in firing order."""
        return [record.name for record in self.records]


def _callback_name(callback: Callable[..., Any]) -> str:
    qualname = getattr(callback, "__qualname__", None)
    if qualname is not None:
        return qualname
    return repr(callback)
