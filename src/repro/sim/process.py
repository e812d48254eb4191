"""Periodic timers.

A :class:`Timer` is a cancellable periodic callback — the building block
for heartbeats, state-sync ticks and frame pacing.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.core import EventHandle, Simulator


class Timer:
    """A cancellable periodic timer.

    Parameters
    ----------
    sim:
        The simulator driving the timer.
    interval:
        Seconds between firings.
    callback:
        Invoked with ``*args`` on every firing.
    start_delay:
        Delay before the first firing; defaults to one full ``interval``.
    jitter:
        When nonzero, each interval is perturbed uniformly by
        ``+- jitter`` seconds using the ``"timer.jitter"`` random stream —
        useful to desynchronize heartbeats across nodes.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
        jitter: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive, got {interval!r}")
        if jitter < 0 or jitter >= interval:
            raise SimulationError(
                f"timer jitter must be in [0, interval), got {jitter!r}"
            )
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.jitter = jitter
        self.fired_count = 0
        self._stopped = False
        first = interval if start_delay is None else start_delay
        self._handle: Optional[EventHandle] = sim.call_after(
            self._jittered(first), self._fire
        )

    def cancel(self) -> None:
        """Stop the timer.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def active(self) -> bool:
        return not self._stopped

    def _jittered(self, base: float) -> float:
        if self.jitter == 0.0:
            return base
        offset = self.sim.rng("timer.jitter").uniform(-self.jitter, self.jitter)
        return max(0.0, base + offset)

    def _fire(self) -> None:
        if self._stopped:
            return
        # Re-arm before the callback so a callback that cancels the timer
        # (or raises) leaves consistent state.  The handle that just
        # fired is recycled (it is out of the queue by now), so a
        # long-lived timer allocates one EventHandle total.
        interval = self.interval
        if self.jitter != 0.0:
            interval = self._jittered(interval)
        self._handle = self.sim.reschedule(self._handle, self.sim.now + interval)
        self.fired_count += 1
        self.callback(*self.args)
