"""The discrete-event simulator core.

A :class:`Simulator` owns a virtual clock and a priority queue of pending
events.  Events scheduled for the same instant fire in the order they were
scheduled (FIFO tie-breaking via a monotonically increasing sequence
number), which keeps runs fully deterministic.  A :class:`Lane` holds a
stream of such events in flat columns and keeps only its head in the
queue.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.rng import RngRegistry
from repro.telemetry.bus import Telemetry
from repro.telemetry.trace import Tracer, _callback_name


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the queue entry stays in the heap but is skipped
    when popped.  This keeps cancellation O(1).  Handles are never
    compared: the heap orders ``(time, seq, handle)`` entries and ``seq``
    is unique.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_tel", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Set by Simulator.call_at only while someone listens to the
        # telemetry firehose, so a cancel can report what was cancelled
        # without the handle paying for a bus reference in the common
        # case.
        self._tel: Any = None
        # Owning simulator, so cancel() can keep the live-event counter
        # exact without a scan (None for handles built outside one).
        self._sim: Any = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        tel = self._tel
        if tel is not None and tel.active and tel.firehose:
            tel.emit(
                "sim.cancel", at=self.time, name=_callback_name(self.callback)
            )
        if self._sim is not None:
            self._sim._live -= 1
        self.cancelled = True
        # Drop references so cancelled events do not pin large objects
        # while they wait to be popped from the heap.
        self.callback = _noop
        self.args = ()
        self._tel = None

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named random streams (see
        :class:`repro.sim.rng.RngRegistry`).
    trace:
        When true, a :class:`repro.telemetry.trace.Tracer` records every
        fired event; useful in tests and when debugging protocol
        interleavings.
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        # Read through ``now`` everywhere but the per-hop link transit
        # (net/link.py), where the property's frame is paid per packet.
        self._now = 0.0
        self._seq = 0
        # Heap of (time, seq, handle): heapq orders the tuples in C, and
        # the unique seq means the handle itself is never compared.
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._running = False
        self._stopped = False
        # Count of live (non-cancelled, not-yet-fired) queued events,
        # maintained incrementally so pending_count() is O(1).
        self._live = 0
        # Lanes hold queued events outside the heap (counted in _live);
        # kept for the reference scan only.
        self._lanes: List["Lane"] = []
        self.rngs = RngRegistry(seed)
        self.tracer = Tracer(enabled=trace)
        self.telemetry = Telemetry(clock=lambda: self._now)
        self.seed = seed

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def rng(self, name: str):
        """Return the named deterministic random stream."""
        return self.rngs.stream(name)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``.

        Scheduling in the past raises :class:`SimulationError`; scheduling
        at the present instant is allowed and fires after already-queued
        events for that instant.
        """
        if not time >= self._now:  # the past, or NaN: one test when fine
            raise self._unschedulable(time)
        seq = self._seq
        handle = EventHandle(time, seq, callback, args)
        handle._sim = self
        if self.telemetry.active and self.telemetry.firehose:
            handle._tel = self.telemetry
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def call_after(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant."""
        return self.call_at(self._now, callback, *args)

    def reschedule(self, handle: EventHandle, time: float) -> EventHandle:
        """Re-queue an already-fired handle for ``time`` and return it.

        This recycles the :class:`EventHandle` allocation for hot
        periodic callers (timers, burst replay).  The handle must not be
        live in the queue: only pass a handle whose event has already
        fired (it is popped before its callback runs) or that was
        cancelled *and then* popped.  The callback and args are kept;
        callers may mutate ``handle.args`` between firings.
        """
        if not time >= self._now:  # the past, or NaN: one test when fine
            raise self._unschedulable(time)
        seq = self._seq
        handle.time = time
        handle.seq = seq
        handle.cancelled = False
        handle._sim = self
        if self.telemetry.active and self.telemetry.firehose:
            handle._tel = self.telemetry
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        handle = self._pop_next()
        if handle is None:
            return False
        self._now = handle.time
        if self.tracer.enabled:
            self.tracer.record(self._now, handle.callback, handle.args)
        tel = self.telemetry
        if tel.active and tel.firehose:
            tel.emit("sim.fire", name=_callback_name(handle.callback))
        handle.callback(*handle.args)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains.  Returns the event count."""
        count = 0
        self._stopped = False
        while not self._stopped:
            if max_events is not None and count >= max_events:
                break
            if not self.step():
                break
            count += 1
        return count

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events with timestamps ``<= time``; return how many ran.

        On a *complete* slice — the queue drained or only holds events
        past ``time`` — the clock advances to exactly ``time``, so
        back-to-back ``run_until`` calls behave like a real clock that
        keeps ticking.  On an *early* exit (the ``max_events`` budget ran
        out, or ``stop()`` fired) the clock stays at the last dispatched
        event: events ``<= time`` are still pending, and pretending the
        interval elapsed would let the caller schedule into their past.
        Chunked drivers therefore loop ``while sim.now < time`` and need
        no compensation.
        """
        if math.isnan(time):
            raise SimulationError("cannot run until time NaN")
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards to t={time:.6f} from t={self._now:.6f}"
            )
        # One fused peek -> pop -> dispatch loop (what step() does via
        # _pop_next, without three method calls per event).
        queue = self._queue
        heappop = heapq.heappop
        tracer = self.tracer
        tel = self.telemetry
        limit = math.inf if max_events is None else max_events
        count = 0
        exhausted = False
        self._stopped = False
        while not self._stopped:
            if count >= limit:
                exhausted = True
                break
            if not queue:
                break
            when, _, handle = queue[0]
            if handle.cancelled:
                heappop(queue)
                continue
            if when > time:
                break
            heappop(queue)
            self._live -= 1
            # Out of the queue now: a late cancel() must not decrement
            # the live counter a second time.
            handle._sim = None
            self._now = when
            if tracer.enabled:
                tracer.record(when, handle.callback, handle.args)
            if tel.active and tel.firehose:
                tel.emit("sim.fire", name=_callback_name(handle.callback))
            handle.callback(*handle.args)
            count += 1
        if not self._stopped and not exhausted:
            self._now = max(self._now, time)
        return count

    def stop(self) -> None:
        """Stop the currently executing ``run``/``run_until`` loop."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of live (non-cancelled) queued events.  O(1)."""
        return self._live

    def _pending_count_scan(self) -> int:
        """O(n) reference implementation of :meth:`pending_count`.

        Kept for the agreement test in ``tests/sim``: the incremental
        counter must always match a full scan of the heap plus the
        entries waiting in lanes.
        """
        queued = sum(1 for _, _, handle in self._queue if not handle.cancelled)
        return queued + sum(lane._backlog() for lane in self._lanes)

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        handle = self._peek_next()
        return handle.time if handle is not None else None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _unschedulable(self, time: float) -> SimulationError:
        if math.isnan(time):
            return SimulationError("cannot schedule an event at time NaN")
        return SimulationError(
            f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
        )

    def _queue_reserved(self, handle: EventHandle, time: float, seq: int) -> None:
        """:meth:`reschedule` ``handle`` under a seq drawn earlier.

        A lane queues its next head through here, so ``call_at`` and
        ``reschedule`` stay the only places an entry enters the heap."""
        drawn = self._seq
        self._seq = seq
        try:
            self.reschedule(handle, time)
        finally:
            self._seq = drawn

    def _pop_next(self) -> Optional[EventHandle]:
        while self._queue:
            handle = heapq.heappop(self._queue)[2]
            if not handle.cancelled:
                self._live -= 1
                # The handle is out of the queue now; a late cancel()
                # must not decrement the live counter a second time.
                handle._sim = None
                return handle
        return None

    def _peek_next(self) -> Optional[EventHandle]:
        while self._queue:
            handle = self._queue[0][2]
            if handle.cancelled:
                heapq.heappop(self._queue)
                continue
            return handle
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.6f} pending={self.pending_count()} "
            f"seed={self.seed}>"
        )


class Lane:
    """An append-only stream of ``callback(arg)`` events, one heap entry wide.

    Each :meth:`add` is an event exactly as ``call_at(time, callback,
    arg)`` would have queued it — same ``(time, seq)``, same firing
    order, counted by ``pending_count()`` — but only the lane's head sits
    in the simulator's heap.  The others wait in three flat columns (time,
    seq, integer arg), so a queued entry costs 24 bytes and no object.
    The price is order: times must never decrease along the lane, and an
    add that would break it raises :class:`SimulationError`.

    Every lane event fires through the lane's :meth:`_fire`, which queues
    the next head and then calls ``callback(arg)``; that is the name the
    kernel's tracer and ``sim.fire`` report.  Lane events cannot be
    cancelled.
    """

    __slots__ = (
        "sim", "callback", "_times", "_seqs", "_args", "_next", "_handle",
        "_queued", "_tail_time",
    )

    #: Consumed entries at the front of the columns are dropped once
    #: they are this many and at least half of what the columns hold.
    COMPACT_AT = 1024

    def __init__(self, sim: Simulator, callback: Callable[[int], Any]) -> None:
        # Imported here: a run without a lane should not map the
        # extension module.
        from array import array

        self.sim = sim
        self.callback = callback
        # Entries behind the head, oldest first from index _next.
        self._times = array("d")
        self._seqs = array("q")
        self._args = array("q")
        self._next = 0
        self._handle = EventHandle(0.0, -1, self._fire, ())
        self._queued = False  # the head is in the heap
        self._tail_time = -math.inf
        sim._lanes.append(self)

    def add(self, time: float, arg: int) -> None:
        """Queue ``callback(arg)`` at ``time`` under the next seq."""
        sim = self.sim
        if not time >= sim._now:  # the past, or NaN
            raise sim._unschedulable(time)
        if time < self._tail_time:
            raise SimulationError(
                f"lane entry at t={time:.6f} sorts before "
                f"t={self._tail_time:.6f}"
            )
        self._tail_time = time
        if self._queued:
            self._times.append(time)
            self._seqs.append(sim._seq)
            self._args.append(arg)
            sim._seq += 1
            sim._live += 1
        else:
            handle = self._handle
            handle.args = (arg,)
            self._queued = True
            sim.reschedule(handle, time)

    def _fire(self, arg: int) -> None:
        """The head fired: queue the next entry, then run the callback."""
        index = self._next
        times = self._times
        if index < len(times):
            time, seq = times[index], self._seqs[index]
            following = self._args[index]
            index += 1
            if index == len(times) or (
                index >= self.COMPACT_AT and 2 * index >= len(times)
            ):
                del times[:index], self._seqs[:index], self._args[:index]
                index = 0
            self._next = index
            self.sim._live -= 1
            self._handle.args = (following,)
            self.sim._queue_reserved(self._handle, time, seq)
        else:
            self._queued = False
        self.callback(arg)

    def _backlog(self) -> int:
        """Entries waiting behind the head (counted in ``_live``)."""
        return len(self._times) - self._next

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Lane {_callback_name(self.callback)} "
            f"queued={self._queued} backlog={self._backlog()}>"
        )
