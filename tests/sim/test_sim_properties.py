"""Property-based tests for the simulation kernel."""

import bisect
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.core import Lane, Simulator


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=100,
    )
)
@settings(max_examples=100, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.call_after(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1, max_size=60,
    ),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=60),
)
@settings(max_examples=100, deadline=None)
def test_cancelled_events_never_fire(delays, cancel_mask):
    sim = Simulator()
    fired = []
    handles = []
    for i, delay in enumerate(delays):
        handles.append(sim.call_after(delay, fired.append, i))
    cancelled = set()
    for i, (handle, cancel) in enumerate(zip(handles, cancel_mask)):
        if cancel:
            handle.cancel()
            cancelled.add(i)
    sim.run()
    assert set(fired) == set(range(len(delays))) - cancelled


@given(
    same_time_count=st.integers(min_value=2, max_value=50),
    at=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_simultaneous_events_fire_in_scheduling_order(same_time_count, at):
    sim = Simulator()
    fired = []
    for i in range(same_time_count):
        sim.call_at(at, fired.append, i)
    sim.run()
    assert fired == list(range(same_time_count))


@given(
    cut=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=50,
    ),
)
@settings(max_examples=100, deadline=None)
def test_run_until_partitions_events_exactly(cut, delays):
    sim = Simulator()
    early, late = [], []
    for delay in delays:
        sim.call_after(
            delay,
            lambda d=delay: (early if d <= cut else late).append(d),
        )
    sim.run_until(cut)
    assert len(early) == sum(1 for d in delays if d <= cut)
    assert late == []
    sim.run()
    assert len(late) == sum(1 for d in delays if d > cut)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_named_streams_disjoint_from_each_other(seed):
    sim = Simulator(seed=seed)
    a = [sim.rng("alpha").random() for _ in range(5)]
    b = [sim.rng("beta").random() for _ in range(5)]
    assert a != b  # astronomically unlikely to collide


# ----------------------------------------------------------------------
# pending_count: O(1) incremental counter vs O(n) reference scan
# ----------------------------------------------------------------------

@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["schedule", "cancel", "run_some", "reschedule"]),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
        min_size=1, max_size=200,
    )
)
@settings(max_examples=100, deadline=None)
def test_pending_count_agrees_with_scan_under_churn(ops):
    """The incrementally maintained count matches the reference scan
    after any interleaving of scheduling, cancellation (including double
    cancels), partial runs and handle recycling."""
    sim = Simulator()
    handles = []
    fired = []

    def fire(i):
        fired.append(i)

    for i, (op, value) in enumerate(ops):
        if op == "schedule":
            handles.append(sim.call_after(value, fire, i))
        elif op == "cancel" and handles:
            handle = handles[i % len(handles)]
            handle.cancel()
            handle.cancel()  # idempotent
        elif op == "run_some":
            sim.run(max_events=3)
        elif op == "reschedule" and handles:
            handle = handles[i % len(handles)]
            # Only recycle handles that are out of the queue.  Every
            # entry still queued sorts at or after the last event fired,
            # so a cancelled handle dated before ``now`` has been popped
            # — whatever the heap happens to store.
            if handle.cancelled and handle.time < sim.now:
                sim.reschedule(handle, sim.now + value)
        assert sim.pending_count() == sim._pending_count_scan()
    sim.run()
    assert sim.pending_count() == sim._pending_count_scan() == 0


# ----------------------------------------------------------------------
# The kernel against a reference model
# ----------------------------------------------------------------------

class _ReferenceEntry:
    def __init__(self, owner, callback, args):
        self.owner, self.callback, self.args = owner, callback, args
        self.key = None  # (time, seq) while queued

    def cancel(self):
        if self.key is not None:
            self.owner.entries.remove(self.key + (self,))
        self.key = None


class _ReferenceScheduler:
    """What the kernel must do, as plainly as it can be written: a list
    kept sorted by ``(time, seq)``, eager cancellation, no heap."""

    def __init__(self):
        self.now, self.seq, self.entries, self.stopped = 0.0, 0, [], False

    def call_at(self, time, callback, *args):
        return self.reschedule(_ReferenceEntry(self, callback, args), time)

    def reschedule(self, entry, time):
        entry.key = (time, self.seq)
        self.seq += 1
        bisect.insort(self.entries, entry.key + (entry,))  # seq is unique
        return entry

    def pending_count(self):
        return len(self.entries)

    def stop(self):
        self.stopped = True

    def step(self):
        if not self.entries:
            return False
        self.now, _, entry = self.entries.pop(0)
        entry.key = None
        entry.callback(*entry.args)
        return True

    def run(self, max_events=None, until=float("inf")):
        count, self.stopped = 0, False
        while (
            not self.stopped
            and (max_events is None or count < max_events)
            and self.entries and self.entries[0][0] <= until
        ):
            self.step()
            count += 1
        return count

    def run_until(self, time, max_events=None):
        count = self.run(max_events, until=time)
        exhausted = max_events is not None and count >= max_events
        if not self.stopped and not exhausted:
            self.now = max(self.now, time)
        return count


class _ReferenceLane:
    """A lane as the reference sees it: an order check in front of plain
    ``call_at`` entries."""

    def __init__(self, owner, callback):
        self.owner, self.callback = owner, callback
        self.tail = -float("inf")

    def add(self, time, arg):
        if time < self.owner.now or time < self.tail:
            raise SimulationError("out of order")
        self.tail = time
        self.owner.call_at(time, self.callback, arg)


class _Program:
    """Drives one kernel through a random program and logs what it saw.

    Besides the heap it feeds two lanes.  A lane event's kind may spawn
    a same-instant heap event or relay an event to the other lane."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.handles = []   # by event id
        self.idle = set()   # ids that fired and may be rescheduled
        self.log = []
        self.lane_kinds = []  # by lane event id
        lane = Lane if isinstance(kernel, Simulator) else _ReferenceLane
        self.lanes = [
            lane(kernel, partial(self.lane_fire, lane_id)) for lane_id in range(2)
        ]
        self.tails = [0.0, 0.0]  # per lane: the last time it took
        self.fired = 0
        self.cancelled = 0  # cancels that took a queued event out

    def lane_add(self, lane_id, delay, kind):
        """Add to a lane ``delay`` after the later of now and the last
        time it took; a negative delay is refused (the past, or before
        the lane's tail)."""
        time = max(self.kernel.now, self.tails[lane_id]) + delay
        try:
            self.lanes[lane_id].add(time, len(self.lane_kinds))
        except SimulationError:
            self.log.append(("refused", lane_id, time))
            return
        self.lane_kinds.append(kind)
        self.tails[lane_id] = time

    def lane_fire(self, lane_id, event):
        self.fired += 1
        self.log.append(("lane", lane_id, event, self.kernel.now))
        kind = self.lane_kinds[event]
        if kind == "stop":
            self.kernel.stop()
        elif kind == "spawn":
            self.schedule(0.0, "plain")
        elif kind == "relay":
            self.lane_add(1 - lane_id, 0.0, "plain")

    def schedule(self, delay, kind):
        event = len(self.handles)
        self.handles.append(None)
        self.handles[event] = self.kernel.call_at(
            self.kernel.now + delay, self.fire, event, kind
        )

    def fire(self, event, kind):
        self.fired += 1
        self.log.append(("fire", event, self.kernel.now))
        self.idle.add(event)
        if kind == "stop":
            self.kernel.stop()
        elif kind == "spawn":
            self.schedule(0.0, "plain")  # same instant: fires this slice

    def apply(self, op):
        kernel, name = self.kernel, op[0]
        if name == "schedule":
            self.schedule(op[1], op[2])
        elif name == "cancel" and self.handles:
            event = op[1] % len(self.handles)
            before = kernel.pending_count()
            self.handles[event].cancel()
            self.cancelled += before - kernel.pending_count()
            self.handles[event].cancel()  # idempotent, also after firing
            self.idle.discard(event)  # a cancelled handle forgets its callback
        elif name == "reschedule" and self.idle:
            event = sorted(self.idle)[op[1] % len(self.idle)]
            self.idle.discard(event)
            kernel.reschedule(self.handles[event], kernel.now + op[2])
        elif name == "run_until":
            self.log.append(("ran", kernel.run_until(kernel.now + op[1], op[2])))
        elif name == "run":
            self.log.append(("ran", kernel.run(op[1])))
        elif name == "step":
            self.log.append(("stepped", kernel.step()))
        elif name == "lane_add":
            self.lane_add(op[1], op[2], op[3])
        self.log.append(("state", kernel.now, kernel.pending_count()))


# Few distinct delays, so (time, seq) ties are the common case.
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 4.0])
_budgets = st.one_of(st.none(), st.integers(min_value=0, max_value=5))
_lane_adds = st.tuples(
    st.just("lane_add"), st.integers(0, 1),
    st.sampled_from([0.0, 0.0, 0.5, 1.0, -0.5]),
    st.sampled_from(["plain", "plain", "spawn", "relay", "stop"]),
)
_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays,
              st.sampled_from(["plain", "plain", "spawn", "stop"])),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("reschedule"), st.integers(min_value=0, max_value=1000),
              _delays),
    st.tuples(st.just("run_until"), _delays, _budgets),
    st.tuples(st.just("run"), _budgets),
    st.tuples(st.just("step")),
    _lane_adds,
)


def _count_pushes(sim):
    """Count the pushes through ``call_at`` and ``reschedule``, the two
    places an entry enters the heap (the benchmark's tracer counts
    there too)."""
    pushes = [0]
    for name in ("call_at", "reschedule"):
        def counted(*args, _inner=getattr(sim, name)):
            pushes[0] += 1
            return _inner(*args)
        setattr(sim, name, counted)
    return pushes


def _queued_live(sim):
    return sum(1 for _, _, handle in sim._queue if not handle.cancelled)


def _check_against_reference(ops):
    real, model = _Program(Simulator()), _Program(_ReferenceScheduler())
    pushes = _count_pushes(real.kernel)
    for op in ops:
        real.apply(op)
        model.apply(op)
        assert real.log == model.log
        sim = real.kernel
        assert sim.pending_count() == sim._pending_count_scan()
        assert pushes[0] == real.fired + real.cancelled + _queued_live(sim)
    while model.kernel.pending_count():  # a stop() may end a run early
        real.apply(("run", None))
        model.apply(("run", None))
    assert real.log == model.log
    assert real.kernel.pending_count() == real.kernel._pending_count_scan() == 0
    assert pushes[0] == real.fired + real.cancelled


@given(ops=st.lists(_ops, min_size=1, max_size=80))
@settings(max_examples=300, deadline=None)
def test_kernel_agrees_with_reference_scheduler(ops):
    """Same program, same firing order, same ``now`` / returned count /
    ``pending_count()`` after every call — for schedule, cancel, double
    and late cancel, reschedule-after-fire, budgeted ``run_until`` and
    ``run``, ``step``, ``stop()`` from a callback and same-instant
    scheduling from a callback.  Lane events run as ``call_at`` entries
    in the reference, and each is pushed onto the heap once: when it
    becomes its lane's head."""
    _check_against_reference(ops)


@given(ops=st.lists(
    st.one_of(
        _lane_adds,
        st.tuples(st.just("schedule"), _delays, st.just("plain")),
        st.tuples(st.just("run_until"), _delays, _budgets),
        st.tuples(st.just("step")),
    ),
    min_size=10, max_size=80,
))
@settings(max_examples=300, deadline=None)
def test_lanes_agree_with_reference_scheduler(ops):
    """The same check on programs that mostly feed the lanes, so lanes
    hold a backlog, refuse adds before their tail, and lane callbacks
    relay to the other lane mid-run."""
    _check_against_reference(ops)


def test_a_lane_refuses_what_would_sort_before_its_tail():
    sim = Simulator()
    fired = []
    lane = Lane(sim, fired.append)
    lane.add(1.0, 10)
    lane.add(1.0, 11)                 # same instant: fires after
    with pytest.raises(SimulationError):
        lane.add(0.5, 12)             # earlier instant
    with pytest.raises(SimulationError):
        lane.add(float("nan"), 14)
    lane.add(2.0, 15)
    assert sim.pending_count() == sim._pending_count_scan() == 3
    sim.run()
    assert fired == [10, 11, 15]
    sim.run_until(3.0)
    with pytest.raises(SimulationError):
        lane.add(2.5, 16)             # the past
    assert sim.pending_count() == 0


@given(
    events=st.lists(
        st.tuples(_delays, st.sampled_from(["plain", "spawn"])),
        min_size=1, max_size=40,
    ),
    slices=st.lists(
        st.tuples(_delays, st.integers(min_value=1, max_value=4)), max_size=12
    ),
)
@settings(max_examples=200, deadline=None)
def test_any_slicing_of_run_until_concatenates_to_the_unsliced_run(events, slices):
    """Cutting ``run_until(T)`` at arbitrary times and event budgets (the
    benchmark's slice loop) fires the same events at the same instants,
    returns counts that add up, and ends on the same clock."""
    horizon = 5.0
    whole, sliced = _Program(Simulator()), _Program(Simulator())
    for delay, kind in events:
        whole.schedule(delay, kind)
        sliced.schedule(delay, kind)
    total = whole.kernel.run_until(horizon)
    count = 0
    for until, budget in sorted(slices) + [(horizon, 3)]:
        fired = budget
        while fired == budget:  # a full budget may have left events <= until
            fired = sliced.kernel.run_until(until, budget)
            count += fired
    assert sliced.log == whole.log
    assert count == total
    assert sliced.kernel.now == whole.kernel.now == horizon
    assert sliced.kernel.pending_count() == whole.kernel.pending_count()


def test_a_budget_that_ends_on_the_entry_beyond_the_horizon():
    """The case the random programs above rarely reach: the budget runs
    out exactly where the next entry lies beyond the horizon.  That entry
    must stay queued however often a slice looks at it, keep its place
    among same-instant entries and survive a cancel while it waits."""
    program = [
        ("schedule", 1.0, "plain"),   # event 0
        ("schedule", 1.5, "plain"),   # event 1
        ("schedule", 4.0, "plain"),   # event 2: beyond every horizon below
        ("schedule", 4.0, "plain"),   # event 3: same instant, scheduled later
        ("run_until", 2.0, 2),        # budget spent on 0 and 1: early exit at 1.5
        ("run_until", 0.5, 2),        # looks at event 2, leaves it: now 2.0
        ("run_until", 0.5, 0),        # no budget: nothing looked at, early exit
        ("run_until", 0.5, 1),        # looked at once more: now 2.5
        ("schedule", 1.5, "plain"),   # event 4 at 4.0, after both
        ("run_until", 1.5, 1),        # budget ends on event 2; 3 and 4 wait
        ("cancel", 3),
        ("run_until", 0.0, 1),        # skips the cancelled entry, fires 4
        ("run", None),
    ]
    real, model = _Program(Simulator()), _Program(_ReferenceScheduler())
    for op in program:
        real.apply(op)
        model.apply(op)
        assert real.log == model.log
        assert real.kernel.pending_count() == real.kernel._pending_count_scan()
    fired = [entry[1:] for entry in real.log if entry[0] == "fire"]
    assert fired == [(0, 1.0), (1, 1.5), (2, 4.0), (4, 4.0)]
    assert [entry[1] for entry in real.log if entry[0] == "ran"] == [
        2, 0, 0, 0, 1, 1, 0,
    ]
