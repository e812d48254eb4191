"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator


def test_starts_at_time_zero():
    assert Simulator().now == 0.0


def test_call_after_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_after(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_events_fire_in_time_order():
    sim = Simulator()
    seen = []
    sim.call_after(3.0, seen.append, "c")
    sim.call_after(1.0, seen.append, "a")
    sim.call_after(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    seen = []
    for label in "abcde":
        sim.call_at(1.0, seen.append, label)
    sim.run()
    assert seen == list("abcde")


def test_call_soon_runs_at_current_instant():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_at(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().call_after(-0.1, lambda: None)


def test_nan_time_raises():
    with pytest.raises(SimulationError):
        Simulator().call_at(float("nan"), lambda: None)


def test_run_until_nan_raises_instead_of_draining_the_queue():
    # ``event.time > nan`` is always false: unguarded, the loop would
    # never see an event as "past the horizon" and never return while a
    # periodic timer keeps re-arming.
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        sim.call_after(1.0, tick)

    sim.call_after(1.0, tick)
    with pytest.raises(SimulationError):
        sim.run_until(float("nan"))
    assert fired == []
    assert sim.now == 0.0
    assert sim.pending_count() == 1


def test_cancel_prevents_firing():
    sim = Simulator()
    seen = []
    handle = sim.call_after(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.call_after(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert not handle.active


def test_run_until_executes_only_due_events():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, seen.append, "early")
    sim.call_at(10.0, seen.append, "late")
    sim.run_until(5.0)
    assert seen == ["early"]
    assert sim.now == 5.0


def test_run_until_includes_events_at_boundary():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, seen.append, "edge")
    sim.run_until(5.0)
    assert seen == ["edge"]


def test_run_until_advances_clock_even_when_queue_empty():
    sim = Simulator()
    sim.run_until(42.0)
    assert sim.now == 42.0


def test_run_until_backwards_raises():
    sim = Simulator()
    sim.run_until(10.0)
    with pytest.raises(SimulationError):
        sim.run_until(5.0)


def test_run_until_early_exit_clock_reflects_last_event():
    # Regression: the clock used to be pinned to the target time even
    # when the max_events budget stopped dispatch early, letting callers
    # observe a "now" with due events still pending before it.
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.call_at(t, seen.append, t)
    ran = sim.run_until(10.0, max_events=2)
    assert ran == 2
    assert seen == [1.0, 2.0]
    assert sim.now == 2.0  # not 10.0
    assert sim.next_event_time() == 3.0


def test_run_until_early_exit_resumes_without_compensation():
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.call_at(t, seen.append, t)
    total = 0
    while sim.now < 10.0:
        total += sim.run_until(10.0, max_events=1)
    assert seen == [1.0, 2.0, 3.0]
    assert total == 3
    assert sim.now == 10.0


def test_run_until_exact_budget_keeps_clock_at_last_event():
    # Budget == number of due events: still an early exit (the loop
    # never got to look past the last event), so the clock stays put
    # and the next call finishes the slice.
    sim = Simulator()
    seen = []
    sim.call_at(1.0, seen.append, 1.0)
    ran = sim.run_until(5.0, max_events=1)
    assert ran == 1 and sim.now == 1.0
    assert sim.run_until(5.0) == 0
    assert sim.now == 5.0


def test_run_until_complete_slice_still_advances_clock():
    sim = Simulator()
    sim.call_at(1.0, lambda: None)
    ran = sim.run_until(5.0, max_events=100)
    assert ran == 1
    assert sim.now == 5.0


def test_run_until_stop_keeps_clock_at_last_event():
    sim = Simulator()
    sim.call_at(1.0, sim.stop)
    sim.call_at(2.0, lambda: None)
    ran = sim.run_until(5.0)
    assert ran == 1
    assert sim.now == 1.0


def test_consecutive_run_until_calls_continue():
    sim = Simulator()
    seen = []
    for t in (1.0, 11.0, 21.0):
        sim.call_at(t, seen.append, t)
    sim.run_until(10.0)
    sim.run_until(20.0)
    sim.run_until(30.0)
    assert seen == [1.0, 11.0, 21.0]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        sim.call_after(1.0, seen.append, "second")

    sim.call_at(1.0, first)
    sim.run()
    assert seen == ["second"]
    assert sim.now == 2.0


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, seen.append, "a")
    sim.call_at(2.0, sim.stop)
    sim.call_at(3.0, seen.append, "b")
    sim.run()
    assert seen == ["a"]
    # A later run resumes the remaining events.
    sim.run()
    assert seen == ["a", "b"]


def test_run_returns_event_count():
    sim = Simulator()
    for t in range(5):
        sim.call_at(float(t), lambda: None)
    assert sim.run() == 5


def test_max_events_limit():
    sim = Simulator()
    for t in range(10):
        sim.call_at(float(t), lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.pending_count() == 7


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    keep = sim.call_after(1.0, lambda: None)
    drop = sim.call_after(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_count() == 1
    del keep


def test_next_event_time_skips_cancelled():
    sim = Simulator()
    first = sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    first.cancel()
    assert sim.next_event_time() == 2.0


def test_next_event_time_empty_queue():
    assert Simulator().next_event_time() is None


def test_step_returns_false_when_drained():
    sim = Simulator()
    sim.call_soon(lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_callback_args_passed_through():
    sim = Simulator()
    seen = []
    sim.call_soon(lambda a, b: seen.append((a, b)), 1, "two")
    sim.run()
    assert seen == [(1, "two")]


def test_tracer_records_when_enabled():
    sim = Simulator(trace=True)
    sim.call_after(1.0, lambda: None)
    sim.run()
    assert len(sim.tracer.records) == 1
    assert sim.tracer.records[0].time == 1.0


def test_tracer_disabled_by_default():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run()
    assert sim.tracer.records == []
