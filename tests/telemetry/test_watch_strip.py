"""The watch dashboard's incident strip."""

from repro.telemetry.bus import Telemetry
from repro.telemetry.harness import RunObservers
from repro.telemetry.watch import WatchState, render_watch


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.telemetry = Telemetry(clock=lambda: self.now)

    def emit_at(self, t, kind, **fields):
        self.now = t
        self.telemetry.emit(kind, **fields)


def watch(sim):
    return WatchState(RunObservers(sim, observe=True, flight=True))


def test_quiet_run_has_no_strip():
    sim = FakeSim()
    state = watch(sim)
    sim.emit_at(1.0, "client.stall.begin", client="c0")
    assert state.incident_strip() is None
    assert "incidents:" not in render_watch(state)


def test_strip_reads_triggers_and_breach_rule_from_observers():
    sim = FakeSim()
    state = watch(sim)
    sim.emit_at(5.0, "server.crash", server="s0")
    sim.emit_at(6.0, "client.stall.begin", client="c0")
    # Closes the SLO monitor's first window: c0 stalled in it, so the
    # monitor breaches glitch_free_fraction and emits slo.breach.
    sim.emit_at(10.0, "client.flow", client="c0")
    strip = state.incident_strip()
    assert strip is not None
    assert "triggers=2" in strip
    assert "last=slo.breach@10.00s" in strip
    assert "last breach rule=glitch_free_fraction" in strip
    assert "closed=0" in strip


def test_recorder_strip_shows_open_window_and_closed_count():
    sim = FakeSim()
    observers = RunObservers(sim, observe=True, flight=True)
    state = WatchState(observers)
    sim.emit_at(5.0, "server.crash", server="s0")
    strip = state.incident_strip()
    assert "OPEN server.crash@5.00s" in strip
    assert "capture to 10.00s" in strip
    # The window closes; a later trigger opens a second incident.
    sim.emit_at(20.0, "server.crash", server="s1")
    strip = state.incident_strip()
    assert "closed=1" in strip
    assert "OPEN server.crash@20.00s" in strip
    rendered = render_watch(state)
    assert "incidents: closed=1" in rendered
    state.close()
    observers.settle()


def test_abandoned_takeover_span_counts_as_trigger():
    sim = FakeSim()
    state = watch(sim)
    sim.now = 1.0
    takeover = sim.telemetry.span("takeover", key="c0")
    session = sim.telemetry.span("client.session", key="c0")
    sim.now = 3.0
    takeover.abandon()
    sim.now = 4.0
    session.abandon()
    assert state.recorder.triggers_seen == 1
    assert "triggers=1  last=span.abandoned@3.00s" in state.incident_strip()
