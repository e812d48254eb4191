"""The watch dashboard's incident strip."""

from repro.telemetry.bus import Telemetry
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.watch import WatchState, render_watch


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.telemetry = Telemetry(clock=lambda: self.now)

    def emit_at(self, t, kind, **fields):
        self.now = t
        self.telemetry.emit(kind, **fields)


def test_quiet_run_has_no_strip():
    sim = FakeSim()
    state = WatchState(sim.telemetry)
    sim.emit_at(1.0, "client.stall.begin", client="c0")
    assert state.incident_strip() is None
    assert "incidents:" not in render_watch(state)


def test_fold_only_strip_counts_triggers():
    sim = FakeSim()
    state = WatchState(sim.telemetry)
    sim.emit_at(5.0, "server.crash", server="s0")
    sim.emit_at(9.0, "slo.breach", rule="failover_p99_s", value=3.0)
    strip = state.incident_strip()
    assert strip is not None
    assert "triggers=2" in strip
    assert "last=slo.breach@9.00s" in strip
    assert "last breach rule=failover_p99_s" in strip
    assert "closed=" not in strip  # no recorder attached


def test_recorder_strip_shows_open_window_and_closed_count():
    sim = FakeSim()
    recorder = FlightRecorder(sim.telemetry)
    state = WatchState(sim.telemetry, flight_recorder=recorder)
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
    recorder.finish(end_t=21.0)


def test_abandoned_takeover_span_counts_as_trigger():
    sim = FakeSim()
    state = WatchState(sim.telemetry)
    sim.emit_at(3.0, "span.abandoned", span="takeover", key="c0", start=1.0)
    sim.emit_at(4.0, "span.abandoned", span="client.session", key="c0",
                start=1.0)
    assert state.triggers_seen == 1
