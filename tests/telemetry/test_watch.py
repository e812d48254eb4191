"""Live dashboard: WatchState over a run's observers, frame rendering,
CLI smoke."""

from repro.experiments.runner import main
from repro.experiments.scenarios import (
    LAN_SCENARIO,
    prepare_scenario,
    reference_scenario,
)
from repro.telemetry import RunObservers, Telemetry, WatchState, render_watch


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.telemetry = Telemetry(clock=lambda: self.now)


def make_state():
    sim = FakeSim()
    observers = RunObservers(sim, observe=True, flight=True)
    return sim, sim.telemetry, WatchState(observers)


# ----------------------------------------------------------------------
# Fold semantics
# ----------------------------------------------------------------------
def test_buffer_column_ignores_byte_series_and_prefers_combined():
    sim, tel, state = make_state()
    tel.emit("metric.sample", series="hardware_buffer_bytes",
             owner="client0", value=242637.0)
    assert "client0" not in state.clients()  # bytes never shown
    tel.emit("metric.sample", series="software_buffer_frames",
             owner="client0", value=40.0)
    assert state.clients()["client0"].buffer == 40.0
    tel.emit("metric.sample", series="combined_frames",
             owner="client0", value=55.0)
    assert state.clients()["client0"].buffer == 55.0
    # Combined keeps precedence over a later software-only sample.
    tel.emit("metric.sample", series="software_buffer_frames",
             owner="client0", value=10.0)
    assert state.clients()["client0"].buffer == 55.0


def test_stall_and_migration_fold():
    sim, tel, state = make_state()
    sim.now = 1.0
    tel.emit("client.migrate", client="client0", from_server="None",
             to_server="server0@1")
    view = state.clients()["client0"]
    assert view.card.migrations == 0  # initial adoption is free
    assert view.server == "server0@1"
    sim.now = 5.0
    tel.emit("client.stall.begin", client="client0")
    view = state.clients()["client0"]
    assert view.stalled and view.card.stall_count == 1 and view.status == "STALL"
    tel.emit("client.migrate", client="client0@7", from_server="server0@1",
             to_server="server1@2")
    view = state.clients()["client0"]
    assert view.card.migrations == 1
    assert view.server == "server1@2"
    tel.emit("client.stall.end", client="client0")
    assert not state.clients()["client0"].stalled


def test_spans_and_session_lifecycle():
    sim, tel, state = make_state()
    sim.now = 2.0
    takeover = tel.span("takeover", key="client0@5")
    assert "takeover         client0@5        open    0.00s" in render_watch(
        state
    )
    sim.now = 3.0
    takeover.end()
    assert "active spans:" not in render_watch(state)
    tel.span("client.session", key="client0").abandon(reason="run-end")
    # Abandoned is not "done": the movie never finished.
    assert not state.clients()["client0"].card.finished
    tel.span("client.session", key="client1").end()
    assert state.clients()["client1"].card.finished


def test_slo_and_notable_events_fold():
    sim, tel, state = make_state()
    sim.now = 5.0
    tel.emit("client.stall.begin", client="client0")
    sim.now = 21.0
    # Closes the monitor's first window: its one client stalled in it.
    tel.emit("fault.fired", action="CrashServing")
    tel.emit("gcs.view.install", view=2)
    assert state.faults == 1 and state.views_installed == 1
    rows = dict((rule, status) for rule, status, _ in state.slo_rows())
    assert rows["glitch_free_fraction"] == "BREACH"
    assert rows["failover_p99_s"] == "OK"
    assert any("fault.fired" in line for line in state.recent)
    assert any("slo.breach" in line for line in state.recent)


def test_buffer_distribution_covers_every_client():
    sim, tel, state = make_state()
    for i, level in enumerate((5.0, 25.0, 60.0)):
        tel.emit("metric.sample", series="combined_frames",
                 owner=f"client{i}", value=level)
    dist = state.buffer_distribution(bins=4)
    assert sum(count for _, count in dist) == 3


def test_render_watch_has_every_section():
    sim, tel, state = make_state()
    sim.now = 5.0
    tel.emit("client.stall.begin", client="client0")
    sim.now = 12.0
    tel.emit("metric.sample", series="combined_frames",
             owner="client0", value=30.0)
    tel.span("takeover", key="client0@5")
    frame = render_watch(state)
    assert "t=   12.00s" in frame
    assert "SLO:" in frame and "BREACH" in frame
    assert "last breach rule=glitch_free_fraction" in frame
    assert "buffer occupancy" in frame
    assert "active spans:" in frame and "takeover" in frame
    assert "STALL" in frame
    assert "recent events:" in frame


def test_watch_lists_the_session_span_opened_before_it():
    """The viewer opens its ``client.session`` span when it requests
    the movie, before ``repro-vod watch`` builds its state; the span
    stays open all run, so every frame lists it."""
    live = prepare_scenario(LAN_SCENARIO, observe=True, flight=True)
    with live:
        state = WatchState(live.observers)
        live.step(3.0)
        frame = render_watch(state)
        state.close()
    assert "active spans:" in frame
    assert "client.session   client0          open    3.00s" in frame


def test_rules_read_a_dash_until_their_first_window_closes():
    """At the first frame of a WAN watch (t = 10 s) no window has closed:
    no rule may read ``OK`` beside a 0.000 it never measured."""
    live = prepare_scenario(
        reference_scenario("wan", 100.0), observe=True, flight=True
    )
    with live:
        state = WatchState(live.observers)
        live.step(10.0)
        frame = render_watch(state)
        state.close()
    rows = frame.split("SLO:\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert [row.split() for row in rows] == [
        ["emergency_bandwidth_share", "-", "-"],
        ["failover_p99_s", "-", "-"],
        ["glitch_free_fraction", "-", "-"],
    ]


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
def test_watch_cli_renders_frames_and_scorecards(capsys, tmp_path):
    code = main([
        "watch", "--scenario", "lan", "--duration", "30",
        "--interval", "15",
        "--telemetry", str(tmp_path / "watch.jsonl"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("t=") >= 2  # one frame per interval
    assert "client.session   client0" in out
    assert "Per-client QoE scorecards" in out
    assert "glitch_free_fraction" in out
    assert "[telemetry artifact written to" in out
