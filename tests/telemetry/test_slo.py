"""SLO monitoring: rule semantics, lazy windowing, breach lifecycle.

The monitor's contract: windows advance only on event timestamps (no
simulation timers — zero perturbation), a nominal run stays clean, and
losing every replica breaches the glitch-free objective with
``slo.breach`` in the export.
"""

import dataclasses
import types

import pytest

from repro.experiments.scenarios import (
    LAN_SCENARIO,
    ScenarioSpec,
    WorkloadSpec,
    reference_scenario,
    run_scenario,
)
from repro.server.admission import AdmissionSpec
from repro.telemetry import (
    RULE_SETS,
    SloMonitor,
    Telemetry,
    load_timeline,
    read_jsonl,
    render_slo,
    slo_from_timeline,
    whole_run_slo,
)
from repro.telemetry.bus import _may_match_firehose
from repro.telemetry.harness import RunObservers
from repro.telemetry.qoe import QOE_PREFIXES
from repro.telemetry.slo import (
    OBSERVED_PREFIXES,
    PAPER_RULES,
    STORM_RULE,
    WindowSnapshot,
)

GLITCH_FREE, FAILOVER, EMERGENCY = PAPER_RULES

NOMINAL_SPEC = dataclasses.replace(
    LAN_SCENARIO,
    name="lan-slo-nominal",
    movie_duration_s=60.0,
    run_duration_s=60.0,
    schedule=(),
)

#: One replica, crashed mid-run and never replaced: the client stalls
#: out its buffer and the glitch-free objective must breach.
BLACKOUT_SPEC = dataclasses.replace(
    LAN_SCENARIO,
    name="lan-slo-blackout",
    movie_duration_s=90.0,
    run_duration_s=90.0,
    n_initial_servers=1,
    schedule=((20.0, "crash-serving"),),
)


#: A flash crowd against a reject-only admission bucket (the matrix's
#: admission faceoff, reject side): rejects reach the QoE cards of
#: viewers not yet heard on ``client.*``.
REJECT_SPEC = ScenarioSpec(
    name="slo-reject",
    network="lan",
    movie_duration_s=60.0,
    run_duration_s=60.0,
    seed=5,
    workload=WorkloadSpec(kind="flash-crowd", n_viewers=10, at_s=6.0),
    admission=AdmissionSpec(mode="reject", rate_per_s=0.4, burst=2.0),
    n_client_hosts=11,
)


def window(**overrides) -> WindowSnapshot:
    base = dict(
        start=0.0, end=10.0, clients=0, stalled=0,
        failover_durations=[],
        extra_frames=0.0, base_frames=0.0,
    )
    base.update(overrides)
    return WindowSnapshot(**base)


# ----------------------------------------------------------------------
# Rule semantics
# ----------------------------------------------------------------------
def test_glitch_free_rule_values_and_burn():
    rule = GLITCH_FREE
    assert rule.target == 0.99
    assert rule.evaluate(window(clients=0)).ok  # vacuous window
    good = rule.evaluate(window(clients=100, stalled=0))
    assert good.ok and good.value == pytest.approx(1.0)
    assert good.burn_rate == pytest.approx(0.0)
    bad = rule.evaluate(window(clients=100, stalled=5))
    assert not bad.ok
    assert bad.value == pytest.approx(0.95)
    assert bad.burn_rate == pytest.approx(5.0)  # 5% bad over a 1% budget


def test_failover_rule_judges_p99_of_all_handoffs():
    rule = FAILOVER
    assert rule.target == 2.0
    assert rule.evaluate(window()).ok  # no handoffs yet
    fast = rule.evaluate(window(failover_durations=[0.3, 0.5, 0.4]))
    assert fast.ok and fast.value == pytest.approx(0.5)
    slow = rule.evaluate(window(failover_durations=[0.3, 3.1]))
    assert not slow.ok and slow.value == pytest.approx(3.1)


def test_emergency_rule_is_a_per_window_share():
    rule = EMERGENCY
    assert rule.target == 0.40
    assert rule.evaluate(window()).ok  # no traffic
    ok = rule.evaluate(window(extra_frames=30.0, base_frames=300.0))
    assert ok.ok and ok.value == pytest.approx(0.1)
    over = rule.evaluate(window(extra_frames=150.0, base_frames=300.0))
    assert not over.ok and over.value == pytest.approx(0.5)


def test_storm_rule_counts_rejects_per_window():
    assert STORM_RULE.evaluate(window(rejects=50)).ok
    storm = STORM_RULE.evaluate(window(rejects=51))
    assert not storm.ok and storm.value == 51.0


def test_rule_sets_keep_names_and_order():
    """``bench/`` and the exports read the summaries by these names."""
    assert [rule.name for rule in RULE_SETS["paper"]] == [
        "glitch_free_fraction", "failover_p99_s", "emergency_bandwidth_share",
    ]
    assert RULE_SETS["admission"] == RULE_SETS["paper"] + (STORM_RULE,)
    assert STORM_RULE.name == "admission_rejects_per_window"


# ----------------------------------------------------------------------
# Monitor lifecycle on a synthetic bus
# ----------------------------------------------------------------------
class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_lazy_windows_breach_and_recover():
    clock = Clock()
    tel = Telemetry(clock=clock)
    monitor = SloMonitor(tel)
    emitted = []
    tel.subscribe(lambda e: emitted.append(e), prefixes=("slo.",))

    clock.now = 1.0
    tel.emit("client.stall.begin", client="c0")
    clock.now = 9.0
    tel.emit("client.stall.end", client="c0")
    # Advancing virtual time alone does nothing — only an event past the
    # boundary closes the window (lazy, timer-free evaluation).
    assert monitor.states["glitch_free_fraction"].windows == 0
    clock.now = 11.0
    tel.emit("client.flow", client="c0", message="increase")
    state = monitor.states["glitch_free_fraction"]
    assert state.windows == 1
    assert not state.ok  # the only client stalled in window [0, 10)
    kinds = [e.kind for e in emitted]
    assert "slo.breach" in kinds and "slo.burn" in kinds

    # A clean window recovers the objective.
    clock.now = 25.0
    tel.emit("client.flow", client="c0", message="increase")
    assert monitor.states["glitch_free_fraction"].ok
    assert [e.kind for e in emitted].count("slo.breach") == 1
    assert "slo.recover" in [e.kind for e in emitted]
    summary = monitor.finish(clock.now)
    assert summary["glitch_free_fraction"]["breaches"] == 1


def test_stall_spanning_window_boundary_counts_in_both():
    clock = Clock()
    tel = Telemetry(clock=clock)
    monitor = SloMonitor(tel)
    clock.now = 8.0
    tel.emit("client.stall.begin", client="c0")
    clock.now = 12.0  # still stalled as window [0,10) closes
    tel.emit("client.flow", client="c0", message="increase")
    clock.now = 22.0
    tel.emit("client.stall.end", client="c0")
    summary = monitor.finish(25.0)
    # Stalled in [0,10), [10,20) and [20,30): every window breached.
    assert summary["glitch_free_fraction"]["windows"] == 3
    assert summary["glitch_free_fraction"]["breaches"] == 1  # one episode


def test_finish_closes_every_window_of_a_quiet_tail():
    clock = Clock()
    tel = Telemetry(clock=clock)
    monitor = SloMonitor(tel)
    clock.now = 1.0
    tel.emit("client.stall.begin", client="c0")
    summary = monitor.finish(45.0)
    # [0, 10), [10, 20), [20, 30), [30, 40) and the partial [40, 45].
    assert summary["glitch_free_fraction"]["windows"] == 5
    assert summary["glitch_free_fraction"]["value"] == 0.0  # still stalled


def test_slow_takeover_breaches_failover_objective():
    clock = Clock()
    tel = Telemetry(clock=clock)
    monitor = SloMonitor(tel)
    clock.now = 5.0
    tel.emit("span.end", span="takeover", key="c0", duration_s=3.2)
    summary = monitor.finish(12.0)
    state = summary["failover_p99_s"]
    assert state["breaches"] == 1
    assert state["value"] == pytest.approx(3.2)
    assert monitor.failovers == (3.2,)


def test_an_observed_run_hears_each_event_once():
    """With a rule set attached, one subscription feeds the QoE fold and
    judges the windows; it hears every QoE kind and no firehose kind."""
    sim = types.SimpleNamespace(now=0.0, telemetry=Telemetry())
    observers = RunObservers(sim, observe=True)
    monitor = observers.slo_monitor
    assert [s.callback for s in sim.telemetry._subscribers] == [
        monitor._on_event
    ]
    assert observers.accumulator is monitor.qoe
    assert all(prefix.startswith(OBSERVED_PREFIXES) for prefix in QOE_PREFIXES)
    assert not _may_match_firehose(OBSERVED_PREFIXES)


def test_windows_read_the_accumulator():
    """The glitch-free denominator is the clients heard on ``client.*``
    (a session span alone does not count), and the stall state carried
    into the next window is the accumulator's."""
    clock = Clock()
    tel = Telemetry(clock=clock)
    monitor = SloMonitor(tel)
    tel.span("client.session", key="c1")  # a card, but not heard yet
    clock.now = 2.0
    tel.emit("client.stall.begin", client="c0")
    clock.now = 12.0
    tel.emit("client.flow", client="c0", message="increase")
    assert set(monitor.qoe.scorecards()) == {"c0", "c1"}
    assert monitor.qoe.heard == {"c0"}
    assert monitor.states["glitch_free_fraction"].value == 0.0  # 1 of 1
    assert monitor._stalled_in_window == {"c0"}


def test_emergency_share_splits_at_rate_events_and_window_ends():
    clock = Clock()
    tel = Telemetry(clock=clock)
    monitor = SloMonitor(tel)
    clock.now = 5.0  # 5 fps of refill above a 25 fps base
    tel.emit("server.rate", client="c0@3", rate_fps=30.0, base_fps=25.0,
             emergency=1)
    clock.now = 12.0  # closes [0, 10): 25 extra over 125 base frames
    tel.emit("client.flow", client="c0", message="increase")
    share = monitor.states["emergency_bandwidth_share"]
    assert share.value == pytest.approx(0.2)
    clock.now = 15.0  # refill ends: [10, 15) at 5 extra fps
    tel.emit("server.rate", client="c0@3", rate_fps=25.0, base_fps=25.0,
             emergency=0)
    monitor.finish(20.0)
    assert share.value == pytest.approx(25.0 / 250.0)
    # The scorecard's extra frames split at rate events only.
    assert monitor.qoe.scorecards()["c0"].emergency_extra_frames == 50.0


# ----------------------------------------------------------------------
# Scenario runs
# ----------------------------------------------------------------------
def test_nominal_run_holds_every_objective(tmp_path):
    result = run_scenario(
        NOMINAL_SPEC, telemetry_path=str(tmp_path / "nominal.jsonl")
    )
    assert result.slo
    assert all(item["ok"] for item in result.slo.values())
    assert all(item["breaches"] == 0 for item in result.slo.values())
    records = read_jsonl(str(tmp_path / "nominal.jsonl"))
    assert not [r for r in records if r.get("kind") == "slo.breach"]
    assert records[-1]["slo_breaches"] == 0


def test_total_blackout_breaches_glitch_free(tmp_path):
    path = tmp_path / "blackout.jsonl"
    result = run_scenario(BLACKOUT_SPEC, telemetry_path=str(path))
    glitch = result.slo["glitch_free_fraction"]
    assert glitch["breaches"] >= 1
    assert not glitch["ok"]  # still stalled at run end
    breaches = [
        r for r in read_jsonl(str(path)) if r.get("kind") == "slo.breach"
    ]
    assert any(r["rule"] == "glitch_free_fraction" for r in breaches)
    assert all(r["t"] > 20.0 for r in breaches)  # only after the crash
    # Offline replay reproduces the online verdicts exactly.
    offline = slo_from_timeline(load_timeline(str(path)))
    assert offline == result.slo


def test_offline_replay_judges_a_quiet_tail_to_the_run_end(tmp_path):
    path = tmp_path / "lan120.jsonl"
    result = run_scenario(
        reference_scenario("lan", 120.0), telemetry_path=str(path)
    )
    assert {item["windows"] for item in result.slo.values()} == {12}
    assert slo_from_timeline(load_timeline(str(path))) == result.slo


def test_offline_replay_judges_the_rule_set_in_the_header(tmp_path):
    """A reject-mode admission run is judged by the ``"admission"`` set
    online; its export's header names the set, so the offline replay
    judges the storm rule too.  A paper run's header names none."""
    path = tmp_path / "reject.jsonl"
    result = run_scenario(REJECT_SPEC, telemetry_path=str(path))
    assert "admission_rejects_per_window" in result.slo
    timeline = load_timeline(str(path))
    assert timeline.meta["slo"] == "admission"
    assert slo_from_timeline(timeline) == result.slo
    nominal = tmp_path / "nominal.jsonl"
    run_scenario(NOMINAL_SPEC, telemetry_path=str(nominal))
    assert "slo" not in load_timeline(str(nominal)).meta


def test_render_slo_marks_breached_rules(tmp_path):
    result = run_scenario(
        BLACKOUT_SPEC, telemetry_path=str(tmp_path / "b.jsonl")
    )
    text = render_slo(result.slo)
    assert "BREACH" in text
    assert "glitch_free_fraction" in text


def test_whole_run_slo_uses_the_real_rules():
    summary = whole_run_slo(
        n_clients=1000, duration_s=8.0,
        failover_latencies=[0.2, 0.3, 0.4], stalled_clients=0,
    )
    assert summary["glitch_free_fraction"]["ok"] is True
    assert summary["failover_p99_s"]["ok"] is True
    assert summary["failover_p99_s"]["value"] == 0.4
    # A latency past the paper's 2-second bound must breach.
    breached = whole_run_slo(
        n_clients=10, duration_s=8.0, failover_latencies=[3.0],
        stalled_clients=0,
    )
    assert breached["failover_p99_s"]["ok"] is False
    assert breached["failover_p99_s"]["breaches"] == 1
    # So must two stalled viewers in a hundred (the target is 99 %).
    stalled = whole_run_slo(
        n_clients=100, duration_s=8.0, failover_latencies=[],
        stalled_clients=2,
    )
    assert stalled["glitch_free_fraction"]["ok"] is False
