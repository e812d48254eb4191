"""The flight recorder's retention, trigger and assembly contracts.

The ring/sampling properties are Hypothesis-driven over synthetic event
streams: whatever the stream, occupancy never exceeds the configured
budget and always-retained kinds are never sampled out.  The trigger
and incident tests use hand-built failover stories with known exact
timings.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.bus import Telemetry
from repro.telemetry.flight import (
    ALWAYS_RETAIN_PREFIXES,
    FlightRecorder,
    FlightRecorderConfig,
    Incident,
    incidents_from_records,
    is_trigger,
)


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.telemetry = Telemetry(clock=lambda: self.now)


#: Benign kinds only — no trigger kinds, so ring properties are tested
#: without capture windows muddying the accounting.
_RING_KINDS = (
    "client.watermark", "client.flow", "server.session.start",
    "metric.sample", "gcs.flush.begin", "span.begin",
)


@st.composite
def event_streams(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    stream = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=2.0,
                            allow_nan=False, allow_infinity=False))
        kind = draw(st.sampled_from(_RING_KINDS))
        stream.append((t, kind))
    return stream


@given(stream=event_streams(),
       budget=st.integers(min_value=1, max_value=16),
       rate=st.integers(min_value=1, max_value=7))
@settings(max_examples=60)
def test_ring_occupancy_never_exceeds_budget(stream, budget, rate):
    config = FlightRecorderConfig(
        default_budget=budget, sample_every={"metric.": rate}
    )
    recorder = FlightRecorder(None, config)
    for t, kind in stream:
        recorder.feed(t, kind, {"value": 1})
        assert recorder.occupancy() <= recorder.ring_budget()
        for kind_seen, ring in recorder._rings.items():
            assert len(ring) <= config.budget_for(kind_seen)
    metering = recorder.metering()
    assert metering["occupancy"] <= metering["ring_budget"]
    # Conservation per kind: what a ring holds is exactly what was
    # appended minus what was evicted.
    for kind in recorder.seen:
        held = len(recorder._rings.get(kind, ()))
        assert held == (
            recorder.retained.get(kind, 0) - recorder.evicted.get(kind, 0)
        )


@given(stream=event_streams(), rate=st.integers(min_value=2, max_value=9))
@settings(max_examples=60)
def test_always_retained_kinds_are_never_sampled_out(stream, rate):
    # Aggressive sampling on every prefix, including the protected ones:
    # the config layer must refuse to sample fault./slo./span./invariant.
    config = FlightRecorderConfig(
        sample_every={
            "": rate, "fault.": rate, "slo.": rate, "span.": rate,
            "invariant.": rate, "metric.": rate,
        },
        max_incidents=0,  # keep capture windows out of the accounting
    )
    recorder = FlightRecorder(None, config)
    protected = [
        (t, kind.replace("client.", "fault.").replace("server.", "slo."))
        for t, kind in stream
    ]
    for t, kind in stream + protected:
        recorder.feed(t, kind, {})
    for kind, count in recorder.sampled_out.items():
        assert not kind.startswith(ALWAYS_RETAIN_PREFIXES), (
            f"{kind} was sampled out {count} times"
        )
    for kind in recorder.seen:
        if kind.startswith(ALWAYS_RETAIN_PREFIXES):
            assert recorder.sampled_out.get(kind, 0) == 0


def test_sampling_is_deterministic_in_the_stream():
    config = FlightRecorderConfig(sample_every={"metric.": 3})
    a, b = FlightRecorder(None, config), FlightRecorder(None, config)
    for i in range(50):
        a.feed(float(i), "metric.sample", {"i": i})
        b.feed(float(i), "metric.sample", {"i": i})
    assert [r for _, r in a._rings["metric.sample"]] == [
        r for _, r in b._rings["metric.sample"]
    ]
    assert a.sampled_out == b.sampled_out


def test_horizon_evicts_old_ring_entries():
    config = FlightRecorderConfig(default_budget=100, horizon_s=5.0)
    recorder = FlightRecorder(None, config)
    for i in range(20):
        recorder.feed(float(i), "client.flow", {"i": i})
    ring = recorder._rings["client.flow"]
    assert all(record["t"] >= 19.0 - 5.0 for _, record in ring)
    assert recorder.evicted["client.flow"] > 0


def test_trigger_rules():
    assert is_trigger("slo.breach", {})
    assert is_trigger("fault.fired", {})
    assert is_trigger("invariant.violation", {})
    assert is_trigger("server.crash", {})
    assert is_trigger("span.abandoned", {"span": "takeover"})
    assert not is_trigger("span.abandoned", {"span": "client.session"})
    assert not is_trigger("client.stall.begin", {})
    assert not is_trigger("span.end", {"span": "takeover"})


def _failover_story(recorder, crash_t=10.0, client="c0"):
    cause = "fault.X#1"
    recorder.feed(crash_t, "server.crash",
                  {"server": "s0", "cause": cause})
    recorder.feed(crash_t, "span.begin",
                  {"span": "takeover", "key": client, "cause": cause})
    recorder.feed(crash_t + 0.4, "gcs.fd.suspect", {"cause": cause})
    recorder.feed(crash_t + 0.6, "gcs.view.install",
                  {"view": "v2", "cause": cause})
    recorder.feed(
        crash_t + 1.0, "span.end",
        {"span": "takeover", "key": client, "start": crash_t,
         "duration_s": 1.0, "cause": cause},
    )
    recorder.feed(crash_t + 1.2, "client.resume",
                  {"client": client, "cause": cause})


def test_trigger_opens_window_and_assembles_incident():
    recorder = FlightRecorder(None, FlightRecorderConfig(
        pre_trigger_s=2.0, post_trigger_s=3.0,
    ))
    for i in range(30):
        recorder.feed(i * 0.3, "client.watermark", {"client": "c0"})
    _failover_story(recorder, crash_t=10.0)
    # Past the deadline: the next event closes the capture.
    recorder.feed(20.0, "client.watermark", {"client": "c0"})
    incidents = recorder.finish()
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident.trigger_kind == "server.crash"
    assert incident.trigger_t == 10.0
    assert incident.pre_records > 0
    assert incident.window_start >= 8.0 - 1e-9
    assert incident.window_end == 10.0 + 3.0
    assert incident.n_breakdowns == 1
    b = incident.breakdowns[0]
    assert math.isclose(
        b["detect_s"] + b["agree_s"] + b["redistribute_s"], b["total_s"],
        rel_tol=0.0, abs_tol=1e-9,
    )
    assert math.isclose(b["detect_s"], 0.4, abs_tol=1e-9)
    assert incident.qoe["clients_hit"] == 1
    assert incident.chains


def test_overlapping_triggers_extend_one_incident():
    recorder = FlightRecorder(None, FlightRecorderConfig(post_trigger_s=5.0))
    recorder.feed(10.0, "server.crash", {"server": "s0"})
    recorder.feed(12.0, "fault.fired", {"action": "Partition"})
    recorder.feed(30.0, "client.flow", {})  # closes at 12+5
    incidents = recorder.finish()
    assert len(incidents) == 1
    assert incidents[0].n_triggers == 2
    assert incidents[0].window_end == 17.0


def test_post_deadline_trigger_opens_a_second_incident():
    recorder = FlightRecorder(None, FlightRecorderConfig(post_trigger_s=2.0))
    recorder.feed(10.0, "server.crash", {"server": "s0"})
    # Beyond the deadline AND itself a trigger: the old capture closes
    # first, then this opens a new one.
    recorder.feed(20.0, "server.crash", {"server": "s1"})
    incidents = recorder.finish()
    assert [i.trigger_t for i in incidents] == [10.0, 20.0]
    assert incidents[0].window_end == 12.0


def test_max_incidents_counts_dropped_triggers():
    recorder = FlightRecorder(None, FlightRecorderConfig(
        post_trigger_s=1.0, max_incidents=2,
    ))
    for i in range(5):
        recorder.feed(10.0 * (i + 1), "server.crash", {"server": f"s{i}"})
    incidents = recorder.finish()
    assert len(incidents) == 2
    assert recorder.triggers_seen == 5
    assert recorder.triggers_dropped == 3


def test_finish_closes_open_capture_and_is_idempotent():
    recorder = FlightRecorder(None, FlightRecorderConfig(post_trigger_s=9.0))
    recorder.feed(10.0, "server.crash", {"server": "s0"})
    assert recorder.open_trigger is not None
    first = recorder.finish(end_t=12.0)
    assert len(first) == 1
    assert first[0].window_end == 12.0
    assert recorder.open_trigger is None
    assert recorder.finish() is first


def test_abandoned_takeover_span_is_a_trigger():
    recorder = FlightRecorder(None, FlightRecorderConfig())
    recorder.feed(10.0, "span.abandoned",
                  {"span": "takeover", "key": "c1", "start": 8.0,
                   "cause": "fault.X#1"})
    incidents = recorder.finish(end_t=10.0)
    assert len(incidents) == 1
    assert incidents[0].trigger_kind == "span.abandoned"
    assert incidents[0].breakdowns[0]["abandoned"] is True


def test_offline_replay_matches_live_feed():
    records = []
    t = 0.0
    for i in range(40):
        t += 0.25
        records.append({"t": t, "kind": "client.watermark", "client": "c0"})
    records.append({"t": t + 0.1, "kind": "server.crash", "server": "s0"})
    records.append({"t": t + 2.0, "kind": "client.resume", "client": "c0"})

    live = FlightRecorder(None)
    for record in records:
        fields = {k: v for k, v in record.items() if k not in ("t", "kind")}
        live.feed(record["t"], record["kind"], fields)
    replayed = incidents_from_records(records)
    assert [i.as_dict() for i in live.finish()] == [
        i.as_dict() for i in replayed
    ]


def test_incident_round_trips_through_dict():
    recorder = FlightRecorder(None)
    _failover_story(recorder, crash_t=5.0)
    incident = recorder.finish()[0]
    clone = Incident.from_dict(incident.as_dict())
    assert clone.as_dict() == incident.as_dict()
    # Files written while incidents carried a shard tag still load.
    tagged = Incident.from_dict(dict(incident.as_dict(), shard="0,1"))
    assert tagged.as_dict() == incident.as_dict()


def test_recorder_subscribes_and_publishes_metrics():
    sim = FakeSim()
    recorder = FlightRecorder(sim.telemetry)
    assert sim.telemetry.active
    sim.now = 10.0
    sim.telemetry.emit("server.crash", server="s0")
    sim.now = 11.0
    sim.telemetry.emit("client.resume", client="c0")
    incidents = recorder.finish(end_t=11.0)
    assert len(incidents) == 1
    snapshot = sim.telemetry.metrics.snapshot()
    assert snapshot["telemetry.flight.incidents"] == 1
    assert snapshot["telemetry.flight.events.seen"] == 2
    assert snapshot["telemetry.flight.triggers.seen"] == 1
    assert "telemetry.flight.buffer.occupancy" in snapshot


def test_metering_reports_budgets_and_bytes():
    recorder = FlightRecorder(None)
    for i in range(100):
        recorder.feed(float(i), "client.flow", {"client": "c0", "level": i})
    metering = recorder.metering()
    assert metering["seen"]["client.flow"] == 100
    assert metering["occupancy"] == 100
    assert metering["ring_budget"] == 512
    assert metering["estimated_bytes"] > 0
    assert metering["incidents"] == 0
