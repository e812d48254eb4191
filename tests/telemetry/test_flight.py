"""The flight recorder's retention, trigger and assembly contracts.

The ring/sampling properties are Hypothesis-driven over synthetic event
streams: whatever the stream, occupancy never exceeds the ring budget
and only ``metric.*`` kinds are ever sampled out.  The trigger
and incident tests use hand-built failover stories with known exact
timings.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import flight
from repro.telemetry.bus import Telemetry
from repro.telemetry.flight import (
    MAX_INCIDENTS,
    METRIC_SAMPLE_EVERY,
    POST_TRIGGER_S,
    PRE_TRIGGER_S,
    RING_BUDGET,
    FlightRecorder,
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
    recorder = FlightRecorder(None)
    with mock.patch.object(flight, "RING_BUDGET", budget), \
            mock.patch.object(flight, "METRIC_SAMPLE_EVERY", rate):
        for t, kind in stream:
            recorder.feed(t, kind, {"value": 1})
            assert recorder.occupancy() <= recorder.ring_budget()
            for ring in recorder._rings.values():
                assert len(ring) <= budget
        metering = recorder.metering()
        assert metering["occupancy"] <= metering["ring_budget"]
    # Conservation per kind: what a ring holds is exactly what was
    # appended minus what was evicted.
    for kind in recorder.seen:
        held = len(recorder._rings.get(kind, ()))
        assert held == (
            recorder.retained.get(kind, 0) - recorder.evicted.get(kind, 0)
        )


@given(stream=event_streams())
@settings(max_examples=60)
def test_always_retained_kinds_are_never_sampled_out(stream):
    # fault./slo./span./invariant. stories must survive whole, however
    # loud the metric firehose around them.
    recorder = FlightRecorder(None)
    protected = [
        (t, kind.replace("client.", "fault.").replace("server.", "slo."))
        for t, kind in stream
    ]
    for t, kind in stream + protected:
        recorder.feed(t, kind, {})
    for kind, count in recorder.sampled_out.items():
        assert kind.startswith("metric."), (
            f"{kind} was sampled out {count} times"
        )
    metric = recorder.seen.get("metric.sample", 0)
    assert recorder.retained.get("metric.sample", 0) == (
        (metric + METRIC_SAMPLE_EVERY - 1) // METRIC_SAMPLE_EVERY
    )


def test_sampling_is_deterministic_in_the_stream():
    a, b = FlightRecorder(None), FlightRecorder(None)
    for i in range(50):
        a.feed(float(i), "metric.sample", {"i": i})
        b.feed(float(i), "metric.sample", {"i": i})
    assert [r for _, r in a._rings["metric.sample"]] == [
        r for _, r in b._rings["metric.sample"]
    ]
    assert a.sampled_out == b.sampled_out


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
    recorder = FlightRecorder(None)
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
    assert incident.window_start >= 10.0 - PRE_TRIGGER_S - 1e-9
    assert incident.window_end == 10.0 + POST_TRIGGER_S
    assert incident.n_breakdowns == 1
    b = incident.breakdowns[0]
    assert math.isclose(
        b["detect_s"] + b["agree_s"] + b["redistribute_s"], b["total_s"],
        rel_tol=0.0, abs_tol=1e-9,
    )
    assert math.isclose(b["detect_s"], 0.4, abs_tol=1e-9)
    assert incident.qoe["clients_hit"] == 1
    assert incident.chains


def test_window_stall_end_without_its_begin_hits_with_no_stall_time():
    recorder = FlightRecorder(None)
    # Begins before the pre-trigger window, so the window holds only
    # the end: c1 is hit, but the window charges it no stall.
    recorder.feed(1.0, "client.stall.begin", {"client": "c1"})
    recorder.feed(10.0, "server.crash", {"server": "s0"})
    recorder.feed(11.0, "client.stall.end", {"client": "c1@4"})
    qoe = recorder.finish(end_t=12.0)[0].qoe
    assert qoe["clients_hit"] == 1
    assert qoe["top"] == [{
        "client": "c1", "stalls": 0, "stall_s": 0.0, "migrations": 0,
        "resumes": 0, "rejects": 0, "penalty": 0.0,
    }]


def test_window_first_adoption_migrate_is_not_a_hit():
    recorder = FlightRecorder(None)
    recorder.feed(10.0, "server.crash", {"server": "s0"})
    recorder.feed(10.5, "client.migrate",
                  {"client": "c2", "from_server": "None", "to_server": "s1"})
    recorder.feed(11.0, "client.migrate",
                  {"client": "c3", "from_server": "s0", "to_server": "s1"})
    recorder.feed(11.5, "client.stall.begin", {"client": "c3"})
    qoe = recorder.finish(end_t=12.0)[0].qoe
    assert qoe["clients_hit"] == 1
    assert [item["client"] for item in qoe["top"]] == ["c3"]
    assert qoe["top"][0]["penalty"] == 3.0  # one stall, one handoff
    assert qoe["totals"]["stall_s"] == 0.5  # open until the window end


def test_overlapping_triggers_extend_one_incident():
    recorder = FlightRecorder(None)
    recorder.feed(10.0, "server.crash", {"server": "s0"})
    recorder.feed(12.0, "fault.fired", {"action": "Partition"})
    recorder.feed(30.0, "client.flow", {})  # closes at 12+5
    incidents = recorder.finish()
    assert len(incidents) == 1
    assert incidents[0].n_triggers == 2
    assert incidents[0].window_end == 12.0 + POST_TRIGGER_S


def test_post_deadline_trigger_opens_a_second_incident():
    recorder = FlightRecorder(None)
    recorder.feed(10.0, "server.crash", {"server": "s0"})
    # Beyond the deadline AND itself a trigger: the old capture closes
    # first, then this opens a new one.
    recorder.feed(20.0, "server.crash", {"server": "s1"})
    incidents = recorder.finish()
    assert [i.trigger_t for i in incidents] == [10.0, 20.0]
    assert incidents[0].window_end == 10.0 + POST_TRIGGER_S


def test_max_incidents_counts_dropped_triggers():
    recorder = FlightRecorder(None)
    for i in range(MAX_INCIDENTS + 3):
        recorder.feed(10.0 * (i + 1), "server.crash", {"server": f"s{i}"})
    incidents = recorder.finish()
    assert len(incidents) == MAX_INCIDENTS
    assert recorder.triggers_seen == MAX_INCIDENTS + 3
    assert recorder.triggers_dropped == 3


def test_finish_closes_open_capture_and_is_idempotent():
    recorder = FlightRecorder(None)
    recorder.feed(10.0, "server.crash", {"server": "s0"})
    assert recorder.open_trigger is not None
    first = recorder.finish(end_t=12.0)
    assert len(first) == 1
    assert first[0].window_end == 12.0
    assert recorder.open_trigger is None
    assert recorder.finish() is first


def test_abandoned_takeover_span_is_a_trigger():
    recorder = FlightRecorder(None)
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
    for i in range(RING_BUDGET + 100):
        recorder.feed(float(i), "client.flow", {"client": "c0", "level": i})
    metering = recorder.metering()
    assert metering["seen"]["client.flow"] == RING_BUDGET + 100
    assert metering["occupancy"] == RING_BUDGET == metering["ring_budget"]
    assert metering["evicted"] == {"client.flow": 100}
    assert metering["estimated_bytes"] > 0
    assert metering["incidents"] == 0
