"""Causal tracing: the failover chain reconstructs from the export.

The acceptance bar for the tracing layer: run the Figure 4 LAN crash
with telemetry on, then rebuild — from the JSONL artifact alone — the
full causal chain ``fault → GCS view change → take-over span → stream
resume``, and decompose the take-over into detection, agreement and
redistribution segments that sum to the span duration exactly.
"""

import dataclasses

import pytest

from repro.experiments.scenarios import LAN_SCENARIO, run_scenario
from repro.telemetry import (
    Telemetry,
    TraceGraph,
    critical_path,
    failover_breakdowns,
    load_timeline,
    render_breakdowns,
)

#: Short LAN run with a mid-run crash of the serving replica.
CRASH_SPEC = dataclasses.replace(
    LAN_SCENARIO,
    name="lan-causal",
    movie_duration_s=80.0,
    run_duration_s=80.0,
    schedule=((30.0, "crash-serving"),),
)


def trace_graph(path):
    return TraceGraph(load_timeline(path).events)


@pytest.fixture(scope="module")
def export_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("causal") / "crash.jsonl"
    run_scenario(CRASH_SPEC, telemetry_path=str(path))
    return str(path)


@pytest.fixture(scope="module")
def graph(export_path):
    return trace_graph(export_path)


def test_crash_mints_one_cause_chain(graph):
    causes = graph.causes()
    assert len(causes) == 1
    assert causes[0] == "fault.CrashServing#1"


def test_chain_spans_every_failover_stage(graph):
    chain = graph.chain("fault.CrashServing#1")
    kinds = set(chain.kinds)
    # The full event path the issue names, all tagged with one cause id:
    # control message -> view change -> take-over -> resume.
    assert "fault.fired" in kinds
    assert "server.crash" in kinds
    assert "gcs.fd.suspect" in kinds
    assert "gcs.view.install" in kinds
    assert "span.end" in kinds
    assert "server.session.start" in kinds
    assert "client.migrate" in kinds
    assert "client.resume" in kinds


def test_critical_path_is_time_ordered_and_complete(graph):
    chain = graph.chain("fault.CrashServing#1")
    path = critical_path(chain)
    kinds = [event["kind"] for event in path]
    assert kinds[0] == "fault.fired"
    assert "gcs.view.install" in kinds
    assert any(
        event.get("span") == "takeover" for event in path
        if event["kind"] in ("span.end", "span.abandoned")
    )
    assert kinds[-1] == "client.resume"
    times = [event["t"] for event in path]
    assert times == sorted(times)


def test_segments_sum_to_takeover_span_duration(graph, export_path):
    breakdowns = failover_breakdowns(graph)
    assert len(breakdowns) == 1
    item = breakdowns[0]
    assert item.cause == "fault.CrashServing#1"
    assert not item.abandoned
    assert item.crash_t == pytest.approx(30.0)
    # The three in-span segments partition the span exactly.
    assert item.detect_s + item.agree_s + item.redistribute_s == pytest.approx(
        item.total_s
    )
    assert min(item.detect_s, item.agree_s, item.redistribute_s) >= 0.0
    # ... and the total is the take-over span the timeline already knows.
    spans = [
        s for s in load_timeline(export_path).spans()
        if s["span"] == "takeover" and s["duration_s"] is not None
    ]
    assert item.total_s == pytest.approx(spans[0]["duration_s"])
    # The client-visible tail: first frame from the new server.
    assert item.resume_s is not None
    assert item.resume_s > 0.0


def test_render_breakdowns_mentions_cause_and_segments(graph):
    text = render_breakdowns(failover_breakdowns(graph))
    assert "fault.CrashServing#1" in text
    assert "detect" in text and "redistribute" in text


def test_cause_ids_are_deterministic(tmp_path, export_path):
    path = tmp_path / "again.jsonl"
    run_scenario(CRASH_SPEC, telemetry_path=str(path))
    again = trace_graph(str(path))
    first = trace_graph(export_path)
    assert again.causes() == first.causes()
    assert [
        (e["t"], e["kind"]) for e in again.chain("fault.CrashServing#1").events
    ] == [
        (e["t"], e["kind"]) for e in first.chain("fault.CrashServing#1").events
    ]


# ----------------------------------------------------------------------
# Bus-level causal primitives
# ----------------------------------------------------------------------
def test_new_cause_sequences_deterministically():
    tel = Telemetry()
    assert tel.new_cause("fault.Crash") == "fault.Crash#1"
    assert tel.new_cause("fault.Crash") == "fault.Crash#2"
    assert tel.new_cause("rebalance.server0") == "rebalance.server0#3"


def test_attribute_and_cause_for_with_ambient_fallback():
    tel = Telemetry()
    tel.attribute("node:3", "fault.Crash#1")
    assert tel.cause_for("node:3") == "fault.Crash#1"
    assert tel.cause_for("node:9") is None
    # Ambient cause backstops entities nobody attributed.
    tel.cause = "fault.Crash#2"
    assert tel.cause_for("node:9") == "fault.Crash#2"
    # ... but explicit attribution still wins.
    assert tel.cause_for("node:3") == "fault.Crash#1"
