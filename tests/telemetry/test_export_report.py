"""End-to-end: a takeover run's JSONL export reconstructs the timeline.

The acceptance bar for the telemetry subsystem: run the LAN crash
scenario with the exporter attached, then rebuild the whole story —
buffer levels, rate changes, view installs, the takeover span with its
latency — from the file alone, and render it via ``repro-vod report``.
"""

import dataclasses

import pytest

from repro.experiments.runner import main
from repro.experiments.scenarios import LAN_SCENARIO, run_scenario
from repro.telemetry import SCHEMA_VERSION, load_timeline, read_jsonl, render_report

#: Short LAN run: crash of the serving server at 30 s forces a takeover.
TAKEOVER_SPEC = dataclasses.replace(
    LAN_SCENARIO,
    name="lan-takeover-telemetry",
    movie_duration_s=80.0,
    run_duration_s=80.0,
    schedule=((30.0, "crash-serving"),),
)


@pytest.fixture(scope="module")
def export_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("telemetry") / "takeover.jsonl"
    result = run_scenario(TAKEOVER_SPEC, telemetry_path=str(path))
    assert result.telemetry_path == str(path)
    return str(path)


def test_export_structure(export_path):
    records = read_jsonl(export_path)
    assert records[0]["kind"] == "meta"
    assert records[0]["schema"] == SCHEMA_VERSION
    assert records[0]["scenario"] == "lan-takeover-telemetry"
    assert records[-1]["kind"] == "summary"
    events = records[1:-1]
    assert records[-1]["events_written"] == len(events)
    assert all("t" in event for event in events)
    times = [event["t"] for event in events]
    assert times == sorted(times)  # virtual time is monotone


def test_export_reconstructs_session_timeline(export_path):
    events = read_jsonl(export_path)[1:-1]
    kinds = {event["kind"] for event in events}
    # Every layer shows up.
    assert "fault.fired" in kinds          # faulting
    assert "gcs.view.install" in kinds     # GCS membership
    assert "server.session.start" in kinds  # server
    assert "server.rate" in kinds          # flow control at the server
    assert "client.flow" in kinds          # client control traffic
    assert "client.watermark" in kinds     # buffer-level crossings
    assert "metric.sample" in kinds        # sampled buffer series

    starts = [e for e in events if e["kind"] == "server.session.start"]
    assert any(not start["takeover"] for start in starts)  # initial admit
    takeover_starts = [start for start in starts if start["takeover"]]
    assert takeover_starts, "crash at 30 s must produce a takeover admit"
    assert all(start["t"] > 30.0 for start in takeover_starts)

    crashes = [e for e in events if e["kind"] == "server.crash"]
    assert len(crashes) == 1 and crashes[0]["t"] == pytest.approx(30.0)

    samples = [e for e in events if e["kind"] == "metric.sample"]
    assert {s["series"] for s in samples} >= {
        "software_buffer_frames", "hardware_buffer_bytes",
    }


def test_takeover_span_has_latency(export_path):
    timeline = load_timeline(str(export_path))
    spans = [s for s in timeline.spans() if s["span"] == "takeover"]
    assert spans, "the crash must open a takeover span"
    finished = [s for s in spans if s["duration_s"] is not None]
    assert finished, "the adopting server must close the takeover span"
    span = finished[0]
    assert span["start"] == pytest.approx(30.0)
    assert 0.0 < span["duration_s"] < 10.0
    # The span latency also lands in the metric registry snapshot.
    hist = timeline.summary["metrics"]["takeover.latency_s"]
    assert hist["count"] == len(finished)
    assert hist["mean"] == pytest.approx(
        sum(s["duration_s"] for s in finished) / len(finished), rel=1e-6
    )


def test_render_report_sections(export_path):
    text = render_report(load_timeline(str(export_path)))
    assert "telemetry run" in text
    assert "scenario=lan-takeover-telemetry" in text
    assert "Event counts" in text
    assert "Timeline" in text
    assert "Spans" in text
    assert "takeover" in text
    assert "Sampled series" in text
    assert "software_buffer_frames" in text
    assert "events_written=" in text


@pytest.mark.parametrize("window", [{"until": 30.0}, {"since": 30.0}])
def test_a_time_filtered_read_judges_no_slo_rule(export_path, window):
    # The rules' windows span the whole run: a cut read cannot judge
    # them, so the report says so instead of printing a table.
    assert "SLO rules" in render_report(load_timeline(export_path))
    text = render_report(load_timeline(export_path, **window))
    assert "SLO rules" not in text
    assert "slo: rules not judged on a time-filtered read" in text
    assert "Timeline" in text  # the rest of the report is unchanged


def test_report_truncation_note(export_path):
    text = render_report(load_timeline(str(export_path)), max_rows=5)
    assert "more (raise --max-rows)" in text


def test_exporter_context_manager_flushes_summary_on_crash(tmp_path):
    from repro.telemetry import JsonlExporter, Telemetry

    now = [0.0]
    tel = Telemetry(clock=lambda: now[0])
    path = tmp_path / "crashed.jsonl"
    with pytest.raises(RuntimeError, match="mid-run"):
        with JsonlExporter(tel, str(path)) as exporter:
            exporter.meta(scenario="doomed", seed=1)
            tel.span("takeover", key="client0")
            now[0] = 3.0
            tel.emit("fault.fired", action="CrashServing")
            raise RuntimeError("mid-run failure")

    records = read_jsonl(str(path))
    summary = records[-1]
    assert summary["kind"] == "summary"
    assert summary["crashed"] is True
    assert summary["error"] == "RuntimeError: mid-run failure"
    assert summary["open_spans"] == [
        {"span": "takeover", "key": "client0", "start": 0.0}
    ]
    # The abandoned span's event made it into the file before detach.
    abandoned = [r for r in records if r.get("kind") == "span.abandoned"]
    assert len(abandoned) == 1
    assert abandoned[0]["duration_s"] == pytest.approx(3.0)

    # An explicit close beats __exit__; the context manager then no-ops.
    clean = tmp_path / "clean.jsonl"
    with JsonlExporter(tel, str(clean)) as exporter:
        exporter.close(done=True)
    assert read_jsonl(str(clean))[-1]["done"] is True


def test_run_cut_short_abandons_the_session_span(tmp_path):
    spec = dataclasses.replace(
        LAN_SCENARIO, name="lan-cut-short",
        movie_duration_s=240.0, run_duration_s=40.0,
    )
    path = tmp_path / "short.jsonl"
    run_scenario(spec, telemetry_path=str(path))
    timeline = load_timeline(str(path))
    sessions = [s for s in timeline.spans() if s["span"] == "client.session"]
    assert sessions and all(s["abandoned"] for s in sessions)
    assert sessions[0]["duration_s"] == pytest.approx(40.0)
    assert timeline.summary["open_spans"]
    assert "(abandoned)" in render_report(timeline)


def test_report_handles_empty_and_meta_only_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    text = render_report(load_timeline(str(empty)))
    assert "(empty export)" in text

    from repro.telemetry import JsonlExporter, Telemetry

    meta_only = tmp_path / "meta.jsonl"
    exporter = JsonlExporter(Telemetry(), str(meta_only))
    exporter.meta(scenario="aborted", seed=3)
    exporter.close()
    text = render_report(load_timeline(str(meta_only)))
    assert "no events recorded (meta-only export)" in text
    assert "scenario=aborted" in text
    assert "events_written=0" in text


def test_cli_trace_then_report(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert main(["trace", "--scenario", "lan", "--duration", "45",
                 "--out", str(out)]) == 0
    trace_output = capsys.readouterr().out
    assert f"telemetry written to {out}" in trace_output
    assert "displayed=" in trace_output

    assert main(["report", str(out)]) == 0
    report_output = capsys.readouterr().out
    assert "Event counts" in report_output
    assert "Timeline" in report_output


def _crash_scenario(path):
    run_scenario(
        dataclasses.replace(TAKEOVER_SPEC, run_duration_s=8.0),
        telemetry_path=path,
    )


def _crash_chaos_trial(path):
    from repro.faulting.chaos import run_chaos_trial

    run_chaos_trial(seed=1000, duration_s=60.0, telemetry_path=path)


def _crash_scale_point(path):
    from repro.experiments.scale import run_scale_point

    run_scale_point(20, duration_s=8.0, telemetry_path=path)


def _crash_strategy(path):
    from repro.experiments.placement import run_strategy

    run_strategy(
        "static", seed=11, n_titles=6, n_clients=3, n_flash=1,
        duration_s=8.0, telemetry_path=path,
    )


@pytest.mark.parametrize(
    "produce",
    [_crash_scenario, _crash_chaos_trial, _crash_scale_point, _crash_strategy],
    ids=["run_scenario", "run_chaos_trial", "run_scale_point", "run_strategy"],
)
def test_every_producer_leaves_a_trailer_when_the_run_raises(
    produce, tmp_path, monkeypatch
):
    """A crashed experiment still leaves a readable artifact: whichever
    producer opened the export, its last record is the summary, marked
    ``crashed`` and naming the exception."""
    from repro.sim.core import Simulator

    real_run_until = Simulator.run_until

    def run_until_then_raise(self, until, *args, **kwargs):
        real_run_until(self, min(until, 3.0), *args, **kwargs)
        raise RuntimeError("kernel fell over at t=3")

    monkeypatch.setattr(Simulator, "run_until", run_until_then_raise)
    path = str(tmp_path / "crashed.jsonl")
    with pytest.raises(RuntimeError, match="fell over"):
        produce(path)

    records = read_jsonl(path)
    assert records[0]["kind"] == "meta"
    assert len(records) > 2  # the events before the crash were written
    summary = records[-1]
    assert summary["kind"] == "summary"
    assert summary["crashed"] is True
    assert summary["error"] == "RuntimeError: kernel fell over at t=3"


@pytest.fixture(scope="module")
def lan_exports(tmp_path_factory):
    """A 45 s LAN trace, plain and gzipped."""
    directory = tmp_path_factory.mktemp("cut")
    spec = dataclasses.replace(LAN_SCENARIO, run_duration_s=45.0)
    paths = {}
    for suffix in (".jsonl", ".jsonl.gz"):
        paths[suffix] = str(directory / f"lan{suffix}")
        run_scenario(spec, telemetry_path=paths[suffix])
    return paths


@pytest.mark.parametrize("command", ["report", "postmortem"])
@pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
def test_a_cut_off_export_still_reads(lan_exports, tmp_path, capsys, suffix, command):
    """A run killed mid-write leaves a file cut anywhere: a plain file at
    half its size, a gzip stream before its end-of-stream marker.  Both
    keep the records before the cut."""
    data = open(lan_exports[suffix], "rb").read()
    cut = str(tmp_path / f"cut{suffix}")
    with open(cut, "wb") as handle:
        handle.write(data[: len(data) // 2 if suffix == ".jsonl" else 5000])
    assert len(read_jsonl(cut)) > 100
    argv = (
        ["report", cut]
        if command == "report"
        else ["postmortem", "--from-export", cut, "--no-telemetry"]
    )
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("damage", ["missing", "mid-file garbage", "truncated last line"])
@pytest.mark.parametrize("command", ["report", "postmortem"])
def test_a_bad_export_is_one_error_line_not_a_traceback(
    lan_exports, tmp_path, capsys, command, damage
):
    """Only a cut-off last line is forgiven (the records before it still
    render); a missing file or a bad line with lines after it is a
    :class:`ServiceError`, printed as one line with a non-zero exit."""
    lines = open(lan_exports[".jsonl"]).read().splitlines(keepends=True)
    path = str(tmp_path / "damaged.jsonl")
    if damage == "mid-file garbage":
        lines.insert(10, "garbage\n")
    elif damage == "truncated last line":
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
    if damage != "missing":
        with open(path, "w") as handle:
            handle.writelines(lines)
    argv = (
        ["report", path]
        if command == "report"
        else ["postmortem", "--from-export", path, "--no-telemetry"]
    )
    status = main(argv)
    out, err = capsys.readouterr()
    if damage == "truncated last line":
        assert status == 0 and err == ""
        assert ("Event counts" if command == "report" else "incident#1") in out
        return
    assert status == 2 and out == ""
    (line,) = err.splitlines()
    where = f"{path}:11:" if damage == "mid-file garbage" else path
    assert line.startswith("repro-vod: error: ") and where in line
