"""The flight recorder end to end: scenarios, scale points and the
``postmortem`` experiment (its CI gate is judged in ``test_gate.py``).

The non-perturbation contract is asserted at a flyweight chaos point,
one process and one deployment: the same population under the same
seed must produce byte-identical outcomes with the recorder on or off
(``N20K=1`` in the environment runs the full 20 000-viewer version CI's
postmortem-smoke job uses; the default stays small so the tier-1 suite
is fast on one core).
"""

import json
import os

import pytest

from repro.experiments.api import ExperimentSpec, run
from repro.experiments.scale import run_scale_point


def _signature(point):
    return json.dumps(
        {
            "events": point.events,
            "frames": point.frames_delivered,
            "takeovers": point.takeovers,
            "failover_latencies": point.failover_latencies,
        },
        sort_keys=True,
    )


#: The chaos point: the most-loaded server crashes mid-run.
_N = 20_000 if os.environ.get("N20K") else 600
_POINT = dict(batch_window_s=1.0, duration_s=4.0, crash_at=2.0, seed=77)


def test_recorder_on_off_equivalence_at_flyweight_chaos_point():
    off = run_scale_point(_N, flyweight=True, **_POINT)
    on = run_scale_point(_N, flyweight=True, flight=True, **_POINT)
    assert _signature(off) == _signature(on)
    assert (on.unlisted, on.listed_twice, on.slo) == (
        off.unlisted, off.listed_twice, off.slo
    )
    assert len(on.incidents) >= 1
    assert off.incidents == [] and off.flight is None


def test_flyweight_incidents_carry_exact_breakdowns():
    point = run_scale_point(_N, flyweight=True, flight=True, **_POINT)
    breakdowns = 0
    for incident in point.incidents:
        for b in incident["breakdowns"]:
            breakdowns += 1
            assert abs(
                b["detect_s"] + b["agree_s"] + b["redistribute_s"]
                - b["total_s"]
            ) <= 1e-9
    assert breakdowns > 0


def test_flyweight_point_meters_within_budget():
    point = run_scale_point(_N, flyweight=True, flight=True, **_POINT)
    metering = point.flight
    assert metering["occupancy"] <= metering["ring_budget"]
    assert metering["capture_occupancy"] == 0
    assert metering["incidents"] == len(point.incidents) >= 1


def test_postmortem_experiment_scale_source(tmp_path):
    json_path = str(tmp_path / "incidents.json")
    result = run(ExperimentSpec(
        name="postmortem",
        params={"source": "scale", "n": _N, "duration": 4.0,
                "json": json_path},
    ))
    assert result.incidents
    rendered = result.render()
    assert "Failover critical path" in rendered
    assert "flight recorder:" in rendered
    with open(json_path) as fh:
        payload = json.load(fh)
    assert payload["incidents"] == result.incidents
    assert payload["metering"]["incidents"] == len(result.incidents)


def test_postmortem_experiment_export_replay(tmp_path):
    export = str(tmp_path / "run.jsonl.gz")
    run_scale_point(
        200, 1.0, duration_s=4.0, crash_at=2.0, seed=77,
        telemetry_path=export,
    )
    result = run(ExperimentSpec(
        name="postmortem", params={"export": export},
    ))
    assert result.incidents
    assert result.incidents[0]["trigger_kind"] == "server.crash"
    # Windowing past the crash leaves nothing to trigger on.
    quiet = run(ExperimentSpec(
        name="postmortem", params={"export": export, "since": 3.0},
    ))
    assert quiet.incidents == []
    assert "no incidents" in quiet.render()


def test_scenario_result_carries_incidents():
    from repro.experiments.scenarios import LAN_SCENARIO, run_scenario

    result = run_scenario(LAN_SCENARIO, flight=True)
    assert len(result.incidents) >= 1
    assert result.flight["incidents"] == len(result.incidents)
    for incident in result.incidents:
        for b in incident.breakdowns:
            assert abs(
                b["detect_s"] + b["agree_s"] + b["redistribute_s"]
                - b["total_s"]
            ) <= 1e-9


def test_runner_postmortem_cli(tmp_path, capsys):
    from repro.experiments.runner import main

    export = str(tmp_path / "run.jsonl")
    run_scale_point(
        200, 1.0, duration_s=4.0, crash_at=2.0, seed=77,
        telemetry_path=export,
    )
    assert main(["postmortem", "--from-export", export,
                 "--no-telemetry"]) == 0
    out = capsys.readouterr().out
    assert "incident#1" in out
    assert "server.crash" in out


@pytest.mark.parametrize("flag", ["--since", "--until"])
def test_runner_report_accepts_window_flags(tmp_path, capsys, flag):
    from repro.experiments.runner import main

    export = str(tmp_path / "run.jsonl")
    run_scale_point(
        200, 1.0, duration_s=4.0, crash_at=2.0, seed=77,
        telemetry_path=export,
    )
    assert main(["report", export, flag, "2.0"]) == 0
    assert "telemetry run" in capsys.readouterr().out
