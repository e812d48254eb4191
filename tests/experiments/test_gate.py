"""The one CI gate (``repro.experiments.gate``): every table row judged.

The real workloads run in CI; here each gate's table is exercised on a
measurement synthesised from its committed baseline: (a) it passes,
(b) every row fails alone when its value leaves the tolerance and holds
inside it, (c) relations are strict, (d) missing values and unreadable
measurements are ``FAIL`` lines rather than tracebacks, and a bad
baseline is one ``error:`` line, (e) ``main`` exits 0/1/2.  The
postmortem gate has no baseline, so its measurement is a small
hand-built one plus a real run at test scale; the paper gate's
baseline holds claims, not a measurement, so its measurement is a
recorded ``artifacts/BENCH_paper.json`` plus one real run of the whole
gate.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.experiments.gate import (
    GATES,
    MISSING,
    REGRESS_REL,
    _lookup,
    _select,
    check,
    judge,
    load_baseline,
    main,
    measure_paper,
    measure_postmortem,
)
from repro.experiments.matrix import run_faceoff

ROOT = Path(__file__).resolve().parents[2]

_SIGNATURE = {
    "events": 9000, "frames": 120000, "takeovers": 200,
    "failover_latencies": [0.41, 0.43],
}
_INCIDENT = {
    "id": "incident#1",
    "breakdowns": [{
        "client": "c7", "detect_s": 0.25, "agree_s": 0.125,
        "redistribute_s": 0.0625, "total_s": 0.4375,
    }],
}
_METERING = {
    "occupancy": 950, "ring_budget": 4608, "capture_occupancy": 0,
    "estimated_bytes": 497664,
}
POSTMORTEM = {
    "n": 600,
    "signatures": {"recorder_off": _SIGNATURE, "recorder_on": _SIGNATURE},
    "incidents": {"flyweight": [_INCIDENT]},
    "metering": {"flyweight": dict(_METERING)},
    "report": "1 incident(s)\nFailover critical path (detect + agree + ...)",
}
#: What a flyweight point adds to a scale baseline's values.
_LISTED_ONCE = dict(
    unlisted=0, listed_twice=0,
    slo={"failover_p99_s": {"ok": True, "value": 0.5},
         "glitch_free_fraction": {"ok": True, "value": 1.0}},
)


def passing(name):
    """A (measured, baseline) pair that passes gate ``name``, synthesised
    from the committed baseline."""
    if name == "postmortem":
        return copy.deepcopy(POSTMORTEM), {}
    baseline = json.loads((ROOT / GATES[name].baseline).read_text())
    if name == "paper":
        return json.loads((ROOT / "tests/data/BENCH_paper.json").read_text()), baseline
    if name == "scale":
        point = dict(baseline, mode="flyweight", **copy.deepcopy(_LISTED_ONCE))
        return {"points": [point]}, baseline
    return copy.deepcopy(baseline), baseline


_DELETE = object()


def _put(tree, path, value):
    *parents, leaf = path.split(".")
    for step in parents:
        tree = tree[step]
    if value is _DELETE:
        del tree[leaf]
    else:
        tree[leaf] = value


def _target(name, index, measured, baseline):
    """The first value row ``index`` of gate ``name`` judges: the row,
    its failure-line location, and live references into both files."""
    row = GATES[name].rows[index]
    label, got, want = _select(row.scope, measured, baseline)[0]
    path, x = _lookup(got, row.metric)[0]
    where = ".".join(part for part in (label, path) if part)
    return row, where, got, want, path, x


def _perturbed(row, x, want, path, measured, baseline):
    """(failing value, passing value, baseline moves along) for a row."""
    kind, ref, tol = row.kind, row.ref, baseline.get("tolerances", {})
    if kind == "rel":
        base = _lookup(want, path)[0][1]
        return base * (1 + 2 * tol[ref]), base * (1 + tol[ref] / 2), False
    if kind == "exact":
        if isinstance(x, list):
            return x[::-1], x, False
        return (x + 1 if isinstance(x, (int, float)) else x + "?"), x, False
    if kind == "at_least_baseline":
        return x - 1, x + 1, False
    if kind == "regress":
        sign = 1 if ref[0] == "higher" else -1
        margin = max(REGRESS_REL * abs(x), ref[1])
        return x + sign * 1.5 * margin, x + sign * 0.5 * margin, False
    # The remaining kinds ignore the baseline value, so it moves along
    # with the measurement and only the row under test can fire.
    if kind in ("floor", "ceiling"):
        bound = tol[ref] if isinstance(ref, str) else ref
        return (bound - 1 if kind == "floor" else bound + 1), bound, True
    if kind == "zero":
        return 1, 0, True
    if kind == "is_true":
        return False, True, True
    if kind == "relation":
        other = _lookup(measured, ref)[0][1]
        return other, other + 1e-6, True  # equality must fail: strict
    def with_total_off_by(eps):
        return [
            dict(i, breakdowns=[dict(b, total_s=b["total_s"] + eps)
                                for b in i["breakdowns"]])
            for i in x
        ]

    return {
        "_same_as_recorder_off": lambda: (dict(x, events=x["events"] + 1), x),
        "_within_ring_budget": lambda: (
            dict(x, occupancy=x["ring_budget"] + 1),
            dict(x, occupancy=x["ring_budget"]),
        ),
        "_has_critical_path": lambda: ("1 incident(s), no tables", x),
        "_breakdowns_exact": lambda: (
            with_total_off_by(1e-6), with_total_off_by(1e-12)
        ),
    }[kind.__name__]() + (False,)


ROWS = [
    pytest.param(
        name, index,
        id=f"{name}-{row.metric}-{getattr(row.kind, '__name__', row.kind)}",
    )
    for name, gate in GATES.items()
    for index, row in enumerate(gate.rows)
]


@pytest.mark.parametrize("name", list(GATES))
def test_committed_baseline_passes_its_own_gate(name):
    assert judge(name, *passing(name)) == []


def test_the_million_viewer_baseline_passes_the_scale_gate():
    """CI's one-process N = 1 000 000 job judges its run with the scale
    gate's rows against ``BENCH_scale_million.json``."""
    baseline = json.loads((ROOT / "benchmarks/BENCH_scale_million.json").read_text())
    assert baseline["n_clients"] == 1_000_000
    assert baseline["tolerances"]["failover_ceiling_s"] <= 2.0
    measured = {"points": [dict(baseline, mode="flyweight", **_LISTED_ONCE)]}
    assert judge("scale", measured, baseline) == []
    measured["points"][0]["unlisted"] = 1
    (line,) = judge("scale", measured, baseline)
    assert line.startswith("FAIL scale flyweight[n_clients=1000000].unlisted:")


@pytest.mark.parametrize("name, index", ROWS)
def test_each_row_fails_alone_past_its_tolerance_and_holds_inside(name, index):
    for outcome in ("fail", "pass"):
        measured, baseline = passing(name)
        row, where, got, want, path, x = _target(name, index, measured, baseline)
        bad, good, moves = _perturbed(row, x, want, path, measured, baseline)
        value = bad if outcome == "fail" else good
        _put(got, path, value)
        if moves and _lookup(want, path)[0][1] is not MISSING:
            _put(want, path, value)
        failures = judge(name, measured, baseline)
        if outcome == "pass":
            assert failures == []
            continue
        assert len(failures) == 1, failures
        assert failures[0].startswith(f"FAIL {name} {where}: measured ")
        assert failures[0].endswith(f" — {row.why}")


@pytest.mark.parametrize("name, index", ROWS)
def test_a_missing_metric_fails_loudly(name, index):
    measured, baseline = passing(name)
    row, where, got, _want, path, _x = _target(name, index, measured, baseline)
    if "*" in row.metric:  # a fan-out only goes missing with its parent
        where = where[: -len(path)] + row.metric
        _put(got, row.metric.split(".*")[0], _DELETE)
    else:
        _put(got, path, _DELETE)
    failures = judge(name, measured, baseline)
    assert f"FAIL {name} {where}: missing from measurement" in failures
    assert all("missing from" in line for line in failures)


def test_a_missing_metric_is_reported_once_however_many_rows_judge_it():
    measured, baseline = passing("matrix")
    cell = next(iter(baseline["cells"]))
    del measured["cells"][cell]["qoe_mean"]  # judged by a band and a floor
    assert judge("matrix", measured, baseline) == [
        f"FAIL matrix {cell}.qoe_mean: missing from measurement"
    ]


@pytest.mark.parametrize("name, drop", [
    ("scale", lambda m: m["points"][0].update(mode="batched")),
    ("matrix", lambda m: m["cells"].pop(next(iter(m["cells"])))),
    ("placement", lambda m: m["strategies"].pop("markov")),
])
def test_a_baseline_row_missing_from_the_run_fails(name, drop):
    measured, baseline = passing(name)
    drop(measured)
    failures = judge(name, measured, baseline)
    assert failures and all(
        line.startswith(f"FAIL {name} ") and "missing from" in line
        for line in failures
    )


def test_missing_faceoff_and_empty_incidents_fail():
    measured, baseline = passing("matrix")
    del measured["faceoff"]["reject"]
    (line,) = judge("matrix", measured, baseline)
    assert "faceoff.reject.qoe_p10, which is missing" in line
    measured, _ = passing("postmortem")
    measured["incidents"]["flyweight"] = []
    (line,) = judge("postmortem", measured, {})
    assert line.startswith("FAIL postmortem incidents.flyweight: measured []")
    measured["incidents"]["flyweight"] = [dict(_INCIDENT, breakdowns=[])]
    assert len(judge("postmortem", measured, {})) == 1


def test_qoe_regress_is_one_sided_with_an_absolute_slack():
    measured, baseline = passing("qoe")
    baseline["metrics"].update(failover_p50_s=0.43, qoe_mean_score=96.0)

    def verdict(**metrics):
        measured["metrics"].update(
            {"failover_p50_s": 0.43, "qoe_mean_score": 96.0, **metrics}
        )
        return judge("qoe", measured, baseline)

    # +0.01 s on a 0.43 s failover is inside the 0.05 s slack; +0.12 s is not.
    assert verdict(failover_p50_s=0.44) == []
    assert len(verdict(failover_p50_s=0.55)) == 1
    assert len(verdict(qoe_mean_score=80.0)) == 1
    # Improvements never fail the gate, however large.
    assert verdict(failover_p50_s=0.0, qoe_mean_score=99.9) == []


def test_a_malformed_value_is_a_failure_line_not_a_traceback():
    measured, baseline = passing("scale")
    measured["points"][0]["events"] = "many"
    (line,) = judge("scale", measured, baseline)
    assert line.startswith("FAIL scale flyweight[n_clients=20000].events:")
    assert "malformed input" in line
    del baseline["tolerances"]["frames_rel"]
    assert any("frames_rel, which is missing" in line
               for line in judge("scale", measured, baseline))


@pytest.mark.parametrize("content", [None, '{"points": [{"mode": "fly', "[1, 2]"])
def test_an_unreadable_measurement_is_a_failure_line(tmp_path, capsys, content):
    path = tmp_path / "measured.json"
    if content is not None:
        path.write_text(content)
    baseline = load_baseline("scale", str(ROOT / GATES["scale"].baseline))
    (line,) = check("scale", str(path), baseline)
    assert line.startswith(f"FAIL scale unreadable: {path}")
    assert main(["scale", str(path)]) == 1
    assert f"FAIL scale unreadable: {path}" in capsys.readouterr().out


@pytest.mark.parametrize("baseline, problem", [
    (None, "No such file"),
    ('{"n_clients": 20', "Expecting"),
    ("[1, 2]", "not a JSON object"),
    ('{"schema": 99}', '"n_clients"'),
])
def test_a_bad_baseline_is_a_usage_error_naming_it(tmp_path, capsys, baseline, problem):
    """A broken baseline is the caller's mistake, not a broken run: both
    entry points print one ``error:`` line naming the file (and the key a
    row's scope selects on), and exit 2 — never a ``FAIL`` blaming the
    measurement."""
    from repro.experiments.runner import main as repro_vod

    measured = tmp_path / "measured.json"
    measured.write_text(json.dumps(passing("scale")[0]))
    path = tmp_path / "baseline.json"
    if baseline is not None:
        path.write_text(baseline)
    for entry in (main, lambda argv: repro_vod(["gate", *argv])):
        assert entry(["scale", str(measured), str(path)]) == 2
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert line.startswith(f"error: baseline {path}")
        assert problem in line


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    measured, _ = passing("placement")
    path = tmp_path / "placement.json"
    path.write_text(json.dumps(measured))
    assert main(["placement", str(path)]) == 0
    assert "placement gate passed" in capsys.readouterr().out
    measured["strategies"]["static"]["violations"] = 3
    path.write_text(json.dumps(measured))
    assert main(["placement", str(path)]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].startswith(
        "FAIL placement static.violations: measured 3, expected zero — "
    )
    # An explicit baseline overrides the committed one.
    assert main(["placement", str(path), str(path)]) == 1
    for usage_error in ([], ["nonesuch"], ["scale"], ["qoe", "a", "b", "c"]):
        assert main(usage_error) == 2


def test_repro_vod_gate_subcommand(tmp_path, capsys, monkeypatch):
    from repro.experiments.runner import main as repro_vod

    monkeypatch.chdir(ROOT)
    assert repro_vod(["gate", "matrix", GATES["matrix"].baseline]) == 0
    assert "matrix gate passed" in capsys.readouterr().out


def test_postmortem_gate_measures_then_passes_at_test_scale(
    tmp_path, capsys, monkeypatch
):
    """The self-measuring path end to end: run the chaos point with the
    recorder off and on, write ``artifacts/BENCH_postmortem.json``, judge
    the file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(
        GATES, "postmortem",
        GATES["postmortem"]._replace(measure=lambda: measure_postmortem(600)),
    )
    assert main(["postmortem"]) == 0, capsys.readouterr().out
    written = json.loads((tmp_path / "artifacts/BENCH_postmortem.json").read_text())
    assert written["n"] == 600 and list(written["metering"]) == ["flyweight"]
    assert judge("postmortem", written) == []


def _differing_paths(measured, recorded, path=""):
    """Every dotted path at which two JSON values differ."""
    if isinstance(measured, dict) and isinstance(recorded, dict):
        return [
            found
            for key in sorted(set(measured) | set(recorded))
            for found in (
                _differing_paths(measured[key], recorded[key], f"{path}.{key}")
                if key in measured and key in recorded
                else [f"{path}.{key}"]
            )
        ]
    if (
        isinstance(measured, list)
        and isinstance(recorded, list)
        and len(measured) == len(recorded)
    ):
        return [
            found
            for index, (a, b) in enumerate(zip(measured, recorded))
            for found in _differing_paths(a, b, f"{path}[{index}]")
        ]
    return [] if measured == recorded else [path or "."]


def test_the_paper_gate_measures_then_passes():
    """Every claim of EXPERIMENTS.md, measured on this tree: the whole
    gate, as CI's ``paper-claims`` job runs it.  The measurement must
    also equal the recorded ``tests/data/BENCH_paper.json`` exactly, so
    a refactor that moves any outcome of any experiment fails here and
    names where."""
    baseline = json.loads((ROOT / GATES["paper"].baseline).read_text())
    measured = json.loads(json.dumps(measure_paper(), default=str))
    assert judge("paper", measured, baseline) == []
    recorded = json.loads((ROOT / "tests/data/BENCH_paper.json").read_text())
    assert _differing_paths(measured, recorded) == []


def test_the_admission_faceoff_equals_its_matrix_baseline():
    """The reject-vs-degrade faceoff, run on this tree, equals the
    ``faceoff`` block of ``benchmarks/BENCH_matrix_baseline.json``
    exactly, where the matrix gate only holds it within tolerances.  It
    pins both admission actions and the storm rule's inputs."""
    baseline = json.loads((ROOT / GATES["matrix"].baseline).read_text())
    measured = json.loads(json.dumps(run_faceoff()))
    assert _differing_paths(measured, baseline["faceoff"]) == []
