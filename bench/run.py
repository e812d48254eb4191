"""The repo's one benchmark: four workloads, end to end and per layer.

Two ways to run it, both from the repository root:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, the way the benchmark driver calls it.  The last line
    of standard output is one JSON object: ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
    the per-layer metrics with ``--trace 1``).

``python3 bench/run.py [--seed N] [--aa]``
    Every workload, timed repetitions then a traced repetition, printed
    as tables with every correctness check, and written with the run
    manifest to ``artifacts/bench/BENCH.json``.  ``--aa`` runs all of it
    twice and judges the second set against the first with the bounds
    in ``BENCHMARK.json``.

Every repetition is a fresh child interpreter (``rep.py``), run one at
a time.  Timings are in calibrated seconds (``calibrate.py``); what the
simulated service did is exact for a fixed seed and is checked, not
timed.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The script's own directory must not shadow stdlib modules (``trace``).
sys.path[0] = ROOT

from bench import calibrate  # noqa: E402
from bench.trace import LAYERS  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

ARTIFACTS = os.path.join(ROOT, "artifacts", "bench")

#: Timed repetitions per workload: as many as fit ``--seconds`` of
#: measured wall, never fewer than MIN_REPS (the medians need three).
MIN_REPS = 3
MAX_REPS = 9
#: Set-up-only children per workload, on top of the timed repetitions.
EXTRA_SETUPS = 4
#: A child that runs longer than this is killed and the run fails.
REP_TIMEOUT_S = 150

#: End-to-end metrics that are facts of the simulation, not timings:
#: exact for a fixed seed, so two runs of one seed must agree exactly.
DETERMINISTIC = ("recovered_ratio", "frames_delivered")
#: ``--aa`` compares two runs of one seed, so the seed-to-seed share of
#: a bound (``fly20k_crash`` does 361k-418k events depending on the
#: seed) does not apply: same-seed timings must agree this closely.
SAME_SEED_BOUND = 0.10
#: ... except that a set-up of a fifth of a second may always move by
#: this much: it is one import and one rig build, timed once per child.
SETUP_FLOOR_S = 0.05
#: Workloads on which the paper's claim is asserted, not just reported.
SCALE_RIGS = ("fly20k_crash", "full400_crash")


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed check)."""


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def run_rep(
    workload: str, seed: int, trace: bool = False, setup_only: bool = False
) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its report."""
    command = [
        sys.executable, os.path.join(BENCH_DIR, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command += [
            "--trace-out", os.path.join(ARTIFACTS, f"{workload}.trace.json")
        ]
    # A fixed hash seed keeps set/dict iteration — and with it the cache
    # behaviour of a repetition — the same from child to child.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetition exceeded {REP_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(
            f"{workload}: repetition exited {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def timed_reps(
    workload: str, seed: int, seconds: float
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Untraced repetitions until ``seconds`` of wall are spent, then
    ``EXTRA_SETUPS`` set-up-only children (more samples for ``setup_s``)."""
    reps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(reps) < MAX_REPS:
        reps.append(run_rep(workload, seed))
        if len(reps) >= MIN_REPS and time.perf_counter() - started >= seconds:
            break
    setups = [run_rep(workload, seed, setup_only=True) for _ in range(EXTRA_SETUPS)]
    return reps, setups


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
@dataclasses.dataclass
class WorkloadRun:
    """Everything measured for one workload."""

    workload: str
    reps: List[Dict[str, Any]]  # untraced repetitions
    setups: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    values: Dict[str, float] = dataclasses.field(default_factory=dict)
    spread: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)
    failures: List[str] = dataclasses.field(default_factory=list)
    layer_values: Optional[Dict[str, float]] = None

    @property
    def facts(self) -> Dict[str, Any]:
        return self.reps[0]["outcome"]

    @property
    def chunk_ns(self) -> List[float]:
        return [ns for rep in self.reps + self.setups for ns in rep["chunk_ns"]]


def measure(workload: str, seed: int, seconds: Optional[float]) -> WorkloadRun:
    """The timed (untraced) repetitions of one workload; with
    ``seconds=None`` a single repetition (a traced run's baseline)."""
    if seconds is None:
        run = WorkloadRun(workload, [run_rep(workload, seed)])
    else:
        run = WorkloadRun(workload, *timed_reps(workload, seed, seconds))
    end_to_end(run)
    return run


def end_to_end(run: WorkloadRun) -> None:
    """Fill in the end-to-end values, their spread and the failed checks."""
    workload, reps = run.workload, run.reps
    spec = WORKLOADS[workload]
    first = run.facts
    if any(rep["outcome"]["outcome_digest"] != first["outcome_digest"] for rep in reps):
        run.failures.append(f"{workload}: outcome_digest differs between repetitions")
    if any(rep["events"] != reps[0]["events"] for rep in reps):
        run.failures.append(f"{workload}: sim.events differs between repetitions")
    run.failures += outcome_checks(workload, first)

    quiet = calibrate.quiet_chunk_ns(run.chunk_ns)
    slice_runs = [rep["slice_ns"] for rep in reps]
    run_cal = calibrate.run_cal_s(slice_runs, quiet)
    run.spread = {
        "setup_s": calibrate.quartiles([
            calibrate.calibrated_s(rep["setup_ns"], quiet)
            for rep in reps + run.setups
        ]),
        # Whole repetitions, for the reader: the reported run_cal_s takes
        # the fastest repetition slice by slice, so it sits at or below q1.
        "run_cal_s": calibrate.quartiles([
            calibrate.calibrated_s(sum(walls), quiet) for walls in slice_runs
        ]),
        "peak_rss_mb": calibrate.quartiles([rep["peak_rss_mb"] for rep in reps]),
    }
    run.values = {
        "setup_s": run.spread["setup_s"]["median"],
        "run_cal_s": run_cal,
        "viewer_s_per_s": spec.n_viewers * spec.duration_s / run_cal,
        "peak_rss_mb": run.spread["peak_rss_mb"]["median"],
    }
    for name in DETERMINISTIC:
        run.values[name] = first[name]


def outcome_checks(workload: str, facts: Dict[str, Any]) -> List[str]:
    """Correctness of one repetition's simulated outcome."""
    failures = []
    if not facts["victims"]:
        return [f"{workload}: the crash had no victims"]
    if facts["recovered_ratio"] != 1.0:
        failures.append(
            f"{workload}: recovered_ratio = {facts['recovered_ratio']:.4f} "
            f"of {facts['victims']} victims served again by run end"
        )
    if workload in SCALE_RIGS and facts["failover_max_s"] > 1.0:
        failures.append(
            f"{workload}: failover_max_s = {facts['failover_max_s']} > 1.0 s"
        )
    if facts.get("rig_observer_agrees") is False:
        failures.append(
            f"{workload}: failover probe disagrees with the rig's observer"
        )
    if facts["ops_failed"]:
        failures.append(
            f"{workload}: ops_failed = {facts['ops_failed']} of "
            f"{facts['ops_attempted']}"
        )
    return failures


def measure_traced(
    run: WorkloadRun, seed: int, lossy: Optional[WorkloadRun] = None
) -> None:
    """Add the traced repetition's per-layer metrics to ``run``.

    ``lossy`` is the ``wan8_lossy`` run that ``wan8_observed`` is read
    against: observers must cost time and change nothing else.
    """
    workload = run.workload
    baseline = run.reps[0]
    baseline_run_cal_s = run.values["run_cal_s"]
    traced = run_rep(workload, seed, trace=True)
    facts = traced["outcome"]
    if facts["outcome_digest"] != baseline["outcome"]["outcome_digest"]:
        run.failures.append(f"{workload}: tracing changed outcome_digest")
    if traced["events"] != baseline["events"]:
        run.failures.append(
            f"{workload}: tracing changed sim.events "
            f"({traced['events']} vs {baseline['events']})"
        )
    if traced["leaked_wrappers"]:
        run.failures.append(
            f"{workload}: wrappers not restored after tracing: "
            + ", ".join(traced["leaked_wrappers"][:5])
        )

    # The chunk is not wrapped, so the traced child's own chunks say how
    # fast the box was while it ran.
    quiet = calibrate.quiet_chunk_ns(traced["chunk_ns"])
    traced_wall_ns = sum(traced["slice_ns"])
    functions = traced["trace"]["functions"]
    values: Dict[str, float] = {}
    self_cal: Dict[str, float] = {}
    covered_ns = 0
    for index, layer in enumerate(LAYERS):
        layer_ns = sum(row[index] for row in traced["slice_layer_ns"])
        covered_ns += layer_ns
        self_cal[layer] = calibrate.calibrated_s(layer_ns, quiet)
        values[f"{layer}.self_share"] = layer_ns / traced_wall_ns
        values[f"{layer}.self_cal_s"] = self_cal[layer]
        values[f"{layer}.calls_in"] = traced["calls_in_run"][index]

    def calls(layer: str, suffix: str) -> int:
        """Crossing calls into ``layer`` of functions named ``*suffix``."""
        prefix = f"{layer}."
        return sum(
            stat["calls"]
            for name, stat in functions.items()
            if name.startswith(prefix) and name.endswith(suffix)
        )

    def per(layer: str, count: float) -> float:
        """Calibrated ns of the layer's self time per unit of its work."""
        return self_cal[layer] * 1e9 / count if count else 0.0

    counters = traced["counters"]
    values.update(counters)
    events = traced["events"]
    pushes = traced["trace"]["heap_pushes"]
    values["sim.events"] = events
    values["sim.heap_pushes"] = pushes
    # Every push is fired, still pending, or was cancelled.
    values["sim.cancelled"] = pushes - events - traced["pending_end"]
    values["sim.peak_pending"] = traced["peak_pending"]
    values["sim.events_per_cal_s"] = events / baseline_run_cal_s
    values["sim.dispatch_ns_per_event"] = per("sim", events)
    values["net.bursts"] = calls("net", ".sendto_burst")
    values["net.burst_frames"] = calls("server", "._on_burst_deliver")
    values["net.self_ns_per_datagram"] = per("net", counters["net.datagrams_sent"])
    values["gcs.multicasts"] = calls("gcs", ".multicast")
    values["gcs.self_ns_per_packet"] = per("gcs", counters["gcs.control_packets"])
    values["server.self_ns_per_frame"] = per("server", facts["frames_delivered"])
    values["telemetry.self_ns_per_emit"] = per("telemetry", counters["telemetry.emits"])
    values["telemetry.observe_overhead_ratio"] = 0.0
    if lossy is not None:
        values["telemetry.observe_overhead_ratio"] = (
            baseline_run_cal_s / lossy.values["run_cal_s"]
        )
        if run.facts["outcome_digest"] != lossy.facts["outcome_digest"]:
            run.failures.append(
                f"{workload}: outcome_digest differs from {lossy.workload} "
                "(the observers perturbed the run)"
            )
    values["telemetry.qoe_mean_score"] = facts["qoe_mean_score"]
    values["telemetry.slo_breaches"] = facts["slo_breaches"]
    values["client.late_skip_ratio"] = facts["late_skip_ratio"]
    values["client.stall_s_per_viewer"] = facts["stall_s_per_viewer"]
    values["service.failover_max_s"] = facts["failover_max_s"]
    values["service.failover_p50_s"] = facts["failover_p50_s"]
    values["service.ops_failed_ratio"] = facts["ops_failed_ratio"]
    values["shard.merge_us"] = traced["shard_merge_us"]
    values["trace.overhead_x"] = (
        calibrate.calibrated_s(traced_wall_ns, quiet) / baseline_run_cal_s
    )
    values["trace.coverage"] = covered_ns / traced_wall_ns
    values["trace.spans"] = traced["trace"]["spans_total"]
    chunks_ms = calibrate.quartiles([ns / 1e6 for ns in run.chunk_ns])
    values["cal.chunk_ms_median"] = chunks_ms["median"]
    values["cal.chunk_ms_iqr"] = chunks_ms["q3"] - chunks_ms["q1"]
    values["cal.slices"] = len(baseline["slice_ns"])
    run.layer_values = values

    if values["trace.coverage"] < 0.95:
        run.failures.append(
            f"{workload}: trace.coverage = {values['trace.coverage']:.3f} < 0.95"
        )
    if not WORKLOADS[workload].observe and counters["telemetry.emits"]:
        run.failures.append(
            f"{workload}: telemetry.emits = {counters['telemetry.emits']} "
            "with no observer attached"
        )


# ----------------------------------------------------------------------
# Driver mode: one workload, one JSON line
# ----------------------------------------------------------------------
def driver_mode(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    workload = args.workload
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    if args.trace:
        # One untraced repetition is the baseline the traced one is
        # read against; the timed figures belong to ``--trace 0``.
        run = measure(workload, args.seed, None)
        lossy = None
        if workload == "wan8_observed":
            lossy = measure("wan8_lossy", args.seed, None)
        measure_traced(run, args.seed, lossy)
        chosen, values = spec["per_layer"], run.layer_values
    else:
        run = measure(workload, args.seed, args.seconds)
        chosen, values = spec["end_to_end"], run.values
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in chosen
    }
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.facts["ops_attempted"],
        "failed": run.facts["ops_failed"],
        "metrics": metrics,
    }))
    return 1 if run.failures else 0


# ----------------------------------------------------------------------
# Full mode: every workload, tables, manifest
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def manifest(seed: int, seconds: float, runs: List[WorkloadRun]) -> Dict[str, Any]:
    chunks_ms = calibrate.quartiles(
        [ns / 1e6 for run in runs for ns in run.chunk_ns]
    )
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cal_ref_s": calibrate.CAL_REF_S,
        "cal_chunk_ops": calibrate.CHUNK_OPS,
        "chunk_ms_median": chunks_ms["median"],
        "chunk_ms_iqr": chunks_ms["q3"] - chunks_ms["q1"],
        "seconds_per_workload": seconds,
        "repetitions": {run.workload: len(run.reps) for run in runs},
        "workloads": {
            run.workload: dataclasses.asdict(WORKLOADS[run.workload])
            for run in runs
        },
    }


def full_run(seed: int, seconds: float, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Every workload, timed then traced; returns the BENCH document."""
    runs: Dict[str, WorkloadRun] = {}
    for workload in WORKLOADS:
        print(f"[bench] {workload}: timed repetitions", file=sys.stderr)
        runs[workload] = measure(workload, seed, seconds)
    for workload, run in runs.items():
        print(f"[bench] {workload}: traced repetition", file=sys.stderr)
        lossy = runs["wan8_lossy"] if workload == "wan8_observed" else None
        measure_traced(run, seed, lossy)
    document: Dict[str, Any] = {
        "manifest": manifest(seed, seconds, list(runs.values())),
        "workloads": {},
        "failures": [f for run in runs.values() for f in run.failures],
    }
    for workload, run in runs.items():
        facts = run.facts
        document["workloads"][workload] = {
            "end_to_end": run.values,
            "spread": run.spread,
            "per_layer": run.layer_values,
            "outcome_digest": facts["outcome_digest"],
            "ops_attempted": facts["ops_attempted"],
            "ops_failed": facts["ops_failed"],
            "info": {
                "raw_wall_min_s": min(sum(rep["slice_ns"]) for rep in run.reps) / 1e9,
                "setup_wall_min_s": min(rep["setup_ns"] for rep in run.reps) / 1e9,
            },
        }
    document["failures"] += cross_workload_checks(document)
    document["claim"] = None
    print_tables(document, spec)
    return document


def _fmt(value: Any) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"
    return f"{int(value)}"


def print_tables(document: Dict[str, Any], spec: Dict[str, Any]) -> None:
    names = list(document["workloads"])
    entries = document["workloads"]

    def row(label: str, unit: str, cells: List[str]) -> str:
        return f"{label:<34}{unit:<15}" + "".join(f"{c:>21}" for c in cells)

    print("manifest: " + json.dumps(document["manifest"]))
    print()
    print("End-to-end metrics (timings in calibrated seconds; q1..q3 over "
          "whole repetitions)")
    print(row("metric", "unit", names))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(row(name, metric["unit"],
                  [_fmt(entries[w]["end_to_end"][name]) for w in names]))
        if name in entries[names[0]]["spread"]:
            spreads = [entries[w]["spread"][name] for w in names]
            print(row("  q1..q3 (n)", "", [
                f"{_fmt(s['q1'])}..{_fmt(s['q3'])} ({s['n']})" for s in spreads
            ]))
    for key in ("ops_attempted", "ops_failed"):
        print(row(key, "count", [str(entries[w][key]) for w in names]))
    print(row("raw wall, fastest repetition", "s (info)",
              [_fmt(entries[w]["info"]["raw_wall_min_s"]) for w in names]))
    print()
    print("Per-layer metrics (from the traced repetition)")
    print(row("metric", "unit", names))
    for metric in spec["per_layer"]:
        print(row(metric["name"], metric["unit"],
                  [_fmt(entries[w]["per_layer"][metric["name"]]) for w in names]))
    print()
    if document["failures"]:
        for failure in document["failures"]:
            print(f"CHECK FAILED: {failure}")
    else:
        print("all correctness checks passed")


def cross_workload_checks(document: Dict[str, Any]) -> List[str]:
    """Checks that need more than one workload's numbers."""
    failures = []
    layers = {
        name: entry["per_layer"] for name, entry in document["workloads"].items()
    }
    for name, values in layers.items():
        if name != "full400_crash" and values["net.bursts"]:
            failures.append(f"{name}: net.bursts = {values['net.bursts']}, expected 0")
        if (name == "fly20k_crash") != bool(values["client.connects_sent"]):
            failures.append(
                f"{name}: client.connects_sent = {values['client.connects_sent']}"
            )
        if name.startswith("wan8") != bool(values["net.dropped_loss"]):
            failures.append(
                f"{name}: net.dropped_loss = {values['net.dropped_loss']}"
            )
    return failures


# ----------------------------------------------------------------------
# A/A: the comparator a later change will face
# ----------------------------------------------------------------------
def compare(
    first: Dict[str, Any], second: Dict[str, Any], spec: Dict[str, Any]
) -> List[str]:
    """Judge ``second`` against ``first`` with the committed bounds."""
    disagreements = []
    print()
    print("A/A: second set judged against the first")
    print(f"{'workload':<16}{'metric':<18}{'first':>12}{'second':>12}"
          f"{'worse by':>10}{'bound':>8}  verdict")
    for workload in first["workloads"]:
        a = first["workloads"][workload]
        b = second["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            if name in DETERMINISTIC:
                ok = va == vb
                worse = 0.0 if ok else float("nan")
                bound = 0.0
            else:
                worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
                bound = min(metric["bound"], SAME_SEED_BOUND)
                if name == "setup_s":
                    bound = max(bound, SETUP_FLOOR_S / va)
                ok = worse <= bound
            iqr = ""
            if name in a["spread"]:
                sa, sb = a["spread"][name], b["spread"][name]
                iqr = (f"  iqr {_fmt(sa['q3'] - sa['q1'])} / "
                       f"{_fmt(sb['q3'] - sb['q1'])}")
            verdict = "ok" if ok else "DISAGREE"
            print(f"{workload:<16}{name:<18}{_fmt(va):>12}{_fmt(vb):>12}"
                  f"{worse:>+10.2%}{bound:>8.2%}  {verdict}{iqr}")
            if not ok:
                disagreements.append(f"{workload}: {name} {va} vs {vb}")
        if a["outcome_digest"] != b["outcome_digest"]:
            disagreements.append(f"{workload}: outcome_digest differs")
    return disagreements


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds of timed repetitions per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and compare the two sets")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError(f"no program to measure: {ROOT}/src/repro is missing")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None:
        return driver_mode(args, spec)

    os.makedirs(ARTIFACTS, exist_ok=True)
    document = full_run(args.seed, args.seconds, spec)
    failures = list(document["failures"])
    if args.aa:
        second = full_run(args.seed, args.seconds, spec)
        failures += second["failures"]
        disagreements = compare(document, second, spec)
        document = {"first": document, "second": second,
                    "aa_disagreements": disagreements, "claim": None}
        failures += disagreements
    with open(os.path.join(ARTIFACTS, "BENCH.json"), "w") as handle:
        json.dump(document, handle, indent=1)
    print()
    print(json.dumps({"failures": failures, "claim": None}))
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        sys.exit(2)
