"""The one CI gate: ``repro-vod gate <name> [measured.json] [baseline.json]``.

What this reproduction promises about *behaviour* is the ``GATES`` table
below: one row per judged value, naming where the value lives, how it is
checked, against what, and why.  A verdict is a pure function of
(measured JSON, baseline JSON).  Speed is not judged here at all:
``python3 bench/run.py`` measures it against ``BENCHMARK.json``.

Check kinds (what ``ref`` holds):

``rel``                two-sided band around the baseline value (a ``tolerances`` key)
``exact``              equals the baseline value (a baseline path; default: the same path)
``floor``/``ceiling``    bound (a ``tolerances`` key, or a literal)
``at_least_baseline``  not below the baseline value
``zero``/``is_true``     absolute
``regress``            one-sided ``max(10 % of |base|, slack)`` margin (``(worse, slack)``)
``relation``           strictly greater than another measured value (its path)
a callable            ``f(value, measured)``: the expectation it broke, or None

``scale``, ``shard``, ``matrix`` and ``placement`` judge the file written by
``repro-vod scale|matrix|placement --benchmark-json``; ``qoe`` and ``postmortem``
run their own workload when ``measured.json`` is omitted and write
``artifacts/BENCH_<name>.json`` first.  A baseline is reference values plus
``tolerances``: regenerate one by re-running the producing command and copying
the values.  Exit 0 on pass, 1 on failure, 2 on a usage error.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

MISSING = object()
REGRESS_REL = 0.10  # the ``regress`` kind's relative margin


class Row(NamedTuple):
    scope: object  # which rows to judge, see ``_select``
    metric: str  # dotted path inside the row; ``*`` fans out over a map's keys
    kind: object
    ref: object
    why: str


class Gate(NamedTuple):
    baseline: Optional[str]  # committed reference file; None: needs none
    rows: Tuple[Row, ...]
    measure: Optional[Callable[[], Dict]] = None


def _select(scope, measured: Dict, baseline: Dict) -> List[Tuple[str, object, Dict]]:
    """``[(label, measured row, baseline row)]`` for a row's scope:
    ``""`` is the two files themselves; a name is every key of the
    baseline's map of that name, paired with the measurement's entry;
    ``(mode, *fields)`` is the first ``points[]`` entry of that mode
    agreeing with the baseline on every field."""
    if scope == "":
        return [("", measured, baseline)]
    if isinstance(scope, str):
        got = measured.get(scope) or {}
        return [(key, got.get(key, MISSING), want)
                for key, want in (baseline.get(scope) or {}).items()]
    mode, *fields = scope
    want = {key: baseline.get(key) for key in fields}
    label = mode + "".join(f"[{k}={v}]" for k, v in want.items())
    for p in measured.get("points") or ():
        if p.get("mode") == mode and all(p.get(k) == v for k, v in want.items()):
            return [(label, p, baseline)]
    return [(label, MISSING, baseline)]


def _lookup(node, path: str, prefix: str = "") -> List[Tuple[str, object]]:
    """``[(concrete path, value)]`` for a dotted ``path``; a step that is
    not there (or a ``*`` over nothing) yields ``MISSING``."""
    if not path:
        return [(prefix, node)]
    step, _, rest = path.partition(".")
    keys = sorted(node) if step == "*" and isinstance(node, dict) and node else [step]
    found: List[Tuple[str, object]] = []
    for key in keys:
        here = f"{prefix}.{key}" if prefix else key
        if isinstance(node, dict) and key in node:
            found += _lookup(node[key], rest, here)
        else:
            found.append((f"{here}.{rest}" if rest else here, MISSING))
    return found


def _need(tree, path: str, where: str):
    value = _lookup(tree, path)[0][1]
    if value is MISSING:
        raise LookupError(f"{path}, which is missing from the {where}")
    return value


# The postmortem gate relates measured facts to each other, not to a
# baseline, so four of its checks are callables.
def _same_as_recorder_off(signature: Dict, measured: Dict) -> Optional[str]:
    off = _need(measured, "signatures.recorder_off", "measurement")
    moved = sorted(k for k in {*signature, *off} if signature.get(k, MISSING) != off.get(k))
    return f"signatures.recorder_off (differs in {', '.join(moved)})" if moved else None


def _breakdowns_exact(incidents: List[Dict], measured: Dict) -> Optional[str]:
    breakdowns = [b for incident in incidents for b in incident["breakdowns"]]
    for b in breakdowns:
        total = b["detect_s"] + b["agree_s"] + b["redistribute_s"]
        if abs(total - b["total_s"]) > 1e-9:
            return (f"detect + agree + redistribute == total_s for client "
                    f"{b['client']}: {total!r} != {b['total_s']!r}")
    return None if breakdowns else ">= 1 incident with >= 1 failover breakdown"


def _within_ring_budget(metering: Dict, measured: Dict) -> Optional[str]:
    budget = metering["ring_budget"]
    return None if metering["occupancy"] <= budget else f"occupancy <= ring_budget {budget}"


def _tags_every_shard(incidents: List[Dict], measured: Dict) -> Optional[str]:
    tags = {s for i in incidents for s in str(i.get("shard", "")).split(",")}
    shards = measured["shards"]
    return None if len(tags) == shards else f"tags for all {shards} shards, got {sorted(tags)}"


def _has_critical_path(report: str, measured: Dict) -> Optional[str]:
    return None if "Failover critical path" in report else 'a "Failover critical path" table'


def measure_qoe() -> Dict:
    """Figure 4's LAN failover plus three seeded chaos trials, observed."""
    from repro.experiments.scenarios import LAN_SCENARIO, run_scenario
    from repro.faulting.chaos import run_chaos_trial
    from repro.telemetry.slo import quantile

    chaos_seed, plans, duration_s = 1000, 3, 60.0
    # Unobserved twin first (same seed, bus inactive end to end): overhead_pct is
    # informational, bench/'s telemetry.observe_overhead_ratio judges that cost.
    t0 = time.perf_counter()
    run_scenario(LAN_SCENARIO)
    plain_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    observed = run_scenario(LAN_SCENARIO, observe=True, flight=True)
    observed_s = time.perf_counter() - t0

    failovers: List[float] = list(observed.failovers)
    cards = list(observed.qoe.values())
    for seed in range(chaos_seed, chaos_seed + plans):
        trial = run_chaos_trial(seed=seed, duration_s=duration_s, observe=True)
        failovers.extend(trial.failovers)
        cards.extend(trial.qoe.values())
    scores = [card.score() for card in cards]
    flight = observed.flight or {}
    return {
        "schema": 1,
        "workload": {"figure4_seed": LAN_SCENARIO.seed, "chaos_seed": chaos_seed,
                     "chaos_plans": plans, "chaos_duration_s": duration_s},
        "metrics": {
            "failover_count": len(failovers),
            "failover_p50_s": quantile(failovers, 0.50) if failovers else 0.0,
            "failover_p99_s": quantile(failovers, 0.99) if failovers else 0.0,
            "glitch_total": sum(card.stall_count for card in cards),
            "stall_s_total": sum(card.stall_s for card in cards),
            "qoe_mean_score": sum(scores) / len(scores) if scores else 0.0,
            "clients_scored": len(cards),
        },
        "overhead_pct": 100.0 * max(0.0, observed_s - plain_s) / plain_s,
        "flight": {
            key: flight.get(key, 0) for key in ("incidents", "occupancy", "estimated_bytes")
        },
    }


def measure_postmortem(n: int = 20_000, shards: int = 4) -> Dict:
    """The seeded chaos point (flyweight viewers, the most-loaded server
    crashed mid-run) three ways: recorder off, recorder on, and recorder
    on across ``shards`` shared-nothing shards."""
    from repro.experiments.scale import run_scale_point, run_sharded_scale_point
    from repro.telemetry.flight import Incident
    from repro.telemetry.postmortem import render_incidents

    def signature(p) -> Dict:
        return {"events": p.events, "frames": p.frames_delivered,
                "takeovers": p.takeovers, "failover_latencies": p.failover_latencies}

    rig = dict(batch_window_s=1.0, duration_s=12.0, seed=77)
    plain = run_scale_point(n, flyweight=True, **rig)
    recorded = run_scale_point(n, flyweight=True, flight=True, **rig)
    sharded = run_sharded_scale_point(n, n_shards=shards, flight=True, **rig)
    metering = {"flyweight": recorded.flight or {}}
    for shard_id, shard in ((sharded.flight or {}).get("shards") or {}).items():
        metering[f"shard{shard_id}"] = shard or {}
    return {
        "n": n, "shards": shards,
        "signatures": {"recorder_off": signature(plain), "recorder_on": signature(recorded)},
        "incidents": {"flyweight": recorded.incidents, "sharded": sharded.incidents},
        "metering": metering,
        "report": render_incidents(
            [Incident.from_dict(i) for i in recorded.incidents],
            metering=recorded.flight,
        ),
        "merge_deterministic": sharded.merge_deterministic,
    }


_FLY, _SHARDED = ("flyweight", "n_clients"), ("sharded", "n_clients", "n_shards")
_SEEDED = "the seeded run must be deterministic"
_SILENT = ("the invariant checker must stay silent: faults, migrations and admission "
           "throttling all preserve exactly-one-adoption and offset continuity")
_QUANTILE = "score quantiles are exact over the integer buckets"
_REGRESSION = ("deterministic under the fixed gate seeds, so a real regression (an "
               "extra glitch, a slower failover) trips it; the absolute slack only "
               "absorbs jitter near zero that no viewer could perceive")


_SCALE = (
    Row(_FLY, "events", "rel", "events_rel",
        "drift means the control plane started doing different work"),
    Row(_FLY, "frames_delivered", "rel", "frames_rel", _SEEDED),
    Row(_FLY, "takeovers", "exact", None,
        "each crash must fail over exactly the victim's share"),
    Row(_FLY, "max_failover_s", "ceiling", "failover_ceiling_s",
        "failover (simulated seconds) must stay flat in N"),
)
_SHARDED_SCALE = tuple(row._replace(scope=_SHARDED) for row in _SCALE)


GATES: Dict[str, Gate] = {
    "scale": Gate("benchmarks/BENCH_scale_flyweight.json", _SCALE),
    "shard": Gate("benchmarks/BENCH_shard_scale.json", _SHARDED_SCALE + (
        Row(_SHARDED, "merge_deterministic", "is_true", None,
            "the reversed-order re-merge self-check must have run and held"),
        Row(_SHARDED, "violations", "zero", None, _SILENT),
        Row(_SHARDED, "qoe.n", "exact", "n_clients",
            "the merged QoE histogram must cover the whole population"),
        Row(_SHARDED, "qoe.p10", "exact", None, _QUANTILE),
        Row(_SHARDED, "qoe.p50", "exact", None, _QUANTILE),
        Row(_SHARDED, "slo.*.ok", "is_true", None,
            "the merged run must meet the paper's service levels"),
    )),
    "matrix": Gate("benchmarks/BENCH_matrix_baseline.json", (
        Row("cells", "verdict", "exact", None, _SEEDED),
        Row("cells", "clients", "exact", None, _SEEDED),
        Row("cells", "rejects", "exact", None, _SEEDED),
        Row("cells", "degrades", "exact", None, _SEEDED),
        Row("cells", "violations", "zero", None, _SILENT),
        Row("cells", "qoe_mean", "rel", "qoe_rel", _SEEDED),
        Row("cells", "qoe_p10", "rel", "qoe_rel", _SEEDED),
        Row("cells", "qoe_mean", "floor", "qoe_floor",
            "no cell may collapse, whatever the reference says"),
        Row("", "faceoff.degrade.qoe_p10", "relation", "faceoff.reject.qoe_p10",
            "degrade must strictly beat reject-only on p10 QoE at equal "
            "token-bucket capacity: the policy layer's reason to exist"),
    )),
    "placement": Gate("benchmarks/BENCH_placement_baseline.json", (
        Row("strategies", "storage_copies", "rel", "storage_rel", _SEEDED),
        Row("strategies", "outage_analytic", "rel", "availability_rel", _SEEDED),
        Row("strategies", "outage_measured", "rel", "availability_rel", _SEEDED),
        Row("strategies", "qoe_mean", "floor", "qoe_floor",
            "QoE may improve, so a floor rather than a band"),
        Row("strategies", "violations", "zero", None, _SILENT),
        Row("strategies", "migrations_aborted", "exact", None, _SEEDED),
        Row("strategies", "migrations_completed", "at_least_baseline", None,
            "every planned copy-then-drop migration must still complete"),
        Row("", "strategies.markov.outage_analytic", "relation",
            "strategies.static.outage_analytic",
            "availability-aware placement must strictly beat static under the "
            "correlated rack crash: never a whole replica set in one failure domain"),
        Row("", "strategies.prefix.prefix_handoffs", "floor", 1,
            "the prefix strategy must observe a mid-stream handoff"),
    )),
    "qoe": Gate("benchmarks/BENCH_qoe_baseline.json", (
        Row("", "metrics.failover_p50_s", "regress", ("higher", 0.05), _REGRESSION),
        Row("", "metrics.failover_p99_s", "regress", ("higher", 0.05), _REGRESSION),
        Row("", "metrics.glitch_total", "regress", ("higher", 0.5), _REGRESSION),
        Row("", "metrics.stall_s_total", "regress", ("higher", 0.25), _REGRESSION),
        Row("", "metrics.qoe_mean_score", "regress", ("lower", 1.0), _REGRESSION),
    ), measure_qoe),
    "postmortem": Gate(None, (
        Row("", "signatures.recorder_on", _same_as_recorder_off, None,
            "enabling the flight recorder must not perturb the simulation"),
        Row("", "incidents.*", _breakdowns_exact, None,
            "the mid-run crash must assemble an incident whose segments sum "
            "exactly to the take-over span"),
        Row("", "metering.*", _within_ring_budget, None,
            "by the recorder's own metering, memory stays within the configured budget"),
        Row("", "metering.*.capture_occupancy", "zero", None,
            "no capture window may still be open after finish()"),
        Row("", "metering.*.estimated_bytes", "floor", 1,
            "zero bytes means the recorder saw nothing"),
        Row("", "report", _has_critical_path, None,
            "the rendered postmortem must carry the explainable decomposition"),
        Row("", "merge_deterministic", "is_true", None,
            "the reversed-order incident re-merge must hold"),
        Row("", "incidents.sharded", _tags_every_shard, None,
            "every shard crashes its most-loaded server"),
    ), measure_postmortem),
}


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _broken(row: Row, path: str, x, want, measured: Dict, tol: Dict) -> Optional[str]:
    """``None`` when ``x`` passes ``row``, else the reference it broke."""
    kind, ref = row.kind, row.ref
    if callable(kind):
        return kind(x, measured)
    if kind == "zero":
        return None if x == 0 else ""
    if kind == "is_true":
        return None if x is True else ""
    if kind == "relation":
        other = _need(measured, ref, "measurement")
        return None if x > other else f"> {ref} ({_show(other)})"
    if kind in ("floor", "ceiling"):
        bound = _need(tol, ref, "baseline tolerances") if isinstance(ref, str) else ref
        return None if (x >= bound if kind == "floor" else x <= bound) else f"{bound}"
    base = _need(want, ref if kind == "exact" and ref else path, "baseline")
    if kind == "exact":
        return None if x == base else _show(base)
    if kind == "at_least_baseline":
        return None if x >= base else f"{base}"
    if kind == "rel":
        rel = _need(tol, ref, "baseline tolerances")
        return None if abs(x - base) <= rel * abs(base) else f"{base} ± {rel:.0%}"
    worse, slack = ref  # regress
    margin = max(REGRESS_REL * abs(base), slack)
    if worse == "higher":
        return None if x <= base + margin else f"{base} + {margin:.4g}"
    return None if x >= base - margin else f"{base} - {margin:.4g}"


def judge(name: str, measured: Dict, baseline: Optional[Dict] = None) -> List[str]:
    """Failure lines for gate ``name``; empty means it passes."""
    baseline = baseline or {}  # the postmortem gate has none
    tol = baseline.get("tolerances") or {}
    failures: Dict[str, None] = {}  # ordered; a missing value is reported once
    for row in GATES[name].rows:
        kind = getattr(row.kind, "__name__", row.kind).lstrip("_")
        for label, got, want in _select(row.scope, measured, baseline):
            hits = [("", MISSING)] if got is MISSING else _lookup(got, row.metric)
            for path, x in hits:
                where = ".".join(part for part in (label, path) if part)
                if x is MISSING:
                    failures[f"FAIL {name} {where}: missing from measurement"] = None
                    continue
                try:
                    broke = _broken(row, path, x, want, measured, tol)
                except (LookupError, TypeError, AttributeError) as error:
                    broke = f"{error} (malformed input)"
                if broke is not None:
                    failures[
                        f"FAIL {name} {where}: measured {_show(x)}, expected "
                        f"{kind} {broke}".rstrip() + f" — {row.why}"
                    ] = None
    return list(failures)


def check(name: str, measured_path: str, baseline_path: Optional[str]) -> List[str]:
    """Load both files and judge; an unreadable file is a failure line."""
    loaded = []
    for path in filter(None, (measured_path, baseline_path)):
        try:
            with open(path, encoding="utf-8") as fh:
                loaded.append(json.load(fh))
            if not isinstance(loaded[-1], dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as error:
            return [f"FAIL {name} unreadable: {path} ({error})"]
    return judge(name, *loaded)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name, measured_path, baseline_path = (argv + [None] * 3)[:3]
    gate = GATES.get(name) if len(argv) <= 3 else None
    if gate is None or (measured_path is None and gate.measure is None):
        print(__doc__)
        print(f"gates: {', '.join(GATES)}; only qoe and postmortem can omit measured.json")
        return 2
    if measured_path is None:
        measured_path = os.path.join("artifacts", f"BENCH_{name}.json")
        os.makedirs("artifacts", exist_ok=True)
        with open(measured_path, "w", encoding="utf-8") as fh:
            json.dump(gate.measure(), fh, indent=1, default=str)
        print(f"{name} gate measurements written to {measured_path}")
    failures = check(name, measured_path, baseline_path or gate.baseline)
    print("\n".join(failures) if failures else
          f"{name} gate passed: all {len(gate.rows)} checks hold on {measured_path}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
