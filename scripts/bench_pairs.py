"""Parent-versus-change pairs of the repo's one benchmark, judged by rule.

``python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds 77 1 2 …``

``PARENT`` and ``CHANGE`` are two checkouts of this repository (a
``git clone`` of each commit; never the tree someone is editing).  For
every seed the benchmark's driver command from ``BENCHMARK.json`` —
``python3 bench/run.py --workload W --seed N --seconds <run_seconds>
--trace 0`` — runs once in each checkout, one process at a time,
alternating which side goes first.  This drives the one entry point: it
is not a second benchmark, it measures nothing itself and nothing under
``bench/`` knows about it.

Printed: every pair of the claimed metric, then for each end-to-end
metric both medians with quartiles, the pairs the change won and a
verdict by the rule every performance PR has applied by hand
(choosing-metrics §6 and §8):

``gain``        the change won at least nine tenths of the pairs (ties
                count for neither side) and the medians are further
                apart than the distance between the parent's quartiles;
``regression``  the change's median is worse than the parent's by more
                than the metric's bound in ``BENCHMARK.json``;
``unresolved``  neither, and the parent's own quartiles are further
                apart than the bound allows — the runs cannot tell
                (unless every run of the change reads better than every
                run of the parent);
``unchanged``   neither, and they can.

``--layers`` adds one ``--trace 1`` run per side (at the first seed,
after the timed pairs) and prints each layer's ``self_share`` and
``self_cal_s``, parent → change: where in the program the difference
sits.  One traced repetition per side — read it as a split, not as a
timing.

``--pr N`` appends one line for (N, W) to ``BENCH_trajectory.jsonl`` at
the root of the checkout this script lives in: both git SHAs, the seeds
and the parent → change median of every end-to-end metric — and, with
``--layers``, the traced split under ``"layers"``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.jsonl")
#: A gain needs this share of all pairs run (choosing-metrics §8).
WIN_SHARE = 0.9
#: What ``--layers`` keeps of each layer's ``per_layer`` metrics.
LAYER_FIELDS = ("self_share", "self_cal_s")


def load_spec(checkout: str) -> Dict[str, Any]:
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)


def git_sha(checkout: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(
    checkout: str, spec: Dict[str, Any], workload: str, seed: int,
    trace: int = 0,
) -> Dict[str, Any]:
    """One driver-mode run in ``checkout``; its JSON line, parsed: the
    end-to-end metrics, or with ``trace=1`` the per-layer ones."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"{' '.join(command)} in {checkout} printed nothing "
            f"(exit {done.returncode}):\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(
            f"{workload} seed {seed} in {checkout}: correct="
            f"{result['correct']} failed={result['failed']}\n{done.stderr}"
        )
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Dict[str, Any]:
    """The §8 verdict for one metric over paired runs."""
    sign = -1.0 if better == "lower" else 1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)  # > 0: the change reads better
    iqr = p_q3 - p_q1
    allowed = bound * abs(p_med)
    every_run_better = min(sign * c for c in change) > max(
        sign * p for p in parent
    )
    if won >= WIN_SHARE * len(parent) and gap > iqr:
        verdict = "gain"
    elif -gap > allowed:
        verdict = "regression"
    elif iqr > allowed and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "won": won,
        "lost": lost,
        "pairs": len(parent),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "verdict": verdict,
    }


def recorded() -> List[Tuple[int, str]]:
    """The (PR, workload) pairs the trajectory file already holds."""
    if not os.path.exists(TRAJECTORY):
        return []
    with open(TRAJECTORY) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return [(row["pr"], row["workload"]) for row in rows]


def layer_split(
    parent: Dict[str, float], change: Dict[str, float]
) -> Dict[str, Dict[str, float]]:
    """``<layer>.self_share`` / ``.self_cal_s`` of one traced run per
    side, under the names ``BENCHMARK.json`` gives them."""
    return {
        name: {
            "parent": float(f"{parent[name]:.4g}"),
            "change": float(f"{change[name]:.4g}"),
        }
        for name in parent
        if name.rsplit(".", 1)[-1] in LAYER_FIELDS
    }


def trajectory_row(
    pr: int,
    workload: str,
    parent_sha: str,
    change_sha: str,
    seeds: Sequence[int],
    verdicts: Dict[str, Dict[str, Any]],
    layers: Optional[Dict[str, Dict[str, float]]] = None,
) -> Dict[str, Any]:
    row = {
        "pr": pr,
        "workload": workload,
        "parent_sha": parent_sha,
        "sha": change_sha,
        "seeds": list(seeds),
        "source": "scripts/bench_pairs.py",
        "metrics": {
            name: {
                "parent": float(f"{v['parent'][1]:.6g}"),
                "change": float(f"{v['change'][1]:.6g}"),
            }
            for name, v in verdicts.items()
        },
    }
    if layers is not None:
        row["layers"] = layers
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--metric", default="run_cal_s",
                        help="the claimed metric, printed pair by pair")
    parser.add_argument("--layers", action="store_true",
                        help="one --trace 1 run per side: the per-layer split")
    parser.add_argument("--pr", type=int, default=None,
                        help="append the medians to BENCH_trajectory.jsonl")
    args = parser.parse_args(argv)

    spec = load_spec(args.change)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.metric not in metrics:
        parser.error(f"unknown end-to-end metric {args.metric!r}")

    if args.pr is not None and (args.pr, args.workload) in recorded():
        parser.error(
            f"{TRAJECTORY} already has a line for PR {args.pr} / "
            f"{args.workload}: the file is append-only, one line per pair"
        )

    sides = {"parent": args.parent, "change": args.change}
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    print(f"{args.workload}: {args.metric}, parent -> change")
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], spec, args.workload, seed))
        p = runs["parent"][-1][args.metric]
        c = runs["change"][-1][args.metric]
        print(
            f"  seed {seed:>4} ({order[0]} first): {p:.4g} -> {c:.4g} "
            f"({(c - p) / p:+.1%})",
            flush=True,
        )

    verdicts = {
        name: judge(
            [run[name] for run in runs["parent"]],
            [run[name] for run in runs["change"]],
            metric["better"],
            metric["bound"],
        )
        for name, metric in metrics.items()
    }
    print(f"{len(args.seeds)} pairs; median (q1..q3), parent -> change")
    for name, v in verdicts.items():
        (p1, pm, p3), (c1, cm, c3) = v["parent"], v["change"]
        print(
            f"  {name:<17} {pm:.4g} ({p1:.4g}..{p3:.4g}) -> "
            f"{cm:.4g} ({c1:.4g}..{c3:.4g})  {v['delta']:+.1%}  "
            f"change better {v['won']}/{v['pairs']}, worse {v['lost']}  "
            f"{v['verdict']}"
        )
    claimed = verdicts[args.metric]
    print(
        f"claim on {args.metric}: {claimed['verdict']} — change better in "
        f"{claimed['won']}/{claimed['pairs']} pairs, medians "
        f"{abs(claimed['change'][1] - claimed['parent'][1]):.4g} apart, "
        f"parent quartiles {claimed['parent'][2] - claimed['parent'][0]:.4g} apart"
    )
    layers = None
    if args.layers:
        seed = args.seeds[0]
        traced = {
            side: run_once(sides[side], spec, args.workload, seed, trace=1)
            for side in ("parent", "change")
        }
        layers = layer_split(traced["parent"], traced["change"])
        print(f"traced at seed {seed}, one run per side; parent -> change")
        for name, cell in layers.items():
            print(f"  {name:<24} {cell['parent']:.4g} -> {cell['change']:.4g}")
    if args.pr is not None:
        row = trajectory_row(
            args.pr, args.workload, git_sha(args.parent), git_sha(args.change),
            args.seeds, verdicts, layers,
        )
        with open(TRAJECTORY, "a") as handle:
            handle.write(json.dumps(row) + "\n")
        print(f"appended PR {args.pr} / {args.workload} to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
