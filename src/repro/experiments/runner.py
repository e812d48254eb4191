"""Command-line experiment runner: ``repro-vod <experiment>``.

Regenerates any table or figure of the paper from the terminal::

    repro-vod figure2
    repro-vod figure4 --seed 17
    repro-vod figure5
    repro-vod sync-overhead --clients 8
    repro-vod emergency
    repro-vod takeover --trials 5
    repro-vod faults
    repro-vod chaos --plans 20
    repro-vod ablations
    repro-vod all

Every experiment dispatches through the unified
:func:`repro.experiments.api.run` entry point; the CLI only translates
flags into an :class:`~repro.experiments.api.ExperimentSpec`.

Scenario experiments (figure4, figure5, chaos) also stream a telemetry
JSONL artifact by default (``artifacts/<name>-telemetry.jsonl``;
``--no-telemetry`` turns it off, ``--telemetry PATH`` redirects it).
Two extra subcommands work with those artifacts directly::

    repro-vod trace --scenario lan --out run.jsonl   # record a run
    repro-vod report run.jsonl                        # reconstruct it

Both accept ``--since``/``--until`` sim-second windows, ``trace --out``
transparently gzips ``.jsonl.gz`` paths, and ``repro-vod postmortem``
renders flight-recorder incident reports from a live scenario, a
flyweight/sharded scale run, or a recorded export::

    repro-vod postmortem --scenario lan
    repro-vod postmortem --scale 20000 --shards 4
    repro-vod postmortem --from-export run.jsonl.gz --since 30 --until 60

``repro-vod gate <name> [measured.json] [baseline.json]`` judges a run
against its committed baseline (:mod:`repro.experiments.gate`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.api import REGISTRY, ExperimentSpec, run

#: Experiments that execute a scenario and therefore export telemetry
#: artifacts by default.
TELEMETRY_EXPERIMENTS = (
    "figure4", "figure5", "chaos", "scale", "placement", "postmortem",
)

#: Order in which ``repro-vod all`` runs (excludes the slow chaos/
#: capacity/gcs sweeps, mirroring the historical behaviour).
ALL_SEQUENCE = (
    "figure2",
    "figure4",
    "figure5",
    "sync-overhead",
    "emergency",
    "takeover",
    "qos",
    "faults",
    "ablations",
)


def _default_telemetry_path(name: str) -> str:
    return os.path.join("artifacts", f"{name}-telemetry.jsonl")


def _telemetry_path_for(name: str, args: argparse.Namespace) -> Optional[str]:
    if name not in TELEMETRY_EXPERIMENTS or args.no_telemetry:
        return None
    path = args.telemetry or _default_telemetry_path(name)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return path


#: Flags forwarded under their own name as experiment params when given.
PARAM_FLAGS = (
    "json", "clients", "trials", "plans", "sizes", "flyweight_sizes",
    "sharded_sizes", "shards", "workers", "wall_budget", "duration", "window",
    "benchmark_json", "strategies", "titles", "flash", "preset", "scenario",
    "export", "since", "until", "max_rows",
)


def _spec_from_args(name: str, args: argparse.Namespace) -> ExperimentSpec:
    params = {
        flag: getattr(args, flag)
        for flag in PARAM_FLAGS
        if getattr(args, flag, None) is not None
    }
    if getattr(args, "shard_inline", False):
        params["shard_inline"] = True
    if getattr(args, "scale_n", None) is not None:
        params["source"] = "scale"
        params["n"] = args.scale_n
    return ExperimentSpec(
        name=name,
        seed=args.seed,
        params=params,
        telemetry_path=_telemetry_path_for(name, args),
    )


def _run_experiment(name: str, args: argparse.Namespace) -> None:
    result = run(_spec_from_args(name, args))
    print(result.render())
    for kind, path in sorted(result.artifacts.items()):
        if kind != "json":  # the json block already announces itself
            print(f"[{kind} artifact written to {path}]")


def _run_all(args: argparse.Namespace) -> None:
    for index, name in enumerate(ALL_SEQUENCE):
        if index:
            print("\n" + "=" * 72 + "\n")
        _run_experiment(name, args)


def _run_trace(args: argparse.Namespace) -> None:
    from repro.experiments.scenarios import run_scenario

    spec = _scenario_spec(args)
    directory = os.path.dirname(args.out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    result = run_scenario(
        spec, seed=args.seed, telemetry_path=args.out,
        telemetry_full=args.full,
        telemetry_max_events=args.max_events,
        telemetry_since=args.since,
        telemetry_until=args.until,
    )
    client = result.client
    print(f"telemetry written to {args.out}")
    print(
        f"scenario={spec.name} duration={spec.run_duration_s:.0f}s "
        f"displayed={client.displayed_total} skipped={client.skipped_total} "
        f"migrations={len(client.stats.migrations)} "
        f"faults={len(result.injector.fired)}"
    )


def _run_report(args: argparse.Namespace) -> None:
    from repro.telemetry.report import load_timeline, render_report

    timeline = load_timeline(args.path, since=args.since, until=args.until)
    print(render_report(timeline, max_rows=args.max_rows))


def _scenario_spec(args: argparse.Namespace):
    import dataclasses

    from repro.experiments.scenarios import LAN_SCENARIO, WAN_SCENARIO

    spec = {"lan": LAN_SCENARIO, "wan": WAN_SCENARIO}[args.scenario]
    if args.duration is not None:
        spec = dataclasses.replace(
            spec,
            movie_duration_s=max(spec.movie_duration_s, args.duration),
            run_duration_s=args.duration,
        )
    return spec


def _run_watch(args: argparse.Namespace) -> None:
    from repro.experiments.scenarios import prepare_scenario
    from repro.telemetry.qoe import render_scorecards
    from repro.telemetry.slo import render_slo
    from repro.telemetry.watch import WatchState, render_watch

    spec = _scenario_spec(args)
    telemetry_path = None if args.no_telemetry else args.telemetry
    if telemetry_path:
        directory = os.path.dirname(telemetry_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
    live = prepare_scenario(
        spec, seed=args.seed, telemetry_path=telemetry_path, observe=True,
        flight=True,
    )
    state = WatchState(
        live.sim.telemetry, slo_monitor=live.slo_monitor,
        flight_recorder=live.flight_recorder,
    )
    interval = max(0.1, args.interval)
    # Event budget per drawn frame: a slice that turns out to be heavy
    # (a crash storm, a flood of connects) renders a mid-slice frame
    # instead of freezing the dashboard for the whole slice.  After the
    # run_until early-exit fix, sim.now is then the last dispatched
    # event's time, so the loop simply keeps stepping toward the target.
    slice_budget = 200_000
    with live:
        now = 0.0
        while now < spec.run_duration_s:
            target = min(spec.run_duration_s, now + interval)
            while True:
                now = live.step(target, max_events=slice_budget)
                if args.clear:
                    print("\x1b[2J\x1b[H", end="")
                print(render_watch(state, max_clients=args.max_clients))
                print()
                if now >= target:
                    break
    state.close()
    result = live.result
    if result.qoe:
        print(render_scorecards(result.qoe))
    if result.slo:
        print()
        print(render_slo(result.slo))
    if result.incidents:
        print(
            f"\n[{len(result.incidents)} incident(s) captured by the "
            "flight recorder; render with repro-vod postmortem]"
        )
    if telemetry_path:
        print(f"\n[telemetry artifact written to {telemetry_path}]")


def _run_profile(args: argparse.Namespace) -> int:
    """``repro-vod profile <experiment>``: cProfile a registered run.

    Writes the raw pstats dump (for ``snakeviz``/``pstats`` digging)
    and prints the top-N hot-function table.  Profiled wall clocks are
    *not* comparable to unprofiled runs — cProfile's tracing costs
    3-4x on event-loop-dominated workloads — so use the output for
    time *shares*, and the benchmark JSONs for absolute walls.
    """
    import cProfile
    import io
    import json
    import pstats

    params = {}
    for item in args.arg or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise SystemExit(f"--arg {item!r} is not KEY=VALUE")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    spec = ExperimentSpec(
        name=args.target, seed=args.seed, params=params, telemetry_path=None
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run(spec)
    finally:
        profiler.disable()
    out = args.out or os.path.join(
        "artifacts", f"profile-{args.target}.pstats"
    )
    directory = os.path.dirname(out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    profiler.dump_stats(out)

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(result.render())
    print()
    print(f"== cProfile: top {args.top} by {args.sort} "
          "(walls inflated by tracing; read shares, not seconds) ==")
    print(stream.getvalue().rstrip())
    print(f"[pstats dump written to {out}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-vod",
        description=(
            "Regenerate the evaluation of 'Fault Tolerant Video on Demand "
            "Services' (ICDCS 1999)"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None, help="override the scenario seed"
    )
    common.add_argument(
        "--json", type=str, default=None,
        help="also dump the figure4/figure5 run (counters + series) to "
             "this JSON file",
    )
    common.add_argument(
        "--telemetry", type=str, default=None,
        help="telemetry JSONL artifact path (scenario experiments; "
             "default artifacts/<name>-telemetry.jsonl)",
    )
    common.add_argument(
        "--no-telemetry", action="store_true",
        help="disable the default telemetry artifact",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    sub.add_parser("figure2", parents=[common],
                   help="flow-control policy table")
    sub.add_parser("figure4", parents=[common],
                   help="LAN irregularity recovery (4 panels)")
    sub.add_parser("figure5", parents=[common],
                   help="WAN skipped frames (2 panels)")
    p = sub.add_parser("sync-overhead", parents=[common], help="T-sync claim")
    p.add_argument("--clients", type=int, default=4)
    sub.add_parser("emergency", parents=[common], help="T-emergency claim")
    p = sub.add_parser("takeover", parents=[common],
                       help="T-buffer take-over time")
    p.add_argument("--trials", type=int, default=5)
    sub.add_parser("qos", parents=[common],
                   help="E-qos: best-effort vs reserved WAN")
    sub.add_parser("capacity", parents=[common],
                   help="E-capacity: clients per server")
    sub.add_parser("gcs", parents=[common],
                   help="T-gcs: view agreement latency scaling")
    sub.add_parser("faults", parents=[common], help="T-ft comparison matrix")
    p = sub.add_parser("chaos", parents=[common],
                       help="seeded random fault plans vs the invariant "
                            "checker (--seed sets the base seed)")
    p.add_argument("--plans", type=int, default=20)
    sub.add_parser("ablations", parents=[common],
                   help="A-1..A-5 parameter sweeps")
    p = sub.add_parser(
        "scale", parents=[common],
        help="data-plane fast path: events/s, wall time and failover "
             "latency at N=100/1k/5k viewers with a mid-run crash",
    )
    p.add_argument(
        "--sizes", type=lambda s: tuple(int(x) for x in s.split(",")),
        default=None, help="comma-separated client populations "
                           "(default 100,1000,5000)",
    )
    p.add_argument(
        "--flyweight-sizes", dest="flyweight_sizes",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=None, help="extra populations run in flyweight mode "
                           "(columnar viewers; e.g. 20000,100000)",
    )
    p.add_argument(
        "--sharded-sizes", dest="sharded_sizes",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        default=None, help="extra populations run shared-nothing across "
                           "worker processes (e.g. 1000000)",
    )
    p.add_argument("--shards", type=int, default=None,
                   help="shard count for --sharded-sizes points "
                        "(default 4)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool cap for sharded points "
                        "(default: one per core)")
    p.add_argument("--shard-inline", dest="shard_inline",
                   action="store_true",
                   help="run shards sequentially in-process "
                        "(determinism checks; no parallelism)")
    p.add_argument("--wall-budget", dest="wall_budget", type=float,
                   default=None,
                   help="abort a point once it exceeds this many wall "
                        "seconds (the 100k barrier gate)")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds per point (default 12)")
    p.add_argument("--window", type=float, default=None,
                   help="batch window in seconds (default 1.0)")
    p.add_argument("--benchmark-json", type=str, default=None,
                   dest="benchmark_json",
                   help="write the sweep's measurements (events/s, wall "
                        "time, failover latencies) to this JSON file")
    p = sub.add_parser(
        "placement", parents=[common],
        help="content placement strategies under live migrations, a "
             "correlated rack crash and a flash crowd",
    )
    p.add_argument(
        "--strategies", type=str, default=None,
        help="comma-separated strategy names "
             "(default static,popularity,markov,prefix)",
    )
    p.add_argument("--titles", type=int, default=None,
                   help="catalog size (default 24)")
    p.add_argument("--clients", type=int, default=None,
                   help="steady-state viewers (default 18)")
    p.add_argument("--flash", type=int, default=None,
                   help="flash-crowd viewers on the rank-1 title "
                        "(default 6)")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds per strategy (default 52)")
    p.add_argument("--benchmark-json", type=str, default=None,
                   dest="benchmark_json",
                   help="write per-strategy measurements (availability, "
                        "storage, QoE, violations) to this JSON file")
    p = sub.add_parser(
        "matrix", parents=[common],
        help="scenario-matrix SLO sweep: topology x workload x faults "
             "cells with per-cell QoE/SLO verdicts, plus the admission "
             "reject-vs-degrade faceoff",
    )
    p.add_argument(
        "--preset", choices=("full", "gate"), default=None,
        help="cell selection: full (24 cells) or gate (the 12-cell CI "
             "sub-matrix; default full)",
    )
    p.add_argument("--benchmark-json", type=str, default=None,
                   dest="benchmark_json",
                   help="write the per-cell verdicts and the faceoff to "
                        "this JSON file (scenario-matrix CI gate input)")
    p.add_argument("--workers", type=int, default=None,
                   help="run the cells across this many spawned worker "
                        "processes (verdicts identical to the serial "
                        "sweep; default serial)")
    sub.add_parser("all", parents=[common], help="everything")

    p = sub.add_parser(
        "profile", parents=[common],
        help="run a registered experiment under cProfile: writes a "
             "pstats dump and prints the top hot functions",
    )
    p.add_argument("target", choices=sorted(REGISTRY),
                   help="experiment to profile")
    p.add_argument("--top", type=int, default=25,
                   help="hot functions to print (default 25)")
    p.add_argument("--sort", choices=("cumulative", "tottime", "calls"),
                   default="cumulative",
                   help="pstats sort key (default cumulative)")
    p.add_argument("--out", type=str, default=None,
                   help="pstats dump path (default "
                        "artifacts/profile-<target>.pstats)")
    p.add_argument("--arg", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="experiment param (VALUE parsed as JSON when "
                        "possible); repeatable, e.g. "
                        "--arg sizes=[1000] --arg compare_max=0")

    p = sub.add_parser(
        "trace", parents=[common],
        help="run a scenario and record its telemetry to JSONL",
    )
    p.add_argument("--scenario", choices=("lan", "wan"), default="lan")
    p.add_argument("--duration", type=float, default=None,
                   help="override the scenario run duration (seconds)")
    p.add_argument("--out", type=str,
                   default=os.path.join("artifacts", "trace.jsonl"),
                   help="output path; a .jsonl.gz suffix gzips the "
                        "stream transparently")
    p.add_argument("--full", action="store_true",
                   help="include firehose kinds (sim.*, net.deliver)")
    p.add_argument("--since", type=float, default=None,
                   help="only export events at/after this sim second")
    p.add_argument("--until", type=float, default=None,
                   help="only export events at/before this sim second")
    p.add_argument("--max-events", dest="max_events", type=int,
                   default=None,
                   help="cap exported events; the file then ends with "
                        "an explicit truncation marker record")

    p = sub.add_parser(
        "report", parents=[common],
        help="reconstruct a run timeline from a telemetry JSONL file",
    )
    p.add_argument("path", type=str)
    p.add_argument("--max-rows", type=int, default=80,
                   help="timeline rows to show before truncating")
    p.add_argument("--since", type=float, default=None,
                   help="only consider events at/after this sim second")
    p.add_argument("--until", type=float, default=None,
                   help="only consider events at/before this sim second")

    p = sub.add_parser(
        "postmortem", parents=[common],
        help="flight-recorder incident reports: what triggered, the "
             "causal chain, the exact takeover decomposition and the "
             "QoE impact",
    )
    p.add_argument("--scenario", choices=("lan", "wan"), default=None,
                   help="run this reference scenario live with the "
                        "recorder attached (default lan)")
    p.add_argument("--duration", type=float, default=None,
                   help="override the run duration (simulated seconds)")
    p.add_argument("--scale", dest="scale_n", type=int, default=None,
                   help="instead run the flyweight chaos rig at this "
                        "population (mid-run crash of the most-loaded "
                        "server)")
    p.add_argument("--shards", type=int, default=None,
                   help="with --scale: run shared-nothing across this "
                        "many shards and merge their incidents")
    p.add_argument("--shard-inline", dest="shard_inline",
                   action="store_true",
                   help="with --shards: run the shards sequentially "
                        "in-process")
    p.add_argument("--from-export", dest="export", type=str, default=None,
                   help="replay a recorded telemetry JSONL/.jsonl.gz "
                        "artifact instead of running anything")
    p.add_argument("--since", type=float, default=None,
                   help="with --from-export: replay window start "
                        "(sim seconds)")
    p.add_argument("--until", type=float, default=None,
                   help="with --from-export: replay window end "
                        "(sim seconds)")
    p.add_argument("--max-rows", dest="max_rows", type=int, default=None,
                   help="table rows per incident section (default 40)")

    p = sub.add_parser(
        "watch", parents=[common],
        help="run a scenario with the live dashboard: clients, buffer "
             "distribution, active spans and SLO state per time slice",
    )
    p.add_argument("--scenario", choices=("lan", "wan"), default="lan")
    p.add_argument("--duration", type=float, default=None,
                   help="override the scenario run duration (seconds)")
    p.add_argument("--interval", type=float, default=10.0,
                   help="simulated seconds per dashboard frame")
    p.add_argument("--max-clients", type=int, default=12,
                   help="client rows per frame")
    p.add_argument("--clear", action="store_true",
                   help="clear the terminal between frames")

    p = sub.add_parser(
        "gate",
        help="judge a run against its committed baseline: scale, shard, "
             "matrix, placement, qoe or postmortem (the last two measure "
             "first when no measured.json is given)",
    )
    p.add_argument("name", help="which gate's table to apply")
    p.add_argument("measured", nargs="?",
                   help="the run's benchmark JSON (qoe and postmortem "
                        "measure and write it when omitted)")
    p.add_argument("baseline", nargs="?",
                   help="reference JSON (default: the gate's committed "
                        "benchmarks/BENCH_*.json)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    name = args.experiment
    if name == "all":
        _run_all(args)
    elif name == "trace":
        _run_trace(args)
    elif name == "report":
        _run_report(args)
    elif name == "watch":
        _run_watch(args)
    elif name == "gate":
        from repro.experiments.gate import main as gate_main

        return gate_main(
            [a for a in (args.name, args.measured, args.baseline) if a]
        )
    elif name == "profile":
        return _run_profile(args)
    else:
        assert name in REGISTRY, f"subcommand {name!r} missing from registry"
        _run_experiment(name, args)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
