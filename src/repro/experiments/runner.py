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

An experiment is declared once, as its
:data:`repro.experiments.api.REGISTRY` entry: :func:`build_parser`
generates its subcommand (help line, flags) from that entry, the CLI
only translates the parsed flags into an
:class:`~repro.experiments.api.ExperimentSpec`, and
:func:`repro.experiments.api.run` dispatches it.  The six tools (``all``,
``profile``, ``trace``, ``report``, ``watch``, ``gate``) are the only
hand-written parsers.

Experiments declared ``telemetry=True`` there (figure4, figure5, chaos,
scale, placement, postmortem) also stream a telemetry JSONL artifact by
default (``artifacts/<name>-telemetry.jsonl``;
``--no-telemetry`` turns it off, ``--telemetry PATH`` redirects it).
Two extra subcommands work with those artifacts directly::

    repro-vod trace --scenario lan --out run.jsonl   # record a run
    repro-vod report run.jsonl                        # reconstruct it

Both accept ``--since``/``--until`` sim-second windows, ``trace --out``
transparently gzips ``.jsonl.gz`` paths, and ``repro-vod postmortem``
renders flight-recorder incident reports from a live scenario, a
flyweight scale run, or a recorded export::

    repro-vod postmortem --scenario lan
    repro-vod postmortem --scale 20000
    repro-vod postmortem --from-export run.jsonl.gz --since 30 --until 60

``repro-vod gate <name> [measured.json] [baseline.json]`` judges a run
against its committed baseline (:mod:`repro.experiments.gate`).

Input the library refuses with a :class:`~repro.errors.ServiceError` (a
flag the chosen source ignores, a missing or corrupt export) prints as
one ``repro-vod: error:`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.errors import ServiceError
from repro.experiments.api import REGISTRY, ExperimentSpec, labelled_path, run

#: Parsed attributes that are not experiment params: the subcommand and
#: the common flags :class:`ExperimentSpec` has fields of its own for.
_NOT_PARAMS = ("experiment", "seed", "telemetry", "no_telemetry")


def _telemetry_path_for(name: str, args: argparse.Namespace) -> Optional[str]:
    if not REGISTRY[name].telemetry or args.no_telemetry:
        return None
    path = args.telemetry or os.path.join("artifacts", f"{name}-telemetry.jsonl")
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return path


def _spec_from_args(name: str, args: argparse.Namespace) -> ExperimentSpec:
    # A subcommand's namespace holds the common flags and its own
    # (``Experiment.flags``), each forwarded under its dest when given.
    params = {
        dest: value
        for dest, value in vars(args).items()
        if dest not in _NOT_PARAMS and value is not None and value is not False
    }
    if "scale_n" in params:  # postmortem --scale N
        params["source"] = "scale"
        params["n"] = params.pop("scale_n")
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
    names = [name for name, entry in REGISTRY.items() if entry.in_all]
    for index, name in enumerate(names):
        if index:
            print("\n" + "=" * 72 + "\n")
        # Each experiment gets the flags it takes, and one file of its
        # own from the one path given, or figure5 would write over
        # figure4's.
        entry = REGISTRY[name]
        own = argparse.Namespace(seed=args.seed, no_telemetry=args.no_telemetry)
        if any(flag_name == "--json" for flag_name, _ in entry.flags):
            own.json = args.json and labelled_path(args.json, name)
        if entry.telemetry:
            own.telemetry = args.telemetry and labelled_path(args.telemetry, name)
        _run_experiment(name, own)


def _run_trace(args: argparse.Namespace) -> None:
    from repro.experiments.scenarios import reference_scenario, run_scenario

    spec = reference_scenario(args.scenario, args.duration)
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


def _run_watch(args: argparse.Namespace) -> None:
    from repro.experiments.scenarios import prepare_scenario, reference_scenario
    from repro.telemetry.qoe import render_scorecards
    from repro.telemetry.slo import render_slo
    from repro.telemetry.watch import WatchState, render_watch

    spec = reference_scenario(args.scenario, args.duration)
    telemetry_path = None if args.no_telemetry else args.telemetry
    if telemetry_path:
        directory = os.path.dirname(telemetry_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
    live = prepare_scenario(
        spec, seed=args.seed, telemetry_path=telemetry_path, observe=True,
        flight=True,
    )
    state = WatchState(live.observers)
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
    # Only the subcommands that export telemetry take these two.
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--telemetry", type=str, default=None,
        help="telemetry JSONL artifact path "
             "(default artifacts/<name>-telemetry.jsonl)",
    )
    telemetry.add_argument(
        "--no-telemetry", action="store_true",
        help="disable the default telemetry artifact",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, entry in REGISTRY.items():
        parents = [common, telemetry] if entry.telemetry else [common]
        p = sub.add_parser(name, parents=parents, help=entry.help)
        for flag, kwargs in entry.flags:
            p.add_argument(flag, **kwargs)
    p = sub.add_parser("all", parents=[common, telemetry], help="everything")
    p.add_argument(
        "--json", type=str, default=None,
        help="dump each experiment that takes --json to its own file: "
             "PATH's root + -<name>.json",
    )

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
                        "--arg sizes=[1000] --arg duration=6")

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
        "watch", parents=[common, telemetry],
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
        help="judge a run against its committed baseline: scale, matrix, "
             "placement, qoe, postmortem or paper (the last three "
             "measure first when no measured.json is given)",
    )
    p.add_argument("name", help="which gate's table to apply")
    p.add_argument("measured", nargs="?",
                   help="the run's benchmark JSON (qoe, postmortem and paper "
                        "measure and write it when omitted)")
    p.add_argument("baseline", nargs="?",
                   help="reference JSON (default: the gate's committed "
                        "benchmarks/BENCH_*.json)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ServiceError as error:
        print(f"repro-vod: error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
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
        _run_experiment(name, args)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
