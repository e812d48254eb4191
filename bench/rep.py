"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition, one at a time, and
reads the single JSON line it prints.  The child times its own set-up
(``import repro...`` + rig build), advances the simulator slice by
slice with a calibration chunk after every slice, reads the outcome
back and — with ``--trace 1`` — does all of that under the layer tracer
and writes the trace file.
"""

import argparse
import json
import os
import resource
import sys
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The script's own directory must not shadow stdlib modules (``trace``).
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

from bench import calibrate, workloads  # noqa: E402

#: A slice ends at its simulated boundary or after this many events,
#: whichever comes first: the connect storm of a 20k-viewer rig is cut
#: into ~0.1 s pieces, short against the box's slow episodes.
SLICE_MAX_EVENTS = 6_000


def shard_merge_us() -> float:
    """``shard.merge`` probe: merge two synthetic 10k-viewer payloads."""
    from repro.shard.merge import (
        ScoreHistogram,
        merge_failovers,
        merge_score_histograms,
    )

    histograms = []
    latencies = []
    for shard in range(2):
        histogram = ScoreHistogram()
        for viewer in range(10_000):
            histogram.add(50.0 + ((viewer * 37 + shard) % 500) / 10.0)
        histograms.append(histogram)
        latencies.append([0.4 + (i % 97) * 1e-4 for i in range(3_333)])
    best = None
    for _ in range(20):
        started = perf_counter_ns()
        merge_score_histograms(histograms)
        merge_failovers(latencies)
        elapsed = perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up and stop (one more set-up sample)")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from bench.trace import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    # ---- set-up: imports + rig build ---------------------------------
    calibrate.chunk()  # warm the interpreter's caches; discarded
    chunk_ns = [calibrate.chunk()]
    started = perf_counter_ns()
    rig = workloads.build(args.workload, args.seed)
    setup_ns = perf_counter_ns() - started
    chunk_ns.append(calibrate.chunk())
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_ns": setup_ns,
        "chunk_ns": chunk_ns,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    from repro.sim.gcgate import paused_gc

    # ---- the measured section ----------------------------------------
    sim = rig.sim
    slice_ns = []
    slice_layer_ns = []  # traced: self time per layer, slice by slice
    events = 0
    peak_pending = sim.pending_count()
    calls_in_before = list(tracer.layer_calls_in) if tracer else None

    def timed_slice(step, *args):
        before = list(tracer.layer_self_ns) if tracer else None
        started = perf_counter_ns()
        result = step(*args)
        slice_ns.append(perf_counter_ns() - started)
        chunk_ns.append(calibrate.chunk())
        if tracer:
            slice_layer_ns.append(
                [now - was for now, was in zip(tracer.layer_self_ns, before)]
            )
        return result

    with paused_gc(rig.pause_gc):
        for until in calibrate.slice_boundaries(
            workload.duration_s, workload.slice_s
        ):
            fired = SLICE_MAX_EVENTS
            # A full budget means events <= until may remain (the clock
            # alone cannot tell: the last one fired may sit at ``until``).
            while fired == SLICE_MAX_EVENTS:
                fired = timed_slice(sim.run_until, until, SLICE_MAX_EVENTS)
                events += fired
                peak_pending = max(peak_pending, sim.pending_count())
        if rig.live is not None:
            # run_scenario settles its observers inside the run; so the
            # benchmark pays for that too.
            timed_slice(rig.live.finish)

    # ---- read back ---------------------------------------------------
    report.update(
        slice_ns=slice_ns,
        events=events,
        peak_pending=peak_pending,
        pending_end=sim.pending_count(),
        outcome=workloads.outcome(rig),
    )
    if tracer:
        report["counters"] = workloads.layer_counters(rig)
        report["calls_in_run"] = [
            now - was for now, was in zip(tracer.layer_calls_in, calls_in_before)
        ]
        report["leaked_wrappers"] = tracer.uninstall()
        report["slice_layer_ns"] = slice_layer_ns
        report["trace"] = tracer.summary()
        report["shard_merge_us"] = shard_merge_us()
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            tracer.write(args.trace_out, workload=workload.name, seed=args.seed)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
