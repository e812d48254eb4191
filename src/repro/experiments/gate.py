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

``scale``, ``matrix`` and ``placement`` judge the file written by
``repro-vod scale|matrix|placement --benchmark-json``; ``qoe``, ``postmortem``
and ``paper`` run their own workload when ``measured.json`` is omitted and
write ``artifacts/BENCH_<name>.json`` first.  A baseline is reference values
plus ``tolerances``: regenerate one by re-running the producing command and
copying the values.  ``paper`` is the exception: its baseline is what the
*paper* says (``benchmarks/BENCH_paper_claims.json``), so a measurement that
leaves it is a finding to write down in EXPERIMENTS.md, not a value to copy.
Exit 0 on pass, 1 on failure, 2 on a usage error, such as a bad baseline
(one ``error:`` line naming the file).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ServiceError

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


def measure_postmortem(n: int = 20_000) -> Dict:
    """The seeded chaos point (flyweight viewers, the most-loaded server
    crashed mid-run) with the flight recorder off and on."""
    from repro.experiments.scale import run_scale_point
    from repro.telemetry.flight import Incident
    from repro.telemetry.postmortem import render_incidents

    def signature(p) -> Dict:
        return {"events": p.events, "frames": p.frames_delivered,
                "takeovers": p.takeovers, "failover_latencies": p.failover_latencies}

    rig = dict(duration_s=12.0, seed=77)
    plain = run_scale_point(n, flyweight=True, **rig)
    recorded = run_scale_point(n, flyweight=True, flight=True, **rig)
    return {
        "n": n,
        "signatures": {"recorder_off": signature(plain), "recorder_on": signature(recorded)},
        "incidents": {"flyweight": recorded.incidents},
        "metering": {"flyweight": recorded.flight or {}},
        "report": render_incidents(
            [Incident.from_dict(i) for i in recorded.incidents],
            metering=recorded.flight,
        ),
    }


#: Seeds of the two claims judged as distributions (the baseline lists the
#: same ones: a seed measured but not listed is not judged, one listed but
#: not measured fails as missing).
FIG4A_SEEDS = range(11, 21)
A5_SEEDS = (*range(1, 11), 31)


def measure_paper() -> Dict:
    """Every experiment EXPERIMENTS.md quotes, run through ``api.run`` (the
    path ``repro-vod`` takes) at its documented seed — LAN 11, WAN 5 — plus
    the two claims about a distribution, over their seed ranges.  Values a
    row compares with each other are measured here once, under ``margins``."""
    from dataclasses import asdict

    from repro.client.flow_control import LOW_WATER_FRAC
    from repro.client.player import ClientConfig
    from repro.experiments.api import ExperimentSpec, run
    from repro.experiments.figure5 import EVENT_WINDOW_S
    from repro.experiments.scenarios import LAN_SCENARIO
    from repro.faulting.chaos import total_violations
    from repro.media.movie import DEFAULT_FPS
    from repro.server.rate_controller import EmergencyConfig

    def data(name: str, seed: Optional[int] = None, **params):
        return run(ExperimentSpec(name, seed=seed, params=params)).data

    def sweep(rows) -> Dict:  # a dotted path cannot hold "0.25"
        return {row.value.replace(".", "_"): asdict(row) for row in rows}

    def sync(clients: int) -> Dict:
        result = data("sync-overhead", clients=clients)
        return dict(asdict(result), sync_fraction=result.sync_fraction,
                    control_fraction=result.control_fraction)

    def panel_a(figure) -> Dict:
        skipped = {"startup": figure.skipped_at_startup(),
                   "crash": figure.skipped_at_crash(), "lb": figure.skipped_at_lb()}
        return {"skipped": skipped,
                "outside_events": figure.skipped.final() - sum(skipped.values()),
                "intra_frames_discarded": figure.intra_frames_discarded()}

    policy = data("figure2")
    figures = {seed: data("figure4", seed) for seed in FIG4A_SEEDS}
    figure4 = figures[LAN_SCENARIO.seed]
    player = figure4.result.client
    late = {"crash": figure4.late_at_crash(), "lb": figure4.late_at_lb()}
    sw_mean, sw_lb = figure4.sw_mean_steady(), figure4.sw_min_after_lb()

    figure5 = data("figure5")
    overflow = figure5.overflow_total()
    overflow_at_events = figure5.overflow_at_startup() + sum(
        figure5.overflow.increase_over(at - 1, at + EVENT_WINDOW_S)
        for at in (figure5.lb_time, figure5.crash_time)
    )

    emergency, takeover = data("emergency"), data("takeover")
    video_s = ClientConfig().combined_capacity_frames() / DEFAULT_FPS
    faults = {f"{t.system}, {t.kills} kill(s)": dict(asdict(t), survived=t.survived)
              for t in data("faults")}
    chaos = data("chaos")
    best_effort, reserved = data("qos")
    gcs = {p.group_size: p for p in data("gcs")}
    ablations = {title.split()[0]: sweep(rows)
                 for title, rows in data("ablations").items()}
    a4 = ablations["A-4"]
    return {
        "schema": 1,
        "figure2": {"requests": [row.request for row in policy],
                    "frequencies": [row.frequency for row in policy]},
        "fig4a": {f"fig4a[seed={seed}]": panel_a(fig) for seed, fig in figures.items()},
        "figure4": {
            "late": late,
            "late_outside_events": figure4.late.final() - sum(late.values()),
            "sw": {"mean_steady": sw_mean,
                   "min_after_crash": figure4.sw_min_after_crash(),
                   "min_after_lb": sw_lb,
                   "min_after_lb_fraction": sw_lb / player.config.sw_capacity_frames,
                   "fill_time_s": figure4.sw_fill_time()},
            "hw": {"fill_time_s": figure4.hw_fill_time(),
                   "min_fraction_after_crash": figure4.hw_min_fraction_after_crash()},
            "stall_s": player.decoder.stats.stall_time_s,
            "degraded_frames_per_episode": player.decoder.stats.degraded_frames
            / max(1, player.decoder.stats.degradation_episodes),
        },
        "figure5": {
            "steady_skip_rate": figure5.steady_skip_rate(),
            "loss_fraction": figure5.loss_fraction(),
            "skipped": {"at_30s": figure5.skipped.value_at(30.0),
                        "crash_window": figure5.skipped_at_crash(),
                        "final": figure5.skipped.final()},
            "overflow": {"total": overflow, "startup": figure5.overflow_at_startup(),
                         "at_events_fraction": overflow_at_events / max(1, overflow)},
            "stall_s": figure5.result.client.decoder.stats.stall_time_s,
        },
        "sync": {f"sync[clients={n}]": sync(n) for n in (4, 8)},
        "emergency": {
            "severe_sequence": emergency.severe_sequence,
            "severe_sum": sum(emergency.severe_sequence),
            "mild_sequence": emergency.mild_sequence,
            "mild_sum": sum(emergency.mild_sequence),
            "added_rate_fraction": EmergencyConfig().base_severe / DEFAULT_FPS,
            "peak_rate_fraction": emergency.peak_rate_fraction,
        },
        "takeover": {
            "trials": len(takeover.takeover_times),
            "mean_s": takeover.mean_takeover,
            "worst_gap_s": max(takeover.irregularity_gaps),
            "buffer_video_s": video_s,
            "lwm_covers_s": LOW_WATER_FRAC * video_s,
        },
        "faults": faults,
        "chaos": {
            "plans": len(chaos),
            "violations": len(total_violations(chaos)),
            "crashes": sum(trial.crashes for trial in chaos),
            "takeovers": sum(trial.takeovers for trial in chaos),
            "min_displayed": min(trial.displayed for trial in chaos),
        },
        "qos": {
            label: dict(asdict(trial), loss_skips=trial.skipped - trial.overflow)
            for label, trial in (("best_effort", best_effort), ("reserved", reserved))
        },
        "gcs": {f"gcs[members={n}]": asdict(point) for n, point in gcs.items()},
        "capacity": {f"{p.n_clients}x{p.n_servers}": asdict(p) for p in data("capacity")},
        "ablations": ablations,
        "a5": {
            f"a5[seed={seed}]": sweep(*data("ablations", seed, only="A-5").values())
            for seed in A5_SEEDS
        },
        "margins": {
            "sw_lb_dip_below_mean_frames": sw_mean - sw_lb,
            "striped2_per_ours2_skipped":
                faults["Tiger-like striped, 2 kill(s)"]["skipped"]
                / max(1, faults["group-communication VoD, 2 kill(s)"]["skipped"]),
            "qos_late_frames_saved": best_effort.late - reserved.late,
            "gcs_crash_latency_2_to_16_s":
                gcs[16].crash_latency_s - gcs[2].crash_latency_s,
            "a4_stall_added_by_2s_detection_s": a4["2_0"]["stall_s"] - a4["0_45"]["stall_s"],
        },
    }


_FLY = ("flyweight", "n_clients")
_SEEDED = "the seeded run must be deterministic"
_SILENT = ("the invariant checker must stay silent: faults, migrations and admission "
           "throttling all preserve exactly-one-adoption and offset continuity")
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
    Row(_FLY, "unlisted", "zero", None,
        "every row the crashed server served is adopted by a survivor; "
        "proven at the rig's S = 3 only (one early crash loses rows at "
        "S >= 4)"),
    Row(_FLY, "listed_twice", "zero", None,
        "and by exactly one: no row streamed by two servers"),
    Row(_FLY, "slo.*.ok", "is_true", None,
        "the whole run must meet the paper's service levels"),
)


# The paper gate: EXPERIMENTS.md's claims, one row each.  A bound the paper
# states (43, "< 1/1000", ~0.5 s) is a ``tolerances`` key of the baseline; a
# literal is a count that only has to be there at all.
_FEW_SKIPS = ('"no more than six frames were skipped following each emergency period '
              '(at startup, failure, and migration due to load balancing)": 0-12 '
              'here over seeds 11-20, so twice the paper\'s figure is the bound')
_NO_FREEZE = "no viewer may see a freeze: the buffers cover the whole irregularity period"
_SMOOTH = "the paper's setting keeps playback smooth through the crash and the load balance"
_SYNC_PERIOD = ("both servers may transmit the frames of one sync period at a "
                "migration: a step of duplicates, at most half a second of them")
_BUFFER = '"approximately 2.4 seconds of video"'
_LWM = "the low water mark at 73 % covers ~1.7 s of irregularity"
_EXERCISED = "the sweep must exercise failover, not dodge it"
_PAPER = (
    Row("", "figure2.requests", "exact", None,
        "Figure 2, row for row: emergency (two tiers), increase, then increase / "
        "decrease / none between the water marks, decrease"),
    Row("", "figure2.frequencies", "exact", None,
        "urgent frequency everywhere outside the water marks, normal between them"),
    # Figure 4 (LAN; panel a over seeds 11-20, the rest at the documented seed).
    Row("fig4a", "skipped.*", "ceiling", "skipped_per_event", _FEW_SKIPS),
    Row("fig4a", "outside_events", "zero", None,
        "a lossless LAN skips nothing outside the three emergency windows"),
    Row("fig4a", "intra_frames_discarded", "zero", None,
        '"none of the skipped frames was an I frame"'),
    Row("", "figure4.degraded_frames_per_episode", "ceiling", "gop_frames",
        "so each loss damages under one GOP (< 1 s) of picture: "
        '"not noticeable to a human observer"'),
    Row("", "figure4.late.*", "floor", 1, _SYNC_PERIOD),
    Row("", "figure4.late.*", "ceiling", "late_per_migration", _SYNC_PERIOD),
    Row("", "figure4.late_outside_events", "zero", None,
        "on a LAN nothing else arrives late"),
    Row("", "figure4.sw.mean_steady", "floor", "sw_mean_floor",
        '"the software buffers reach their mean occupancy (around 23 frames)"'),
    Row("", "figure4.sw.mean_steady", "ceiling", "sw_mean_ceiling",
        "and oscillate between the water marks, not above them"),
    Row("", "figure4.sw.min_after_crash", "ceiling", "sw_crash_dip",
        '"drops to zero when the client is migrated due to a failure"'),
    Row("", "figure4.sw.min_after_lb_fraction", "ceiling", "sw_lb_dip_fraction",
        "the load-balance dip is to about a quarter of capacity"),
    Row("", "margins.sw_lb_dip_below_mean_frames", "floor", 1,
        "the load-balance dip is clearly below the steady mean"),
    Row("", "figure4.sw.min_after_lb", "relation", "figure4.sw.min_after_crash",
        "and shallower than the crash dip: no failure detection delay to drain through"),
    Row("", "figure4.sw.fill_time_s", "ceiling", "sw_fill_time_s",
        "the mean is reached within tens of seconds of start-up (paper: ~14 s)"),
    Row("", "figure4.hw.fill_time_s", "ceiling", "hw_fill_time_s",
        '"the hardware buffers fill up approximately 10 seconds after the first frame"'),
    Row("", "figure4.hw.min_fraction_after_crash", "floor", "hw_crash_dip_floor",
        "the hardware buffer never empties (paper: drops to ~3/4)"),
    Row("", "figure4.hw.min_fraction_after_crash", "ceiling", "hw_crash_dip_ceiling",
        "but it does dip after the crash"),
    Row("", "figure4.stall_s", "ceiling", "invisible_stall_s",
        "the viewer never noticed either event"),
    # Figure 5 (WAN).
    Row("", "figure5.steady_skip_rate", "floor", "wan_skip_rate_floor",
        '"a certain percentage of the messages are lost": steady growth'),
    Row("", "figure5.loss_fraction", "floor", "wan_loss_floor",
        '"the quality of displayed video is inferior to ... a LAN": some frames never shown'),
    Row("", "figure5.loss_fraction", "ceiling", "wan_loss_ceiling",
        "but a small fraction of them"),
    Row("", "figure5.skipped.at_30s", "floor", 1, "loss starts with the stream"),
    Row("", "figure5.skipped.final", "relation", "figure5.skipped.at_30s",
        "the curve keeps growing across the run, not a one-off step"),
    Row("", "figure5.overflow.total", "floor", 1,
        '"at irregularity periods additional frames are skipped due to buffer overflow"'),
    Row("", "figure5.overflow.total", "ceiling", "wan_overflow_ceiling",
        "overflow is a small correction, not a second loss channel"),
    Row("", "figure5.overflow.at_events_fraction", "floor", "wan_overflow_at_events",
        "overflow lands in the start-up / load-balance / crash windows, flat elsewhere"),
    # T-sync, T-emergency, T-buffer.
    Row("sync", "sync_fraction", "ceiling", "sync_fraction",
        '"the overhead for synchronization consumes less than one thousandth of the '
        'total communication bandwidth", at 4 and at 8 clients'),
    Row("sync", "video_bytes", "floor", "sync_video_bytes_floor",
        "measured against a real volume of video, not an idle service"),
    Row("", "emergency.severe_sum", "exact", None,
        "q = 12, f = 0.8 delivers exactly 43 extra frames"),
    Row("", "emergency.mild_sum", "floor", "mild_sum_paper",
        'q = 6: the paper\'s "sums up to 15"'),
    Row("", "emergency.mild_sum", "ceiling", "mild_sum_iterated_floor",
        "the truncation that yields the severe tier's exact 43 gives 16 here"),
    Row("", "emergency.added_rate_fraction", "ceiling", "emergency_rate_fraction",
        '"increase the bandwidth consumption at emergency periods by no more than 40% '
        'of the mean bandwidth"'),
    Row("", "emergency.peak_rate_fraction", "ceiling", "emergency_peak_fraction",
        "end to end, with the duplicate replay at take-over on top of the 40 %"),
    Row("", "takeover.trials", "exact", None, "every crash trial must migrate the client"),
    Row("", "takeover.mean_s", "floor", "takeover_mean_floor_s",
        "detection is a timeout: a take-over far under it measured something else"),
    Row("", "takeover.mean_s", "ceiling", "takeover_mean_ceiling_s",
        '"the take over time was half a second on the average"'),
    Row("", "takeover.worst_gap_s", "ceiling", "irregularity_covered_s",
        "the worst irregularity stays within what the low-water-mark buffer covers"),
    Row("", "takeover.buffer_video_s", "floor", "buffer_video_floor_s", _BUFFER),
    Row("", "takeover.buffer_video_s", "ceiling", "buffer_video_ceiling_s", _BUFFER),
    Row("", "takeover.lwm_covers_s", "floor", "lwm_covers_floor_s", _LWM),
    Row("", "takeover.lwm_covers_s", "ceiling", "lwm_covers_ceiling_s", _LWM),
    # T-ft, chaos.
    Row("faults", "survived", "exact", None,
        '"if a movie is replicated k times, then up to k-1 failures are tolerated"; '
        'striping "smoothly tolerates the failure of one server, but not necessarily '
        'two"; a single server tolerates none'),
    Row("", "faults.Tiger-like striped, 2 kill(s).skipped", "floor", 101,
        "the second failure costs the striped cluster periodic block loss"),
    Row("", "margins.striped2_per_ours2_skipped", "floor", "striped_per_ours_skipped",
        "and the service beats striping on two failures by a wide margin"),
    Row("", "chaos.violations", "zero", None, _SILENT),
    Row("", "chaos.crashes", "floor", 10, _EXERCISED),
    Row("", "chaos.takeovers", "floor", 10, _EXERCISED),
    Row("", "chaos.min_displayed", "floor", 1,
        "every client keeps a watchable stream on every seed"),
    # E-qos, T-gcs, E-capacity.
    Row("", "qos.best_effort.loss_skips", "floor", 11,
        "best effort loses frames steadily"),
    Row("", "qos.reserved.loss_skips", "zero", None, "the reservation loses none"),
    Row("", "qos.*.stall_s", "ceiling", "visible_stall_s",
        "the crash failover is covered by the buffers either way"),
    Row("", "margins.qos_late_frames_saved", "floor", 0,
        "the reservation never adds reordering-induced lateness"),
    Row("gcs", "join_latency_s", "ceiling", "gcs_join_ceiling_s",
        "joins are fast: milliseconds on a LAN, no detection timeout"),
    Row("gcs", "crash_latency_s", "floor", "gcs_crash_floor_s",
        "crash recovery is dominated by the ~0.45 s failure-detection timeout"),
    Row("gcs", "crash_latency_s", "ceiling", "gcs_crash_ceiling_s",
        '"the take over time was half a second"'),
    Row("", "margins.gcs_crash_latency_2_to_16_s", "ceiling", "gcs_crash_growth_s",
        "and essentially flat in group size: the loose coupling the design banks on"),
    Row("", "capacity.10x1.worst_stall_s", "ceiling", "visible_stall_s", _NO_FREEZE),
    Row("", "capacity.30x1.worst_stall_s", "ceiling", "visible_stall_s", _NO_FREEZE),
    Row("", "capacity.70x1.worst_stall_s", "floor", "collapse_stall_s",
        "past the uplink's capacity the transmit queue collapses playback"),
    Row("", "capacity.70x2.worst_stall_s", "ceiling", "visible_stall_s",
        '"new servers may be brought up on the fly to alleviate the load": the '
        "same population plays without a freeze again"),
    # A-1..A-5.
    Row("", "ablations.A-1.37.stall_s", "ceiling", "invisible_stall_s", _SMOOTH),
    Row("", "ablations.A-1.10.skipped", "relation", "ablations.A-1.37.skipped",
        "a tiny buffer cannot hold the refill, let alone an irregularity period"),
    Row("", "ablations.A-1.74.stall_s", "ceiling", "invisible_stall_s",
        "an oversized buffer is no worse for continuity"),
    Row("", "ablations.A-2.paper (q=12/6).stall_s", "ceiling", "invisible_stall_s", _SMOOTH),
    Row("", "ablations.A-2.paper (q=12/6).overflow", "relation",
        "ablations.A-2.no refill.overflow",
        "overflow discards are the refill's signature: without it there are none"),
    Row("", "ablations.A-2.aggressive (q=24/12).overflow", "relation",
        "ablations.A-2.paper (q=12/6).overflow", "and an aggressive refill overflows more"),
    Row("", "ablations.A-3.2_0.late", "relation", "ablations.A-3.0_25.late",
        "duplicates grow with the sync interval: the take-over offset is up to one "
        "interval stale"),
    Row("", "ablations.A-3.0_25.control_fraction", "relation",
        "ablations.A-3.2_0.control_fraction",
        "while control overhead shrinks as the interval grows"),
    Row("", "ablations.A-4.0_45.stall_s", "ceiling", "invisible_stall_s",
        "the paper's ~0.5 s detection keeps the stall invisible"),
    Row("", "margins.a4_stall_added_by_2s_detection_s", "floor", "frame_period_s",
        "a 2 s detector exceeds what the buffers cover"),
    Row("a5", "37.skipped", "floor", 1,
        '"our buffer sizes account for a single emergency situation": a second '
        "crash 1 s after the first costs the paper-sized buffer frames at every seed"),
    Row("a5", "74.skipped", "zero", None,
        '"the buffer size should be enlarged": doubled, it rides both failures out'),
    Row("a5", "37.stall_s", "zero", None, "though even that one never shows a freeze"),
    Row("a5", "74.stall_s", "zero", None, "nor, of course, does the doubled one"),
)


GATES: Dict[str, Gate] = {
    "scale": Gate("benchmarks/BENCH_scale_flyweight.json", _SCALE),
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
    ), measure_postmortem),
    "paper": Gate("benchmarks/BENCH_paper_claims.json", _PAPER, measure_paper),
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


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("not a JSON object")
    return loaded


def load_baseline(name: str, path: Optional[str]) -> Optional[Dict]:
    """Gate ``name``'s baseline (None without a path).  One that cannot
    be read, is not a JSON object or lacks a key a row's scope selects
    on raises :class:`ServiceError` naming the file (and the key)."""
    if path is None:
        return None
    try:
        baseline = _load(path)
    except (OSError, ValueError) as error:
        raise ServiceError(f"baseline {path}: {error}") from None
    for row in GATES[name].rows:
        keys = [row.scope] if isinstance(row.scope, str) else row.scope[1:]
        for key in filter(None, keys):
            if key not in baseline:
                raise ServiceError(
                    f'baseline {path}: no "{key}" key, which {name} rows select on'
                )
    return baseline


def check(name: str, measured_path: str, baseline: Optional[Dict]) -> List[str]:
    """Judge the measurement at ``measured_path`` against a loaded
    baseline; an unreadable measurement is a failure line."""
    try:
        measured = _load(measured_path)
    except (OSError, ValueError) as error:
        return [f"FAIL {name} unreadable: {measured_path} ({error})"]
    return judge(name, measured, baseline)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name, measured_path, baseline_path = (argv + [None] * 3)[:3]
    gate = GATES.get(name) if len(argv) <= 3 else None
    if gate is None or (measured_path is None and gate.measure is None):
        print(__doc__)
        measuring = ", ".join(n for n, g in GATES.items() if g.measure)
        print(f"gates: {', '.join(GATES)}; only {measuring} can omit measured.json")
        return 2
    try:  # before a measurement is spent on it
        baseline = load_baseline(name, baseline_path or gate.baseline)
    except ServiceError as error:
        print(f"error: {error}")
        return 2
    if measured_path is None:
        measured_path = os.path.join("artifacts", f"BENCH_{name}.json")
        os.makedirs("artifacts", exist_ok=True)
        with open(measured_path, "w", encoding="utf-8") as fh:
            json.dump(gate.measure(), fh, indent=1, default=str)
        print(f"{name} gate measurements written to {measured_path}")
    failures = check(name, measured_path, baseline)
    print("\n".join(failures) if failures else
          f"{name} gate passed: all {len(gate.rows)} checks hold on {measured_path}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
