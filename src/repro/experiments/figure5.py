"""Figure 5: skipped frames on a small-scale WAN.

The WAN scenario (load balance at ~25 s, crash of the transmitting
server ~22 s later) over a seven-hop lossy Internet path:

* (a) cumulative skipped frames grow steadily — the path loses a
  fraction of the packets and lost video frames are never retransmitted
  — with extra steps at the irregularity periods;
* (b) frames discarded due to buffer overflow step up at emergency
  recoveries (startup and migrations) and stay flat otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.scenarios import WAN_SCENARIO, ScenarioResult, run_scenario
from repro.telemetry.series import TimeSeries
from repro.telemetry.text import Table, render_timeseries

EVENT_WINDOW_S = 12.0


@dataclass
class Figure5:
    """Extracted series and summary facts for both panels."""

    result: ScenarioResult
    skipped: TimeSeries
    overflow: TimeSeries
    lb_time: float
    crash_time: float

    # ------------------------------------------------------------------
    # Panel (a)
    # ------------------------------------------------------------------
    def steady_skip_rate(self) -> float:
        """Skipped frames per second over a quiet stretch (loss floor)."""
        start, end = self.crash_time + 15.0, self.result.spec.run_duration_s - 5
        if end <= start:
            start, end = 5.0, self.lb_time - 2
        return self.skipped.increase_over(start, end) / (end - start)

    def skipped_at_crash(self) -> float:
        return self.skipped.increase_over(
            self.crash_time - 1, self.crash_time + EVENT_WINDOW_S
        )

    def loss_fraction(self) -> float:
        """Fraction of transmitted frames never displayed."""
        sent = self.result.total_video_frames()
        return self.skipped.final() / max(1, sent)

    # ------------------------------------------------------------------
    # Panel (b)
    # ------------------------------------------------------------------
    def overflow_at_startup(self) -> float:
        return self.overflow.increase_over(0.0, 20.0)

    def overflow_steady_growth(self) -> float:
        """Overflow discards over a quiet stretch (should be ~0)."""
        start = self.lb_time + EVENT_WINDOW_S
        end = self.crash_time - 2
        return self.overflow.increase_over(start, end)

    def overflow_total(self) -> float:
        return self.overflow.final() or 0.0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary_table(self) -> Table:
        client = self.result.client
        table = Table(
            "Figure 5 — WAN skipped frames (paper shape vs measured)",
            ["panel", "quantity", "paper", "measured"],
        )
        table.add_row(
            "a", "steady skip growth (frames/s)", "> 0 (message loss)",
            f"{self.steady_skip_rate():.2f}",
        )
        table.add_row(
            "a", "extra skips at crash window", "step up",
            f"{self.skipped_at_crash():.0f}",
        )
        table.add_row(
            "a", "video quality vs LAN", "inferior",
            f"{self.loss_fraction() * 100:.1f}% frames undisplayed",
        )
        table.add_row(
            "b", "overflow discards at startup", "step",
            f"{self.overflow_at_startup():.0f}",
        )
        table.add_row(
            "b", "overflow growth in quiet period", "~flat",
            f"{self.overflow_steady_growth():.0f}",
        )
        table.add_row(
            "-", "playback stalls", "jitter <= ~1 s at events",
            f"{client.decoder.stats.stall_time_s:.2f}s total",
        )
        return table



def run_figure5(seed: int = None, telemetry_path: str = None) -> Figure5:
    result = run_scenario(WAN_SCENARIO, seed=seed, telemetry_path=telemetry_path)
    stats = result.client.stats
    return Figure5(
        result=result,
        skipped=stats.skipped_cum,
        overflow=stats.overflow_cum,
        lb_time=result.server_up_times[0],
        crash_time=result.crash_times[0],
    )


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`)."""
    from repro.experiments.api import ExperimentResult, attach_observability

    figure = run_figure5(seed=spec.seed, telemetry_path=spec.telemetry_path)
    result = ExperimentResult(spec=spec, data=figure)
    attach_observability(result, figure.result.qoe, figure.result.slo)
    json_path = spec.params.get("json")
    if json_path:
        figure.result.export_json(json_path)
        result.artifacts["json"] = json_path
        result.blocks.append(f"run exported to {json_path}")
    if spec.telemetry_path:
        result.artifacts["telemetry"] = spec.telemetry_path
    result.blocks.append(figure.summary_table().render())
    markers = [(figure.lb_time, "load balance"), (figure.crash_time, "crash")]
    for title, series in (
        ("Figure 5(a) — cumulative skipped frames", figure.skipped),
        ("Figure 5(b) — frames discarded due to buffer overflow",
         figure.overflow),
    ):
        result.blocks.append(
            render_timeseries(series, title=title, markers=markers)
        )
    return result
