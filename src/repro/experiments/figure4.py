"""Figure 4: overcoming the irregularity of video transmission in a LAN.

Four panels, all measured at the client during the LAN scenario
(crash at ~38 s, load-balance migration at ~62 s):

* (a) cumulative skipped frames — small steps (<= ~6) at each emergency
  period, and none of the overflow victims is an I frame;
* (b) cumulative late frames — duplicate transmissions at each
  migration (the conservative handoff);
* (c) software buffer occupancy — fills to a mean of ~23 frames,
  oscillates between the water marks, drops to zero at the crash and to
  about a quarter of capacity at the load balance;
* (d) hardware buffer occupancy in bytes — fills within ~10 s and dips
  after the crash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.scenarios import LAN_SCENARIO, ScenarioResult, run_scenario
from repro.telemetry.series import TimeSeries
from repro.telemetry.text import Table, render_timeseries

#: Window (seconds) after a scenario event in which its effects land:
#: the refill after a crash overflows the buffers until they settle, up
#: to 13.25 s after it over seeds 11-20.
EVENT_WINDOW_S = 15.0
#: The start-up transient's window, counted from the first session start
#: (the admission queue decides when that is, not the scenario): both
#: buffers are full ~17 s in and overflow for up to 21.8 s over seeds 11-20.
STARTUP_WINDOW_S = 25.0


@dataclass
class Figure4:
    """Extracted series and summary facts for all four panels."""

    result: ScenarioResult
    skipped: TimeSeries
    late: TimeSeries
    sw_occupancy: TimeSeries
    hw_occupancy_bytes: TimeSeries
    crash_time: float
    lb_time: float

    # ------------------------------------------------------------------
    # Panel (a): skipped frames
    # ------------------------------------------------------------------
    def skipped_at_startup(self) -> float:
        started = self.result.client.stats.migrations[0][0]
        return self.skipped.increase_over(0.0, started + STARTUP_WINDOW_S)

    def skipped_at_crash(self) -> float:
        return self.skipped.increase_over(
            self.crash_time - 1, self.crash_time + EVENT_WINDOW_S
        )

    def skipped_at_lb(self) -> float:
        return self.skipped.increase_over(
            self.lb_time - 1, self.lb_time + EVENT_WINDOW_S
        )

    def intra_frames_discarded(self) -> int:
        return self.result.client.stats.overflow_discarded_intra

    # ------------------------------------------------------------------
    # Panel (b): late frames
    # ------------------------------------------------------------------
    def late_at_crash(self) -> float:
        return self.late.increase_over(
            self.crash_time - 1, self.crash_time + EVENT_WINDOW_S
        )

    def late_at_lb(self) -> float:
        return self.late.increase_over(
            self.lb_time - 1, self.lb_time + EVENT_WINDOW_S
        )

    # ------------------------------------------------------------------
    # Panel (c): software buffer
    # ------------------------------------------------------------------
    def sw_mean_steady(self) -> float:
        """Mean occupancy over the quiet stretch after the migrations."""
        start = self.lb_time + 20.0
        return self.sw_occupancy.mean(start, self.result.spec.run_duration_s - 5)

    def sw_min_after_crash(self) -> float:
        return self.sw_occupancy.min(
            self.crash_time, self.crash_time + EVENT_WINDOW_S
        )

    def sw_min_after_lb(self) -> float:
        return self.sw_occupancy.min(self.lb_time, self.lb_time + EVENT_WINDOW_S)

    def sw_fill_time(self) -> float:
        """Seconds until occupancy first reaches 90 % of its steady mean
        (the paper: mean reached after ~14 s)."""
        target = 0.9 * self.sw_mean_steady()
        for time, value in zip(self.sw_occupancy.times, self.sw_occupancy.values):
            if value >= target:
                return time
        return float("inf")

    # ------------------------------------------------------------------
    # Panel (d): hardware buffer
    # ------------------------------------------------------------------
    def hw_fill_time(self) -> float:
        capacity = self.result.client.decoder.capacity_bytes
        for time, value in zip(
            self.hw_occupancy_bytes.times, self.hw_occupancy_bytes.values
        ):
            if value >= 0.9 * capacity:
                return time
        return float("inf")

    def hw_min_fraction_after_crash(self) -> float:
        capacity = self.result.client.decoder.capacity_bytes
        low = self.hw_occupancy_bytes.min(
            self.crash_time, self.crash_time + EVENT_WINDOW_S
        )
        return low / capacity

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary_table(self) -> Table:
        client = self.result.client
        table = Table(
            "Figure 4 — LAN irregularity recovery (paper shape vs measured)",
            ["panel", "quantity", "paper", "measured"],
        )
        table.add_row("a", "skipped per emergency event", "<= 6",
                      f"start={self.skipped_at_startup():.0f} "
                      f"crash={self.skipped_at_crash():.0f} "
                      f"lb={self.skipped_at_lb():.0f}")
        table.add_row("a", "I frames among overflow discards", "0",
                      f"{self.intra_frames_discarded()}")
        table.add_row("b", "late (duplicate) frames at crash", "step",
                      f"{self.late_at_crash():.0f}")
        table.add_row("b", "late (duplicate) frames at load balance", "step",
                      f"{self.late_at_lb():.0f}")
        table.add_row("c", "software mean occupancy (frames)", "~23",
                      f"{self.sw_mean_steady():.1f}")
        table.add_row("c", "software occupancy after crash", "drops to 0",
                      f"{self.sw_min_after_crash():.0f}")
        table.add_row("c", "software occupancy after load balance", "~1/4 cap",
                      f"{self.sw_min_after_lb():.0f}"
                      f"/{client.config.sw_capacity_frames}")
        table.add_row("d", "hardware buffer fill time (s)", "~10",
                      f"{self.hw_fill_time():.1f}")
        table.add_row("d", "hardware dip after crash (fraction)", "~3/4",
                      f"{self.hw_min_fraction_after_crash():.2f}")
        table.add_row("-", "stalls visible to the viewer", "none",
                      f"{client.decoder.stats.stall_time_s:.2f}s")
        table.add_row("-", "image degradation per event", "< 1 s, not noticeable",
                      f"{client.decoder.stats.degraded_frames} frames over "
                      f"{client.decoder.stats.degradation_episodes} episode(s)")
        return table



def run_figure4(seed: int = None, telemetry_path: str = None) -> Figure4:
    result = run_scenario(LAN_SCENARIO, seed=seed, telemetry_path=telemetry_path)
    stats = result.client.stats
    return Figure4(
        result=result,
        skipped=stats.skipped_cum,
        late=stats.late_cum,
        sw_occupancy=stats.sw_occupancy,
        hw_occupancy_bytes=stats.hw_occupancy_bytes,
        crash_time=result.crash_times[0],
        lb_time=result.server_up_times[0],
    )


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`)."""
    from repro.experiments.api import ExperimentResult, attach_observability

    figure = run_figure4(seed=spec.seed, telemetry_path=spec.telemetry_path)
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
    markers = [(figure.crash_time, "crash"), (figure.lb_time, "load balance")]
    for title, series in (
        ("Figure 4(a) — cumulative skipped frames", figure.skipped),
        ("Figure 4(b) — cumulative late frames", figure.late),
        ("Figure 4(c) — software buffer occupancy (frames)",
         figure.sw_occupancy),
        ("Figure 4(d) — hardware buffer occupancy (bytes)",
         figure.hw_occupancy_bytes),
    ):
        result.blocks.append(
            render_timeseries(series, title=title, markers=markers)
        )
    return result
