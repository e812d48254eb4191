"""Unit tests for counters, time series and probes."""

import pytest

from repro.sim.core import Simulator
from repro.telemetry.series import Counter, Probe, TimeSeries


class TestCounter:
    def test_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").add(-1)


class TestTimeSeries:
    def make(self):
        series = TimeSeries("s")
        for t, v in [(0.0, 10.0), (1.0, 20.0), (2.0, 15.0), (3.0, 30.0)]:
            series.record(t, v)
        return series

    def test_len_and_points(self):
        series = self.make()
        assert len(series) == 4
        assert series.points()[0] == (0.0, 10.0)

    def test_out_of_order_rejected(self):
        series = self.make()
        with pytest.raises(ValueError):
            series.record(2.5, 1.0)

    def test_value_at_step_interpolation(self):
        series = self.make()
        assert series.value_at(1.5) == 20.0
        assert series.value_at(0.0) == 10.0
        assert series.value_at(99.0) == 30.0
        assert series.value_at(-1.0) is None

    def test_window(self):
        series = self.make()
        assert series.window(1.0, 2.0) == [(1.0, 20.0), (2.0, 15.0)]

    def test_min_max_mean_over_window(self):
        series = self.make()
        assert series.min(1.0, 3.0) == 15.0
        assert series.max(0.0, 2.0) == 20.0
        assert series.mean(0.0, 1.0) == 15.0

    def test_stats_over_empty_window(self):
        series = self.make()
        assert series.min(10.0, 20.0) is None
        assert series.mean(10.0, 20.0) is None

    def test_final(self):
        assert self.make().final() == 30.0
        assert TimeSeries("empty").final() is None

    def test_increase_over(self):
        series = self.make()
        assert series.increase_over(0.0, 3.0) == 20.0
        assert series.increase_over(-5.0, 0.5) == 10.0


class TestProbe:
    def test_samples_on_period(self):
        sim = Simulator()
        box = {"v": 0}
        probe = Probe(sim, period=0.5)
        series = probe.watch("v", lambda: box["v"])
        sim.call_at(0.9, lambda: box.update(v=7))
        sim.run_until(2.0)
        assert series.value_at(0.6) == 0
        assert series.value_at(1.2) == 7
        probe.stop()

    def test_stop_halts_sampling(self):
        sim = Simulator()
        probe = Probe(sim, period=0.5)
        series = probe.watch("v", lambda: 1)
        sim.run_until(1.0)
        probe.stop()
        count = len(series)
        sim.run_until(5.0)
        assert len(series) == count


def test_removed_shim_paths_stay_removed():
    """The PR-2 deprecation shims are gone; the canonical homes are
    repro.telemetry.series and repro.telemetry.trace."""
    with pytest.raises(ImportError):
        import repro.metrics.collector  # noqa: F401
    with pytest.raises(ImportError):
        import repro.sim.trace  # noqa: F401
