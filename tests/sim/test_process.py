"""Unit tests for periodic timers."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.process import Timer


class TestTimer:
    def test_fires_periodically(self):
        sim = Simulator()
        times = []
        Timer(sim, 1.0, lambda: times.append(sim.now))
        sim.run_until(3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_start_delay_overrides_first_interval(self):
        sim = Simulator()
        times = []
        Timer(sim, 1.0, lambda: times.append(sim.now), start_delay=0.25)
        sim.run_until(2.5)
        assert times == [0.25, 1.25, 2.25]

    def test_cancel_stops_firing(self):
        sim = Simulator()
        times = []
        timer = Timer(sim, 1.0, lambda: times.append(sim.now))
        sim.run_until(2.5)
        timer.cancel()
        sim.run_until(10.0)
        assert times == [1.0, 2.0]
        assert not timer.active

    def test_callback_args(self):
        sim = Simulator()
        seen = []
        Timer(sim, 1.0, seen.append, "tick")
        sim.run_until(2.0)
        assert seen == ["tick", "tick"]

    def test_callback_can_cancel_its_own_timer(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 1.0, lambda: (fired.append(sim.now), timer.cancel()))
        sim.run_until(5.0)
        assert fired == [1.0]

    def test_fired_count(self):
        sim = Simulator()
        timer = Timer(sim, 0.5, lambda: None)
        sim.run_until(2.0)
        assert timer.fired_count == 4

    def test_invalid_interval_raises(self):
        with pytest.raises(SimulationError):
            Timer(Simulator(), 0.0, lambda: None)

    def test_invalid_jitter_raises(self):
        with pytest.raises(SimulationError):
            Timer(Simulator(), 1.0, lambda: None, jitter=1.0)

    def test_jitter_bounds_respected(self):
        sim = Simulator(seed=5)
        times = []
        Timer(sim, 1.0, lambda: times.append(sim.now), jitter=0.2)
        sim.run_until(20.0)
        assert len(times) >= 15
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(0.6 <= gap <= 1.4 for gap in gaps)

    def test_jitter_is_deterministic_per_seed(self):
        def collect(seed):
            sim = Simulator(seed=seed)
            times = []
            Timer(sim, 1.0, lambda: times.append(sim.now), jitter=0.3)
            sim.run_until(10.0)
            return times

        assert collect(7) == collect(7)
        assert collect(7) != collect(8)
