"""Direct tests of the experiment measurement modules (small params)."""

import pytest

from repro.experiments import ExperimentSpec, run
from repro.experiments.ablations import (
    ablate_buffer_size,
    ablate_double_emergency,
    ablate_emergency,
    ablate_fd_timeout,
    ablate_sync_interval,
)
from repro.experiments.capacity import capacity_table, run_capacity_point
from repro.experiments.faults import (
    FaultTrial,
    fault_matrix_table,
    run_group_service_trial,
    run_single_server_trial,
    run_striped_trial,
)
from repro.experiments.gcs_latency import (
    gcs_latency_table,
    measure_group_size,
)
from repro.experiments.overheads import measure_sync_overhead
from repro.experiments.qos import qos_comparison_table, run_wan_trial
from repro.server.rate_controller import EmergencyConfig
from repro.sim.core import Simulator


def experiment(name, **params):
    return lambda seed: run(ExperimentSpec(name, seed=seed, params=params))


@pytest.mark.parametrize("run_seeded", [
    pytest.param(experiment("capacity", populations=(2,)), id="capacity"),
    pytest.param(experiment("faults", duration_s=20.0), id="faults"),
    pytest.param(experiment("gcs", sizes=(2,)), id="gcs"),
    pytest.param(experiment("sync-overhead", clients=1), id="sync-overhead"),
    # ``ablations.run`` hands every sweep the same keyword; the other
    # four sweeps are driven directly, one value each.
    pytest.param(experiment("ablations", only="A-5"), id="ablations-A-5"),
    pytest.param(lambda seed: ablate_buffer_size((37,), seed=seed), id="A-1"),
    pytest.param(
        lambda seed: ablate_emergency((("paper", EmergencyConfig()),), seed=seed),
        id="A-2",
    ),
    pytest.param(lambda seed: ablate_sync_interval((0.5,), seed=seed), id="A-3"),
    pytest.param(lambda seed: ablate_fd_timeout((0.45,), seed=seed), id="A-4"),
])
def test_the_seed_reaches_every_simulator(monkeypatch, run_seeded):
    """``repro-vod capacity --seed 3`` ran seed 51: ``run(spec)`` never
    read ``spec.seed``."""
    seeds = []
    init = Simulator.__init__

    def recording_init(self, seed=0, **kwargs):
        seeds.append(seed)
        init(self, seed=seed, **kwargs)

    monkeypatch.setattr(Simulator, "__init__", recording_init)
    run_seeded(4242)
    assert seeds and set(seeds) == {4242}


class TestOverheads:
    def test_sync_overhead_small(self):
        result = measure_sync_overhead(n_clients=2, duration_s=20.0)
        assert result.video_bytes > 1e6
        assert 0 < result.sync_fraction < 0.01
        assert result.sync_fraction < result.control_fraction
        assert "T-sync" in result.table().render()


class TestAblations:
    def test_hand_built_sweeps_report_their_control_traffic(self):
        """A-4 and A-5 build their own deployments; their rows once read
        a stub result whose control bytes were always 0."""
        rows = ablate_fd_timeout((0.45,)) + ablate_double_emergency((37,))
        assert all(0 < row.control_fraction < 0.05 for row in rows)


class TestFaults:
    def test_single_server_trial_fails(self):
        trial = run_single_server_trial(duration_s=50.0)
        assert not trial.survived
        assert trial.system == "single server"

    def test_group_trial_with_one_kill_survives(self):
        trial = run_group_service_trial(k=2, kills=1, duration_s=50.0)
        assert trial.survived
        assert trial.displayed > 1000

    def test_striped_trial_reports(self):
        trial = run_striped_trial(n=3, kills=1, duration_s=40.0)
        assert trial.survived
        assert trial.kills == 1

    def test_matrix_table_renders(self):
        trials = [
            FaultTrial("x", 1, 1, 0.0, 0, 100),
            FaultTrial("y", 3, 2, 9.0, 500, 100),
        ]
        text = fault_matrix_table(trials).render()
        assert "yes" in text and "NO" in text


class TestCapacity:
    def test_underloaded_point_is_clean(self):
        point = run_capacity_point(4, n_servers=1, duration_s=15.0)
        assert point.clean
        assert point.offered_mbps == pytest.approx(4 * 1.4, rel=0.1)

    def test_table_renders(self):
        point = run_capacity_point(2, n_servers=1, duration_s=10.0)
        assert "E-capacity" in capacity_table([point]).render()


class TestQos:
    def test_reserved_trial_lossless(self):
        trial = run_wan_trial(True, duration_s=40.0, crash_at=20.0)
        assert trial.skipped == trial.overflow  # no network loss
        assert trial.reserved_bps > 1e6

    def test_best_effort_trial_lossy(self):
        trial = run_wan_trial(False, duration_s=40.0, crash_at=20.0)
        assert trial.skipped > trial.overflow

    def test_comparison_table(self):
        a = run_wan_trial(False, duration_s=30.0, crash_at=15.0)
        b = run_wan_trial(True, duration_s=30.0, crash_at=15.0)
        assert "E-qos" in qos_comparison_table(a, b).render()


class TestGcsLatency:
    def test_small_group_latencies(self):
        point = measure_group_size(3)
        assert 0.0 < point.join_latency_s < 0.5
        assert 0.3 < point.crash_latency_s < 1.5
        assert "T-gcs" in gcs_latency_table([point]).render()
