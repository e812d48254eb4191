"""Smoke and shape tests for the experiment harness.

The full-length runs are judged by ``repro-vod gate paper``; here short
variants verify the harness machinery (scenario scheduling, series extraction,
table rendering, CLI) and the key shape facts on reduced durations.
"""

import dataclasses

import pytest

from repro.errors import ServiceError
from repro.experiments.figure2 import generate_policy_rows, render_figure2
from repro.experiments.scale import build_scale_rig
from repro.experiments.scenarios import (
    LAN_SCENARIO,
    WAN_SCENARIO,
    build_topology,
    plan_for_spec,
    prepare_scenario,
    run_scenario,
)
from repro.sim.core import Simulator


@pytest.fixture(scope="module")
def short_lan_result():
    spec = dataclasses.replace(
        LAN_SCENARIO,
        movie_duration_s=90.0,
        run_duration_s=90.0,
        schedule=((30.0, "crash-serving"), (50.0, "server-up")),
    )
    return run_scenario(spec)


class TestScenarioHarness:
    def test_events_fire_and_are_recorded(self, short_lan_result):
        assert short_lan_result.crash_times == [30.0]
        assert short_lan_result.server_up_times == [50.0]

    def test_crash_hits_the_serving_server(self, short_lan_result):
        deployment = short_lan_result.deployment
        crashed = [s for s in deployment.servers.values() if not s.running]
        assert len(crashed) == 1
        migrations = short_lan_result.client.stats.migrations
        first_server = migrations[0][2]
        assert crashed[0].process == first_server

    def test_client_survives_both_events(self, short_lan_result):
        client = short_lan_result.client
        assert client.decoder.stats.stall_time_s <= 1.0
        assert client.displayed_total > 80 * 30 * 0.95

    def test_load_balance_migrates_to_new_server(self, short_lan_result):
        deployment = short_lan_result.deployment
        assert deployment.server("server2").n_clients == 1

    def test_traffic_accounting(self, short_lan_result):
        assert short_lan_result.deployment.video_bytes_sent() > 1e7
        assert short_lan_result.deployment.control_bytes_sent() > 0
        assert short_lan_result.total_video_frames() > 2000

    def test_seed_override_changes_stochastic_run(self):
        # A lossless LAN run is legitimately seed-invariant at the
        # client; the WAN's random loss must differ across seeds.
        spec = dataclasses.replace(
            WAN_SCENARIO, movie_duration_s=20.0, run_duration_s=20.0,
            schedule=(),
        )
        a = run_scenario(spec, seed=1)
        b = run_scenario(spec, seed=2)
        # Different frames get lost under different seeds (the counts
        # can coincide; the byte totals expose the difference).
        assert (
            a.client.stats.received_bytes != b.client.stats.received_bytes
            or a.client.stats.received != b.client.stats.received
        )

    def test_same_seed_reproduces_exactly(self):
        spec = dataclasses.replace(
            WAN_SCENARIO, movie_duration_s=20.0, run_duration_s=20.0,
            schedule=(),
        )
        a = run_scenario(spec, seed=9)
        b = run_scenario(spec, seed=9)
        assert a.client.stats.received == b.client.stats.received
        assert a.client.stats.received_bytes == b.client.stats.received_bytes
        assert a.client.skipped_total == b.client.skipped_total

    def test_unknown_action_rejected(self):
        spec = dataclasses.replace(
            LAN_SCENARIO, run_duration_s=5.0, schedule=((1.0, "explode"),)
        )
        with pytest.raises(ServiceError):
            run_scenario(spec)

    @pytest.mark.parametrize(
        "build,match",
        [
            (lambda: build_topology(
                dataclasses.replace(LAN_SCENARIO, network="token-ring"),
                Simulator(seed=1),
            ), "unknown network kind 'token-ring'"),
            (lambda: plan_for_spec(
                dataclasses.replace(LAN_SCENARIO, schedule=((1.0, "explode"),))
            ), "unknown scenario action 'explode'"),
            (lambda: build_scale_rig(4, mode="hologram"),
             "unknown scale-rig mode 'hologram'"),
            (lambda: prepare_scenario(
                dataclasses.replace(LAN_SCENARIO, n_viewers=0)
            ), "at least one viewer, got n_viewers=0"),
        ],
        ids=["network", "schedule-action", "rig-mode", "no-viewers"],
    )
    def test_bad_spec_fails_with_a_typed_error(self, build, match):
        """A bad spec is a :class:`ServiceError` (a ``ReproError``), not
        a bare ``ValueError`` a caller cannot tell from a bug."""
        with pytest.raises(ServiceError, match=match):
            build()

    def test_wan_spec_runs(self):
        spec = dataclasses.replace(
            WAN_SCENARIO,
            movie_duration_s=40.0,
            run_duration_s=40.0,
            schedule=((10.0, "server-up"), (20.0, "crash-serving")),
        )
        result = run_scenario(spec)
        assert result.client.displayed_total > 30 * 30 * 0.9


class TestFigure2:
    def test_rows_cover_all_bands(self):
        rows = generate_policy_rows()
        requests = [row.request for row in rows]
        assert "emergency (level 2)" in requests
        assert "emergency (level 1)" in requests
        assert requests.count("increase") == 2
        assert requests.count("decrease") == 2
        assert "(none)" in requests

    def test_frequencies_match_figure(self):
        rows = generate_policy_rows()
        by_band = {row.band: row.frequency for row in rows}
        urgent = [f for band, f in by_band.items() if "critical" in band]
        assert all(f == "f_urgent" for f in urgent)
        normal = [row for row in rows if row.condition != "-"]
        assert all(row.frequency == "f_normal" for row in normal)

    def test_render_is_a_table(self):
        text = render_figure2()
        assert "Figure 2" in text
        assert "f_urgent" in text


class TestRunnerCli:
    def test_figure2_command(self, capsys):
        from repro.experiments.runner import main

        assert main(["figure2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_parser_rejects_unknown(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["no-such-experiment"])


class TestExport:
    def test_export_dict_is_json_serializable(self, short_lan_result):
        import json

        blob = json.dumps(short_lan_result.export_dict())
        parsed = json.loads(blob)
        assert parsed["counters"]["displayed"] > 0
        assert parsed["events"]["crash"] == [30.0]
        assert len(parsed["series"]["sw_occupancy"]["t"]) > 100
        assert parsed["migrations"][0]["to"].startswith("server")

    def test_export_json_roundtrip(self, short_lan_result, tmp_path):
        import json

        path = tmp_path / "run.json"
        short_lan_result.export_json(str(path))
        parsed = json.loads(path.read_text())
        assert parsed["spec"]["network"] == "lan"
