"""InvariantChecker: silent on healthy and recovering runs, loud on
synthetic contract breaches."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.experiments.scenarios import (
    WAN_SCENARIO,
    WorkloadSpec,
    prepare_scenario,
)
from repro.faulting.injector import FaultInjector
from repro.faulting.invariants import (
    FLUSH_BOUND_S,
    InvariantChecker,
    _ClientTrack,
)
from repro.faulting.plan import FaultPlan
from repro.gcs.endpoint import GroupListener
from repro.gcs.membership import MemberState
from repro.media.catalog import MovieCatalog
from repro.media.movie import DEFAULT_FPS, Movie
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.sim.core import Simulator


def make_checked_service(k=2, seed=23, movie_s=80.0):
    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=k + 2)
    catalog = MovieCatalog([Movie.synthetic("m", duration_s=movie_s)])
    deployment = Deployment(topology, catalog, server_nodes=list(range(k)))
    checker = InvariantChecker(deployment).install()
    client = deployment.attach_client(k)
    client.request_movie("m")
    return sim, deployment, client, checker


def test_healthy_run_is_silent():
    sim, _deployment, _client, checker = make_checked_service()
    sim.run_until(30.0)
    assert checker.final_check() == []
    assert checker.ok
    assert checker.samples > 100
    assert checker.report().startswith("OK")


def test_crash_takeover_is_clean_and_recorded():
    sim, deployment, client, checker = make_checked_service()
    plan = FaultPlan().crash_serving(at=20.0)
    FaultInjector(deployment, plan, client=client).start()
    sim.run_until(45.0)
    assert checker.final_check() == [], checker.report()
    assert len(checker.takeovers) >= 1
    _t, who, _server, offset = checker.takeovers[0]
    assert who == client.name
    assert offset > 0


def test_offset_bound_uses_emergency_inflated_rate():
    _sim, _deployment, _client, checker = make_checked_service()
    assert checker.offset_bound_frames >= 1.4 * DEFAULT_FPS * 0.5


def test_takeover_offset_regression_detected():
    _sim, _deployment, client, checker = make_checked_service()
    track = _ClientTrack(down_offset=1000)
    record = SimpleNamespace(offset=1000 - checker.offset_bound_frames - 1)
    checker._check_takeover_offset(record, client, track)
    assert [v.rule for v in checker.violations] == ["takeover-offset-regression"]


def test_takeover_offset_skip_detected():
    _sim, _deployment, client, checker = make_checked_service()
    track = _ClientTrack(down_offset=1000)
    record = SimpleNamespace(offset=1000 + checker.offset_bound_frames + 1)
    checker._check_takeover_offset(record, client, track)
    assert [v.rule for v in checker.violations] == ["takeover-offset-skip"]


def test_takeover_offset_within_bound_accepted():
    _sim, _deployment, client, checker = make_checked_service()
    track = _ClientTrack(down_offset=1000)
    for offset in (
        1000,
        1000 - checker.offset_bound_frames,
        1000 + checker.offset_bound_frames,
    ):
        checker._check_takeover_offset(
            SimpleNamespace(offset=offset), client, track
        )
    assert checker.violations == []


def test_takeover_without_baseline_is_not_judged():
    _sim, _deployment, client, checker = make_checked_service()
    checker._check_takeover_offset(
        SimpleNamespace(offset=5000), client, _ClientTrack(down_offset=None)
    )
    checker._check_takeover_offset(
        SimpleNamespace(offset=5000), client, _ClientTrack(down_offset=0)
    )
    assert checker.violations == []


def test_install_is_idempotent():
    _sim, _deployment, _client, checker = make_checked_service()
    assert checker.install() is checker


def test_report_lists_violations():
    _sim, _deployment, _client, checker = make_checked_service()
    checker._violation("demo-rule", "c", "something broke")
    assert not checker.ok
    assert "demo-rule" in checker.report()
    assert "something broke" in str(checker.violations[0])


# ----------------------------------------------------------------------
# Rule 5: bounded flush
# ----------------------------------------------------------------------
def test_bounded_flush_fires_when_a_live_member_never_answers():
    """A member whose daemon heartbeats but which never sends its flush
    vector keeps the proposer re-proposing for ever: rules 1 - 4 hold
    (the stream itself is UDP), rule 5 names the group."""
    sim, deployment, client, checker = make_checked_service()
    sim.run_until(5.0)
    group = client.session_name
    mute = deployment.domain.endpoint(client.node_id)._members[group]
    mute.on_propose = lambda propose: None
    spare = deployment.domain.ensure_endpoint(deployment.topology.hosts[3])
    spare.join(group, "extra", GroupListener())
    sim.run_until(5.0 + FLUSH_BOUND_S + 1.5)
    assert {v.rule for v in checker.violations} == {"unbounded-flush"}
    assert all(group in v.detail for v in checker.violations)
    assert str(client.process) in checker.violations[0].detail
    # Reported once per stuck member, not once per sample.
    reported = len(checker.violations)
    sim.run_until(5.0 + 3 * FLUSH_BOUND_S)
    assert len(checker.violations) == reported


def wan_flash_crowd(seed, run_s):
    """The paper's WAN rig with a flash crowd riding along — the input on
    which a server brought up mid-run joins two session groups and is
    shed from them 0.2 ms later, before their flush has finished."""
    spec = replace(
        WAN_SCENARIO,
        workload=WorkloadSpec("flash-crowd", n_viewers=8, at_s=2.0, spread_s=4.0),
        n_client_hosts=9,
        run_duration_s=run_s,
        schedule=((12.5, "server-up"),),
    )
    live = prepare_scenario(spec, seed=seed)
    checker = InvariantChecker(live.result.deployment).install()
    live.step(run_s)
    return live, checker


@pytest.mark.parametrize("seed", [3, 77])
def test_a_joiner_that_leaves_mid_flush_does_not_wedge_the_group(seed):
    live, checker = wan_flash_crowd(seed, run_s=20.0)
    assert checker.final_check() == [], checker.report()
    domain = live.result.deployment.domain
    stuck = [
        (daemon, member.group)
        for daemon in domain.daemon_nodes()
        for member in domain.endpoint(daemon).group_members()
        if member.state != MemberState.NORMAL
    ]
    assert stuck == []
