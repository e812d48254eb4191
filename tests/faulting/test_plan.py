"""The FaultPlan DSL: construction, validation, seeded generation."""

import dataclasses

import pytest

from repro.errors import FaultError, ServiceError
from repro.experiments.scenarios import LAN_SCENARIO, plan_for_spec
from repro.faulting.plan import (
    CrashServing,
    FaultPlan,
    HealHost,
    IsolateHost,
    Partition,
    ServerUp,
)
from repro.net.link import LinkFault


class TestBuilder:
    def test_builder_orders_and_describes(self):
        plan = (
            FaultPlan(name="figure5")
            .crash_serving(at=47.0)
            .server_up(at=25.0, host=3)
        )
        assert len(plan) == 2
        ordered = plan.sorted_actions()
        assert isinstance(ordered[0], ServerUp) and ordered[0].at == 25.0
        assert isinstance(ordered[1], CrashServing) and ordered[1].at == 47.0
        assert plan.horizon == 47.0
        assert any("crash" in line for line in plan.describe())

    def test_builder_is_persistent(self):
        base = FaultPlan(name="base")
        extended = base.crash_serving(at=10.0)
        assert len(base) == 0
        assert len(extended) == 1

    def test_empty_plan_horizon_zero(self):
        assert FaultPlan().horizon == 0.0

    def test_full_dsl_surface(self):
        fault = LinkFault(drop_prob=0.1)
        plan = (
            FaultPlan(name="everything")
            .crash(1.0, "server0")
            .stop(2.0, "server1")
            .restart(3.0, "server0")
            .partition(4.0, [0, 1], [2, 3])
            .isolate(5.0, 2)
            .heal_host(6.0, 2)
            .heal_all(7.0)
            .impair_host(9.0, 0, fault)
            .false_suspicion(11.0, 1, mute_for_s=0.4)
        )
        plan.validate()
        assert len(plan) == 9
        assert plan.horizon == 11.0


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan().crash_serving(at=-1.0)

    def test_crash_needs_server_name(self):
        with pytest.raises(FaultError):
            FaultPlan().crash(5.0, "")

    def test_partition_needs_two_sides(self):
        with pytest.raises(FaultError):
            FaultPlan().partition(5.0, [], [1])

    def test_partition_sides_must_not_overlap(self):
        with pytest.raises(FaultError):
            FaultPlan().partition(5.0, [0, 1], [1, 2])

    def test_negative_mute_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan().false_suspicion(5.0, 0, mute_for_s=-0.1)

    def test_bad_link_fault_rejected(self):
        with pytest.raises(Exception):
            FaultPlan().impair_host(5.0, 0, LinkFault(drop_prob=1.5))

    @pytest.mark.parametrize("build", [
        lambda plan: plan.isolate(5.0, -1),
        lambda plan: plan.heal_host(5.0, -1),
        lambda plan: plan.impair_host(5.0, -1, None),
        lambda plan: plan.false_suspicion(5.0, -1),
        lambda plan: plan.server_up(5.0, host=-1),
        lambda plan: plan.partition(5.0, [0], [-1]),
    ])
    def test_negative_host_index_rejected(self, build):
        # ``hosts[-1]`` is the last host: in every scenario, the
        # measured client's.
        with pytest.raises(FaultError, match="host indices >= 0"):
            build(FaultPlan())


class TestFromSchedule:
    """The legacy ``(time, action)`` tuples, through their one
    translation: :func:`repro.experiments.scenarios.plan_for_spec`."""

    @staticmethod
    def plan(*schedule):
        return plan_for_spec(
            dataclasses.replace(LAN_SCENARIO, schedule=schedule)
        )

    def test_legacy_tuples_translate(self):
        plan = self.plan((38.0, "crash-serving"), (62.0, "server-up"))
        assert len(plan) == 2
        assert isinstance(plan.sorted_actions()[0], CrashServing)
        assert isinstance(plan.sorted_actions()[1], ServerUp)

    def test_unknown_action_rejected(self):
        with pytest.raises(ServiceError):
            self.plan((1.0, "explode"))


class TestRandomPlans:
    ARGS = dict(duration_s=120.0, server_hosts=[0, 1, 2], client_host=3)

    def test_same_seed_identical_plan(self):
        a = FaultPlan.random(seed=7, **self.ARGS)
        b = FaultPlan.random(seed=7, **self.ARGS)
        assert a == b

    def test_different_seeds_differ(self):
        a = FaultPlan.random(seed=7, **self.ARGS)
        b = FaultPlan.random(seed=8, **self.ARGS)
        assert a != b

    def test_respects_settle_window(self):
        for seed in range(5):
            plan = FaultPlan.random(seed=seed, **self.ARGS)
            assert plan.horizon <= 120.0 - 20.0
            assert all(action.at >= 20.0 for action in plan.actions)

    def test_isolations_always_heal(self):
        for seed in range(10):
            plan = FaultPlan.random(seed=seed, **self.ARGS)
            isolations = [
                a for a in plan.sorted_actions() if isinstance(a, IsolateHost)
            ]
            heals = [
                a for a in plan.sorted_actions() if isinstance(a, HealHost)
            ]
            assert len(isolations) == len(heals)
            for down, up in zip(isolations, heals):
                assert down.host == up.host
                assert up.at > down.at

    def test_too_short_duration_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan.random(
                seed=1, duration_s=30.0, server_hosts=[0], client_host=1
            )
