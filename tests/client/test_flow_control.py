"""Unit tests for the Figure 2 flow-control policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.flow_control import FlowControlPolicy
from repro.errors import ServiceError
from repro.service.protocol import EmergencyLevel, FlowKind

CAPACITY = 79  # combined frames: 37 software + ~42 hardware
SW_CAPACITY = 37


@pytest.fixture
def policy():
    return FlowControlPolicy(CAPACITY, sw_capacity_frames=SW_CAPACITY)


class TestThresholds:
    def test_water_marks_computed_from_combined_capacity(self, policy):
        assert policy.low_water == round(0.73 * CAPACITY)
        assert policy.high_water == round(0.88 * CAPACITY)

    def test_critical_thresholds_from_software_capacity(self, policy):
        assert policy.critical_mild == pytest.approx(0.30 * SW_CAPACITY)
        assert policy.critical_severe == pytest.approx(0.15 * SW_CAPACITY)


class TestDecisions:
    def test_severe_emergency_below_15_percent(self, policy):
        message = policy.decide(40, sw_occupancy=0)
        assert message.kind == FlowKind.EMERGENCY
        assert message.level == EmergencyLevel.SEVERE

    def test_mild_emergency_between_15_and_30_percent(self, policy):
        message = policy.decide(48, sw_occupancy=8)  # 8/37 = 21.6%
        assert message.kind == FlowKind.EMERGENCY
        assert message.level == EmergencyLevel.MILD

    def test_boundary_16_percent_is_mild(self, policy):
        # 6/37 = 16.2%: above the 15% severe line.
        message = policy.decide(48, sw_occupancy=6)
        assert message.level == EmergencyLevel.MILD

    def test_below_low_water_requests_increase(self, policy):
        message = policy.decide(policy.low_water - 1, sw_occupancy=20)
        assert message.kind == FlowKind.INCREASE

    def test_at_or_above_high_water_requests_decrease(self, policy):
        assert policy.decide(policy.high_water, 30).kind == FlowKind.DECREASE
        assert policy.decide(CAPACITY, 37).kind == FlowKind.DECREASE

    def test_mid_band_falling_occupancy_requests_increase(self, policy):
        mid = (policy.low_water + policy.high_water) // 2
        policy.previous_occupancy = mid + 4
        assert policy.decide(mid, 25).kind == FlowKind.INCREASE

    def test_mid_band_rising_occupancy_requests_decrease(self, policy):
        mid = (policy.low_water + policy.high_water) // 2
        policy.previous_occupancy = mid - 4
        assert policy.decide(mid, 25).kind == FlowKind.DECREASE

    def test_mid_band_stable_occupancy_stays_quiet(self, policy):
        mid = (policy.low_water + policy.high_water) // 2
        policy.previous_occupancy = mid
        assert policy.decide(mid, 25) is None

    def test_mid_band_without_history_stays_quiet(self, policy):
        mid = (policy.low_water + policy.high_water) // 2
        assert policy.decide(mid, 25) is None

    def test_sw_occupancy_defaults_to_combined(self, policy):
        # Callers without split buffers use combined for both checks.
        message = policy.decide(3)
        assert message.kind == FlowKind.EMERGENCY


class TestCadence:
    def test_normal_band_sends_every_8th_frame(self, policy):
        mid = (policy.low_water + policy.high_water) // 2
        policy.previous_occupancy = mid + 2
        sent = [
            policy.on_frame_received(mid, 25) is not None for _ in range(16)
        ]
        # Frame 8 sends (occupancy fell vs previous); that send records
        # the occupancy, so the frame-16 window sees no trend and stays
        # quiet — exactly Figure 2's "occ == previous" row.
        assert sent.count(True) == 1
        assert sent[7]

    def test_urgent_band_sends_every_4th_frame(self, policy):
        sent = [
            policy.on_frame_received(30, 10) is not None for _ in range(8)
        ]
        assert sent.count(True) == 2
        assert sent[3] and sent[7]

    def test_quiet_decision_still_resets_counter(self, policy):
        mid = (policy.low_water + policy.high_water) // 2
        for _ in range(8):
            result = policy.on_frame_received(mid, 25)
        assert result is None  # no history: quiet
        # Counter restarted: next message only after 8 more frames.
        for _ in range(7):
            assert policy.on_frame_received(mid - 1, 25) is None

    def test_reset_cadence(self, policy):
        policy.previous_occupancy = 60
        policy.on_frame_received(60, 25)
        policy.reset_cadence()
        assert policy.previous_occupancy is None

    def test_sent_total_counts(self, policy):
        for _ in range(16):
            policy.on_frame_received(30, 10)
        assert policy.sent_total == 4

    def test_critical_sw_buffer_uses_urgent_cadence_in_normal_band(self, policy):
        """Regression: a critically drained software buffer must report
        at the urgent 4-frame cadence even while the *combined*
        occupancy sits between the water marks (where the cadence used
        to be keyed off combined occupancy alone)."""
        mid = (policy.low_water + policy.high_water) // 2
        sent = [
            policy.on_frame_received(mid, 0) is not None for _ in range(8)
        ]
        assert sent.count(True) == 2
        assert sent[3] and sent[7]
        # And those messages are the emergencies the cadence exists for.
        policy2 = FlowControlPolicy(CAPACITY, sw_capacity_frames=SW_CAPACITY)
        for _ in range(3):
            assert policy2.on_frame_received(mid, 0) is None
        message = policy2.on_frame_received(mid, 0)
        assert message is not None and message.kind == FlowKind.EMERGENCY

    def test_healthy_sw_buffer_keeps_normal_cadence_in_normal_band(self, policy):
        mid = (policy.low_water + policy.high_water) // 2
        policy.previous_occupancy = mid + 2
        sent = [
            policy.on_frame_received(mid, 25) is not None for _ in range(8)
        ]
        assert sent.count(True) == 1 and sent[7]


class TestValidation:
    def test_capacity_minimum(self):
        with pytest.raises(ServiceError):
            FlowControlPolicy(2)


class TestProperties:
    @given(
        occupancy=st.integers(min_value=0, max_value=CAPACITY),
        sw=st.integers(min_value=0, max_value=SW_CAPACITY),
        previous=st.one_of(
            st.none(), st.integers(min_value=0, max_value=CAPACITY)
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_decide_is_total_and_deterministic(self, occupancy, sw, previous):
        policy = FlowControlPolicy(CAPACITY, sw_capacity_frames=SW_CAPACITY)
        policy.previous_occupancy = previous
        first = policy.decide(occupancy, sw)
        second = policy.decide(occupancy, sw)
        assert first == second
        if first is not None:
            assert first.kind in (
                FlowKind.INCREASE, FlowKind.DECREASE, FlowKind.EMERGENCY
            )

    @given(sw=st.integers(min_value=0, max_value=SW_CAPACITY))
    @settings(max_examples=100, deadline=None)
    def test_emergency_iff_below_mild_critical(self, sw):
        policy = FlowControlPolicy(CAPACITY, sw_capacity_frames=SW_CAPACITY)
        message = policy.decide(40, sw)
        if sw < policy.critical_mild:
            assert message.kind == FlowKind.EMERGENCY
        else:
            assert message is None or message.kind != FlowKind.EMERGENCY
