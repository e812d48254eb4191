"""Unit tests for the rate controller and emergency decay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.server.rate_controller import EmergencyConfig, RateController
from repro.service.protocol import EmergencyLevel, FlowControlMsg, FlowKind

INC = FlowControlMsg(FlowKind.INCREASE)
DEC = FlowControlMsg(FlowKind.DECREASE)
SEVERE = FlowControlMsg(FlowKind.EMERGENCY, EmergencyLevel.SEVERE)
MILD = FlowControlMsg(FlowKind.EMERGENCY, EmergencyLevel.MILD)


class TestEmergencyConfig:
    def test_severe_sequence_sums_to_43(self):
        """The paper's q=12, f=0.8 with iterated truncation: 43 frames."""
        config = EmergencyConfig()
        assert config.sequence(EmergencyLevel.SEVERE) == [12, 9, 7, 5, 4, 3, 2, 1]
        assert config.total_extra_frames(EmergencyLevel.SEVERE) == 43

    def test_mild_sequence_sums_to_16(self):
        """q=6 gives 16 (the paper reports ~15; see DESIGN.md)."""
        config = EmergencyConfig()
        assert config.sequence(EmergencyLevel.MILD) == [6, 4, 3, 2, 1]
        assert config.total_extra_frames(EmergencyLevel.MILD) == 16

    def test_zero_base_means_no_refill(self):
        config = EmergencyConfig(base_severe=0, base_mild=0)
        assert config.sequence(EmergencyLevel.SEVERE) == []

    def test_validation(self):
        with pytest.raises(ServiceError):
            EmergencyConfig(base_severe=3, base_mild=6).validate()


class TestRateAdjustment:
    def test_increase_and_decrease_one_fps(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(INC)
        assert rate.current_rate() == 31
        rate.on_flow_message(DEC)
        rate.on_flow_message(DEC)
        assert rate.current_rate() == 29

    def test_rate_capped_at_bounds(self):
        rate = RateController(base_rate=30, min_rate=29, max_rate=31)
        for _ in range(5):
            rate.on_flow_message(INC)
        assert rate.base_rate == 31
        for _ in range(10):
            rate.on_flow_message(DEC)
        assert rate.base_rate == 29

    def test_invalid_bounds_raise(self):
        with pytest.raises(ServiceError):
            RateController(base_rate=10, min_rate=20, max_rate=30)


class TestEmergency:
    def test_emergency_adds_quantity_to_rate(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        assert rate.current_rate() == 42
        assert rate.in_emergency

    def test_mild_emergency_uses_smaller_base(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(MILD)
        assert rate.current_rate() == 36

    def test_all_requests_ignored_during_emergency(self):
        """"the server ignores all flow control requests" (Section 4.1)."""
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        for message in (INC, DEC, SEVERE, MILD):
            rate.on_flow_message(message)
        assert rate.base_rate == 30
        assert rate.emergency_quantity == 12
        assert rate.requests_ignored == 4

    def test_decay_follows_truncated_sequence(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        observed = [rate.emergency_quantity]
        while rate.in_emergency:
            rate.decay_tick()
            if rate.emergency_quantity:
                observed.append(rate.emergency_quantity)
        assert observed == [12, 9, 7, 5, 4, 3, 2, 1]

    def test_total_extra_frames_transmitted(self):
        """One second at each quantity: 43 extra frames end to end."""
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        extra = 0
        while rate.in_emergency:
            extra += rate.current_rate() - rate.base_rate
            rate.decay_tick()
        assert extra == 43

    def test_requests_resume_after_decay(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        while rate.in_emergency:
            rate.decay_tick()
        rate.on_flow_message(INC)
        assert rate.base_rate == 31

    def test_decay_tick_noop_without_emergency(self):
        rate = RateController(base_rate=30)
        rate.decay_tick()
        assert rate.current_rate() == 30

    def test_peak_bandwidth_within_40_percent(self):
        """Emergency peak rate <= 1.4x the steady rate (Section 4.1)."""
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        assert rate.current_rate() / rate.base_rate <= 1.4

    def test_counters(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(INC)
        rate.on_flow_message(SEVERE)
        rate.on_flow_message(INC)
        assert rate.requests_applied == 1
        assert rate.emergencies_started == 1
        assert rate.requests_ignored == 1


class TestEmergencyEscalation:
    """Regression: a higher-level emergency must not be silently lost
    while a smaller quota is still decaying."""

    def test_severe_replaces_decaying_mild_quota(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(MILD)
        rate.decay_tick()  # 6 -> 4: the mild refill is under way
        assert rate.emergency_quantity == 4
        rate.on_flow_message(SEVERE)
        assert rate.emergency_quantity == 12
        assert rate.current_rate() == 42
        assert rate.emergencies_escalated == 1
        assert rate.emergencies_started == 1

    def test_mild_never_downgrades_active_severe_quota(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        rate.on_flow_message(MILD)
        assert rate.emergency_quantity == 12
        assert rate.requests_ignored == 1
        assert rate.emergencies_escalated == 0

    def test_equal_quota_emergency_still_ignored(self):
        """"ignores all flow control requests" holds for a repeat at
        the same (undecayed) level."""
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        rate.on_flow_message(SEVERE)
        assert rate.emergency_quantity == 12
        assert rate.requests_ignored == 1

    def test_rate_adjustments_still_ignored_during_quota(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(SEVERE)
        rate.on_flow_message(INC)
        rate.on_flow_message(DEC)
        assert rate.base_rate == 30
        assert rate.requests_ignored == 2

    def test_repeated_emergency_reset_triggers_during_active_quota(self):
        """The base-rate reset must fire on an escalation mid-quota: the
        previous refill clearly did not hold."""
        rate = RateController(base_rate=30, nominal_rate=30)
        for _ in range(10):
            rate.on_flow_message(DEC)
        assert rate.base_rate == 20
        rate.on_flow_message(MILD, now=100.0)
        rate.decay_tick()
        rate.on_flow_message(SEVERE, now=101.0)
        assert rate.base_rate == 30
        assert rate.base_rate_resets == 1

    def test_escalation_follows_severe_decay_sequence(self):
        rate = RateController(base_rate=30)
        rate.on_flow_message(MILD)
        rate.decay_tick()
        rate.on_flow_message(SEVERE)
        observed = [rate.emergency_quantity]
        while rate.in_emergency:
            rate.decay_tick()
            if rate.emergency_quantity:
                observed.append(rate.emergency_quantity)
        assert observed == [12, 9, 7, 5, 4, 3, 2, 1]


class TestEmergencyProperties:
    """Property tests for the paper's Section 4.1 refill arithmetic."""

    def test_default_sequence_totals(self):
        config = EmergencyConfig()
        assert config.total_extra_frames(EmergencyLevel.SEVERE) == 43
        assert config.total_extra_frames(EmergencyLevel.MILD) == 16

    @given(level=st.sampled_from([EmergencyLevel.SEVERE, EmergencyLevel.MILD]))
    @settings(max_examples=20, deadline=None)
    def test_sequence_total_matches_paper(self, level):
        config = EmergencyConfig()
        total = config.total_extra_frames(level)
        assert total == (43 if level == EmergencyLevel.SEVERE else 16)
        sequence = config.sequence(level)
        assert sum(sequence) == total
        # Strictly decreasing truncation, ending at 1.
        assert all(a > b for a, b in zip(sequence, sequence[1:]))
        assert sequence[-1] == 1

    @given(
        level=st.sampled_from([EmergencyLevel.SEVERE, EmergencyLevel.MILD]),
        ticks_before=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_refill_rate_respects_40_percent_extra_bandwidth_bound(
        self, level, ticks_before
    ):
        """Section 4.1: the emergency VBR channel is sized at 40% of the
        CBR stream rate; current_rate() must stay within 1.4x nominal at
        every instant of the refill — including across an escalation."""
        rate = RateController(base_rate=30, nominal_rate=30)
        rate.on_flow_message(FlowControlMsg(FlowKind.EMERGENCY, level))
        for _ in range(ticks_before):
            assert rate.current_rate() <= 1.4 * rate.nominal_rate
            rate.decay_tick()
        rate.on_flow_message(SEVERE)  # escalate (or repeat) mid-refill
        while rate.in_emergency:
            assert rate.current_rate() <= 1.4 * rate.nominal_rate
            rate.decay_tick()
        assert rate.current_rate() == rate.base_rate
