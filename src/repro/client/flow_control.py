"""The client flow-control policy — the paper's Figure 2, verbatim.

The client never tries to deduce the server's transmission rate; it only
watches the occupancy of its own buffers (software + hardware, counted
in frames) and asks for one-frame-per-second adjustments:

====================  ==================  =========  ============
buffer occupancy       extra condition    frequency   request
====================  ==================  =========  ============
0 .. critical                             f_urgent    emergency
critical .. LWM-1                         f_urgent    increase
LWM .. HWM-1          occ < previous      f_normal    increase
LWM .. HWM-1          occ > previous      f_normal    decrease
LWM .. HWM-1          occ == previous     f_normal    (none)
HWM .. full                               f_urgent    decrease
====================  ==================  =========  ============

"Frequency" counts *received frames*: one message per 8 frames between
the water marks, one per 4 frames outside them ("the frequency is
doubled").  Section 4.1's refinement adds a second critical threshold:
below 15% occupancy the emergency is severe (base quantity 12), between
15% and 30% it is mild (base quantity 6).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ServiceError
from repro.service.protocol import EmergencyLevel, FlowControlMsg, FlowKind


# The water marks are fractions of the *combined* buffer capacity
# (software + hardware): the paper derives the 1.7 s irregularity
# coverage from 73% of the total 2.4 s of buffering.  The critical
# thresholds are fractions of the *software* buffer: it is the shock
# absorber in front of the decoder, and the paper's emergencies fire
# exactly when it runs dry (crash: drops to 0 -> severe; load balance:
# drops to ~1/4 -> mild).
LOW_WATER_FRAC = 0.73
HIGH_WATER_FRAC = 0.88
CRITICAL_MILD_FRAC = 0.30
CRITICAL_SEVERE_FRAC = 0.15
#: Received frames per message between the water marks, and outside them.
NORMAL_EVERY_FRAMES = 8
URGENT_EVERY_FRAMES = 4


class FlowControlPolicy:
    """Stateful evaluator of the Figure 2 policy.

    Call :meth:`on_frame_received` once per received video frame with
    the current combined occupancy; it returns the
    :class:`FlowControlMsg` to send, or None when the cadence or the
    policy says to stay quiet.
    """

    def __init__(
        self, capacity_frames: int, sw_capacity_frames: Optional[int] = None
    ) -> None:
        if capacity_frames < 4:
            raise ServiceError(
                f"combined capacity too small: {capacity_frames!r} frames"
            )
        if sw_capacity_frames is None:
            sw_capacity_frames = capacity_frames
        self.capacity_frames = capacity_frames
        self.sw_capacity_frames = sw_capacity_frames
        self.low_water = int(round(LOW_WATER_FRAC * capacity_frames))
        self.high_water = int(round(HIGH_WATER_FRAC * capacity_frames))
        # "falls below 30% / 15%": strict float thresholds, so a buffer
        # sitting exactly at 16% of capacity is a *mild* emergency.
        self.critical_mild = CRITICAL_MILD_FRAC * sw_capacity_frames
        self.critical_severe = CRITICAL_SEVERE_FRAC * sw_capacity_frames
        # Occupancy when the previous request was sent (the "previous
        # occupancy" column of Figure 2).
        self.previous_occupancy: Optional[int] = None
        self._frames_since_message = 0
        self.sent_total = 0

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def on_frame_received(
        self, occupancy: int, sw_occupancy: Optional[int] = None
    ) -> Optional[FlowControlMsg]:
        self._frames_since_message += 1
        if self._frames_since_message < self._current_period(occupancy, sw_occupancy):
            return None
        message = self.decide(occupancy, sw_occupancy)
        self._frames_since_message = 0
        if message is not None:
            self.previous_occupancy = occupancy
            self.sent_total += 1
        return message

    def decide(
        self, occupancy: int, sw_occupancy: Optional[int] = None
    ) -> Optional[FlowControlMsg]:
        """The Figure 2 decision for a given occupancy (stateless w.r.t.
        cadence; uses ``previous_occupancy`` for the mid-band rows).

        ``occupancy`` is the combined frame count; ``sw_occupancy`` is
        the software-buffer share, checked against the critical
        thresholds (defaults to the combined value for callers that do
        not split buffers).
        """
        if sw_occupancy is None:
            sw_occupancy = occupancy
        # The rows are exclusive along one occupancy axis in the paper;
        # with split buffers the overflow row must win over the
        # emergency row: a client whose *combined* buffers sit above the
        # high-water mark is over-supplied even while the hardware
        # buffer starves the software buffer of frames, and asking for
        # an emergency refill would only force overflow discards.
        if occupancy >= self.high_water:
            return FlowControlMsg(FlowKind.DECREASE, occupancy=occupancy)
        if sw_occupancy < self.critical_mild:
            level = (
                EmergencyLevel.SEVERE
                if sw_occupancy < self.critical_severe
                else EmergencyLevel.MILD
            )
            return FlowControlMsg(FlowKind.EMERGENCY, level, occupancy)
        if occupancy < self.low_water:
            return FlowControlMsg(FlowKind.INCREASE, occupancy=occupancy)
        # Between the water marks: steer by the occupancy trend.
        previous = self.previous_occupancy
        if previous is None or occupancy == previous:
            return None
        if occupancy < previous:
            return FlowControlMsg(FlowKind.INCREASE, occupancy=occupancy)
        return FlowControlMsg(FlowKind.DECREASE, occupancy=occupancy)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _current_period(
        self, occupancy: int, sw_occupancy: Optional[int] = None
    ) -> int:
        if sw_occupancy is None:
            sw_occupancy = occupancy
        # The critical band is keyed off the *software* buffer (the
        # emergency rows of Figure 2): a drained software buffer must
        # report at the urgent cadence even while the combined occupancy
        # still sits between the water marks.
        if sw_occupancy < self.critical_mild:
            return URGENT_EVERY_FRAMES
        if self.low_water <= occupancy < self.high_water:
            return NORMAL_EVERY_FRAMES
        return URGENT_EVERY_FRAMES

    def in_normal_band(self, occupancy: int) -> bool:
        return self.low_water <= occupancy < self.high_water

    def reset_cadence(self) -> None:
        """Forget trend state (used after seeks/migrations)."""
        self.previous_occupancy = None
        self._frames_since_message = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowControlPolicy cap={self.capacity_frames} "
            f"lwm={self.low_water} hwm={self.high_water} "
            f"crit={self.critical_severe}/{self.critical_mild}>"
        )
