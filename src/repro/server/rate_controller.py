"""Per-client transmission-rate control (Section 4 server side).

The server keeps one current rate per client and adjusts it by one
frame/second per client request.  When an emergency request arrives it
adds a decaying *emergency quantity* on top of the base rate and ignores
all further flow-control requests until the quantity decays to zero.

The decay is iterative truncation — ``q <- floor(q * f)`` every second —
which with the paper's parameters (q=12, f=0.8) yields the sequence
12, 9, 7, 5, 4, 3, 2, 1 summing to exactly the 43 extra frames the paper
reports.  The mild tier (q=6) yields 6, 4, 3, 2, 1 = 16 extra frames
(the paper says 15; its arithmetic is not exactly reconstructible — see
DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ServiceError
from repro.service.protocol import EmergencyLevel, FlowControlMsg, FlowKind


#: The factor each second's emergency quantity decays by (paper
#: Section 4.1).
DECAY = 0.8


@dataclass(frozen=True)
class EmergencyConfig:
    """Emergency refill quantities (paper Section 4.1); ablation A-2
    sweeps them."""

    base_severe: int = 12  # occupancy below 15%
    base_mild: int = 6  # occupancy below 30%

    def validate(self) -> None:
        if self.base_mild < 0 or self.base_severe < self.base_mild:
            raise ServiceError(
                f"need 0 <= mild <= severe, got {self.base_mild}/{self.base_severe}"
            )

    def base_for(self, level: EmergencyLevel) -> int:
        if level == EmergencyLevel.SEVERE:
            return self.base_severe
        return self.base_mild

    def sequence(self, level: EmergencyLevel) -> List[int]:
        """The emergency quantities transmitted second by second."""
        quantities = []
        quantity = self.base_for(level)
        while quantity > 0:
            quantities.append(quantity)
            quantity = math.floor(quantity * DECAY)
        return quantities

    def total_extra_frames(self, level: EmergencyLevel) -> int:
        return sum(self.sequence(level))


class RateController:
    """Transmission rate of one client at the serving server."""

    def __init__(
        self,
        base_rate: int = 30,
        min_rate: int = 1,
        max_rate: int = 60,
        emergency: Optional[EmergencyConfig] = None,
        min_adjust_interval_s: float = 0.5,
        nominal_rate: Optional[int] = None,
    ) -> None:
        if not min_rate <= base_rate <= max_rate:
            raise ServiceError(
                f"need min <= base <= max, got {min_rate}/{base_rate}/{max_rate}"
            )
        self.base_rate = base_rate
        self.min_rate = min_rate
        self.max_rate = max_rate
        self.emergency = emergency or EmergencyConfig()
        self.emergency.validate()
        self.emergency_quantity = 0
        # Base quantity of the quota currently decaying: an emergency at
        # the same (or a lower) level is ignored outright — only a
        # strictly higher level escalates.  Comparing against the
        # *decayed* quantity instead would let a client stuck below the
        # critical threshold re-top the quota every few frames, turning
        # a bounded refill into a sustained rate increase.
        self._quota_base = 0
        # Slew limiting: the base rate moves by at most one frame/s per
        # min_adjust_interval_s.  The client's requests arrive every 4-8
        # received frames (up to ~10/s); applying them all would swing
        # the rate far faster than the buffers respond (the plant
        # integrates at rate-minus-consumption) and the loop degenerates
        # into a refill/overflow limit cycle.  Bounding the slew keeps
        # the occupancy oscillating gently between the water marks, as
        # the paper's Figure 4(c) shows.
        self.min_adjust_interval_s = min_adjust_interval_s
        self._last_adjust_at = float("-inf")
        # The stream's nominal playback rate.  A *repeated* emergency —
        # the previous refill clearly did not hold — with the base rate
        # below nominal means chronic under-delivery (the base collapsed
        # during churn while quota windows masked the rate requests);
        # snap the base back to nominal so the refill actually refills.
        self.nominal_rate = nominal_rate if nominal_rate is not None else base_rate
        self._last_emergency_at: Optional[float] = None
        self.base_rate_resets = 0
        # Counters for the overhead experiments.
        self.requests_applied = 0
        self.requests_ignored = 0
        self.emergencies_started = 0
        self.emergencies_escalated = 0
        self.emergencies_cancelled = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current_rate(self) -> int:
        """Frames per second to transmit right now."""
        return self.base_rate + self.emergency_quantity

    @property
    def in_emergency(self) -> bool:
        return self.emergency_quantity > 0

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def on_flow_message(
        self, message: FlowControlMsg, now: Optional[float] = None
    ) -> None:
        """Apply one client flow-control request.

        "While the emergency quantity is greater than zero, the server
        ignores all flow control requests from the client" — with one
        exception: an emergency at a strictly *higher level* than the
        active quota *escalates* it.  The client only escalates when the
        refill visibly is not working, so swallowing it would silently
        lose a SEVERE arriving during a decaying MILD quota and could
        never trigger the repeated-emergency base-rate reset.  Repeats
        at the same level stay ignored, per the quote.  Rate adjustments
        are additionally slew-limited (see __init__); pass ``now`` to
        enable the limiter, as the serving session does.
        """
        if message.kind == FlowKind.EMERGENCY:
            level = message.level or EmergencyLevel.SEVERE
            base = self.emergency.base_for(level)
            if self.in_emergency and base <= self._quota_base:
                self.requests_ignored += 1
                return
            escalating = self.in_emergency
            repeated = (
                now is not None
                and self._last_emergency_at is not None
                and now - self._last_emergency_at < 15.0
            )
            if repeated and self.base_rate < self.nominal_rate:
                self.base_rate = min(self.max_rate, self.nominal_rate)
                self.base_rate_resets += 1
            if now is not None:
                self._last_emergency_at = now
            self.emergency_quantity = base
            self._quota_base = base
            if escalating:
                self.emergencies_escalated += 1
            else:
                self.emergencies_started += 1
            return
        if self.in_emergency:
            self.requests_ignored += 1
            return
        if now is not None:
            if now - self._last_adjust_at < self.min_adjust_interval_s:
                self.requests_ignored += 1
                return
            self._last_adjust_at = now
        if message.kind == FlowKind.INCREASE:
            self.base_rate = min(self.max_rate, self.base_rate + 1)
            self.requests_applied += 1
        elif message.kind == FlowKind.DECREASE:
            self.base_rate = max(self.min_rate, self.base_rate - 1)
            self.requests_applied += 1

    def decay_tick(self) -> None:
        """Called once per second: decay the emergency quantity."""
        if self.emergency_quantity > 0:
            self.emergency_quantity = math.floor(
                self.emergency_quantity * DECAY
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RateController base={self.base_rate}fps "
            f"emergency={self.emergency_quantity}>"
        )
