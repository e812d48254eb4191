"""Point-to-point link model.

Each (directed) link direction models:

* **propagation delay** — fixed one-way latency;
* **jitter** — extra uniformly distributed delay per packet (this is what
  reorders packets on WAN paths);
* **loss** — independent Bernoulli drop per packet;
* **bandwidth** — bits/second; packets are serialized through a FIFO
  transmitter, so a burst experiences queueing delay exactly like a real
  interface; a bounded transmit queue drops overflowing packets
  (tail-drop), which is how congestion loss arises in the WAN scenario.

Every stochastic draw uses a link-specific named random stream, so runs
are reproducible and independent across links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import NetworkError
from repro.net.packet import HEADER_BYTES, Datagram
from repro.sim.core import Simulator

DeliverFn = Callable[[Datagram], None]


@dataclass(frozen=True)
class LinkParams:
    """Static characteristics of one link direction.

    ``reorder_prob``/``reorder_delay_s`` model transient route changes:
    with probability ``reorder_prob`` a packet takes a detour and arrives
    up to ``reorder_delay_s`` later than its normal delivery time, which
    puts it behind packets sent after it.  Per-packet jitter alone cannot
    reorder a 30 fps stream (frames are 33 ms apart), but route flaps on
    the Internet of the paper's era did — this knob reproduces that.
    """

    delay_s: float = 0.0002
    jitter_s: float = 0.0
    loss_prob: float = 0.0
    bandwidth_bps: float = 100e6
    queue_packets: int = 512
    reorder_prob: float = 0.0
    reorder_delay_s: float = 0.0

    def validate(self) -> None:
        if self.delay_s < 0:
            raise NetworkError(f"negative link delay {self.delay_s!r}")
        if self.jitter_s < 0:
            raise NetworkError(f"negative link jitter {self.jitter_s!r}")
        if not 0.0 <= self.loss_prob < 1.0:
            raise NetworkError(f"loss_prob must be in [0,1), got {self.loss_prob!r}")
        if self.bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth must be positive, got {self.bandwidth_bps!r}")
        if self.queue_packets < 1:
            raise NetworkError(f"queue must hold >=1 packet, got {self.queue_packets!r}")
        if not 0.0 <= self.reorder_prob < 1.0:
            raise NetworkError(
                f"reorder_prob must be in [0,1), got {self.reorder_prob!r}"
            )
        if self.reorder_delay_s < 0:
            raise NetworkError(
                f"negative reorder delay {self.reorder_delay_s!r}"
            )


@dataclass(frozen=True)
class LinkFault:
    """An injected per-link impairment (see :mod:`repro.faulting`).

    Unlike :class:`LinkParams` — the link's *intrinsic* characteristics —
    a fault is transient and installed/removed at runtime by a fault
    injector.  All stochastic draws use a dedicated ``fault.``-prefixed
    random stream so installing a fault never perturbs the link's own
    streams (runs with and without faults stay comparable).

    ``drop_prob``
        Extra independent Bernoulli drop per packet.
    ``extra_delay_s`` / ``jitter_s``
        Deterministic plus uniformly random added latency per packet.
    ``duplicate_prob`` / ``duplicate_delay_s``
        Probability of delivering a second copy, and how much later the
        copy arrives (models retransmitting middleboxes / route loops).
    """

    drop_prob: float = 0.0
    extra_delay_s: float = 0.0
    jitter_s: float = 0.0
    duplicate_prob: float = 0.0
    duplicate_delay_s: float = 0.001

    def validate(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise NetworkError(
                f"fault drop_prob must be in [0,1], got {self.drop_prob!r}"
            )
        if not 0.0 <= self.duplicate_prob <= 1.0:
            raise NetworkError(
                f"fault duplicate_prob must be in [0,1], "
                f"got {self.duplicate_prob!r}"
            )
        for name in ("extra_delay_s", "jitter_s", "duplicate_delay_s"):
            if getattr(self, name) < 0:
                raise NetworkError(
                    f"fault {name} must be >= 0, got {getattr(self, name)!r}"
                )

    @property
    def is_noop(self) -> bool:
        return (
            self.drop_prob == 0.0
            and self.extra_delay_s == 0.0
            and self.jitter_s == 0.0
            and self.duplicate_prob == 0.0
        )


@dataclass
class LinkStats:
    """Per-direction counters, used by the overhead experiments."""

    sent_packets: int = 0
    sent_bytes: int = 0
    delivered_packets: int = 0
    dropped_loss: int = 0
    dropped_queue: int = 0
    detoured: int = 0
    guaranteed_packets: int = 0
    fault_dropped: int = 0
    fault_duplicated: int = 0
    fault_delayed: int = 0


class _Direction:
    """One direction of a link: FIFO transmitter + lossy channel."""

    def __init__(self, sim: Simulator, params: LinkParams, rng_name: str) -> None:
        params.validate()
        self.sim = sim
        self.params = params
        self.rng_name = rng_name
        self.stats = LinkStats()
        self.up = True
        # Injected impairment (see repro.faulting); None = healthy.
        self.fault: Optional[LinkFault] = None
        # Virtual time when the transmitter finishes its current backlog.
        self._tx_free_at = 0.0
        # True when the intrinsic parameters make every stochastic draw
        # a no-op: transmissions then take a branch with no RNG lookup
        # at all.  LinkParams is frozen, so this never goes stale.
        self._params_clean = (
            params.loss_prob == 0.0
            and params.jitter_s == 0.0
            and params.reorder_prob == 0.0
        )
        # ``random`` of this direction's named stream, bound by the first
        # transmit that draws; None on a clean direction for ever.
        self._random: Optional[Callable[[], float]] = None

    def set_fault(self, fault: Optional[LinkFault]) -> None:
        if fault is not None:
            fault.validate()
            if fault.is_noop:
                fault = None
        self.fault = fault

    @property
    def clean(self) -> bool:
        """True when a transmission right now is deterministic: no loss,
        jitter or reorder draws and no injected fault.  (Tail drops can
        still happen — they are arithmetic, not stochastic.)"""
        return self._params_clean and self.fault is None

    def transmit(
        self, datagram: Datagram, deliver: DeliverFn, guaranteed: bool = False
    ) -> None:
        """Send one datagram over this direction.

        ``guaranteed`` marks a packet riding an admitted QoS reservation
        (see :mod:`repro.net.qos`): it is exempt from loss, tail drop,
        jitter and detours — it still pays propagation and
        serialization."""
        if not self.up:
            return
        stats = self.stats
        params = self.params
        wire = datagram.size_bytes + HEADER_BYTES
        stats.sent_packets += 1
        stats.sent_bytes += wire

        # Injected faults draw from a dedicated stream so that a healthy
        # run's randomness is untouched by merely enabling the subsystem.
        fault = self.fault
        fault_extra_s = 0.0
        fault_duplicate = False
        if fault is not None:
            fault_rng = self.sim.rng(f"fault.{self.rng_name}")
            if fault.drop_prob > 0 and fault_rng.random() < fault.drop_prob:
                stats.fault_dropped += 1
                self._note_drop("fault")
                return
            fault_extra_s = fault.extra_delay_s
            if fault.jitter_s > 0:
                fault_extra_s += fault_rng.uniform(0.0, fault.jitter_s)
            if fault_extra_s > 0:
                stats.fault_delayed += 1
            if (
                fault.duplicate_prob > 0
                and fault_rng.random() < fault.duplicate_prob
            ):
                fault_duplicate = True

        serialization = wire * 8.0 / params.bandwidth_bps
        sim = self.sim
        # The clock is read once per hop of every datagram: the
        # attribute, not the ``now`` property (a frame per read).
        now = sim._now
        tx_free = self._tx_free_at
        if tx_free > now:
            # Tail-drop if the backlog already holds queue_packets' worth
            # of serialization time (approximating a packet-count queue
            # using the mean packet currently queued is unreliable; we
            # bound by time: queue_packets * this packet's serialization
            # time).
            if (
                not guaranteed
                and serialization > 0
                and tx_free - now > params.queue_packets * serialization
            ):
                stats.dropped_queue += 1
                self._note_drop("queue")
                return
            tx_free += serialization
        else:
            tx_free = now + serialization
        self._tx_free_at = tx_free

        if guaranteed:
            stats.guaranteed_packets += 1
            arrival = tx_free + params.delay_s + fault_extra_s
        elif self._params_clean:
            # Zero-overhead fast path: with loss, jitter and reorder all
            # zero, none of the draws below can change anything — the
            # stream is never even created.
            arrival = tx_free + params.delay_s + fault_extra_s
        else:
            # Bound on the first stochastic transmit and kept: streams
            # are independent of creation order and fetching one never
            # advances it (sim/rng.py), so when it is fetched cannot
            # matter.
            random = self._random
            if random is None:
                random = self._random = sim.rng(self.rng_name).random
            if params.loss_prob > 0 and random() < params.loss_prob:
                stats.dropped_loss += 1
                self._note_drop("loss")
                return
            # ``x * random()`` is bit for bit what ``uniform(0.0, x)``
            # returns for x >= 0 (``0.0 + (x - 0.0) * random()``), minus
            # a Python frame (pinned by tests/net/test_link_transit.py).
            extra_jitter = 0.0
            if params.jitter_s > 0:
                extra_jitter = params.jitter_s * random()
            detour = 0.0
            if params.reorder_prob > 0 and random() < params.reorder_prob:
                detour = params.reorder_delay_s * random()
                stats.detoured += 1
            arrival = (
                tx_free
                + params.delay_s
                + extra_jitter
                + detour
                + fault_extra_s
            )
        sim.call_at(arrival, self._deliver, datagram, deliver)
        if fault_duplicate:
            stats.fault_duplicated += 1
            sim.call_at(
                arrival + fault.duplicate_delay_s, self._deliver, datagram, deliver
            )

    def _note_drop(self, reason: str) -> None:
        tel = self.sim.telemetry
        if tel.active:
            tel.emit("net.drop", link=self.rng_name, reason=reason)
            tel.count(f"net.drop.{reason}")

    def _deliver(self, datagram: Datagram, deliver: DeliverFn) -> None:
        if not self.up:
            return
        self.stats.delivered_packets += 1
        tel = self.sim.telemetry
        if tel.active and tel.firehose:
            tel.emit(
                "net.deliver", link=self.rng_name, bytes=datagram.wire_bytes()
            )
        deliver(datagram)


class Link:
    """A bidirectional link between two nodes.

    Both directions share :class:`LinkParams` by default but keep
    independent transmitter state, random streams and statistics.
    """

    def __init__(
        self,
        sim: Simulator,
        node_a: int,
        node_b: int,
        params: LinkParams,
        reverse_params: Optional[LinkParams] = None,
    ) -> None:
        if node_a == node_b:
            raise NetworkError(f"link endpoints must differ, got {node_a}")
        self.node_a = node_a
        self.node_b = node_b
        self.forward = _Direction(sim, params, f"link.{node_a}->{node_b}")
        self.backward = _Direction(
            sim, reverse_params or params, f"link.{node_b}->{node_a}"
        )

    def direction(self, from_node: int) -> _Direction:
        if from_node == self.node_a:
            return self.forward
        if from_node == self.node_b:
            return self.backward
        raise NetworkError(
            f"node {from_node} is not an endpoint of link "
            f"({self.node_a},{self.node_b})"
        )

    @property
    def up(self) -> bool:
        return self.forward.up and self.backward.up

    def set_up(self, up: bool) -> None:
        """Bring both directions up or down (partition injection)."""
        self.forward.up = up
        self.backward.up = up

    def set_fault(self, fault: Optional[LinkFault]) -> None:
        """Install (or clear, with None) an impairment on both directions."""
        self.forward.set_fault(fault)
        self.backward.set_fault(fault)

    def stats(self) -> LinkStats:
        """Aggregated two-direction statistics."""
        total = LinkStats()
        for direction in (self.forward, self.backward):
            total.sent_packets += direction.stats.sent_packets
            total.sent_bytes += direction.stats.sent_bytes
            total.delivered_packets += direction.stats.delivered_packets
            total.dropped_loss += direction.stats.dropped_loss
            total.dropped_queue += direction.stats.dropped_queue
            total.detoured += direction.stats.detoured
            total.guaranteed_packets += direction.stats.guaranteed_packets
            total.fault_dropped += direction.stats.fault_dropped
            total.fault_duplicated += direction.stats.fault_duplicated
            total.fault_delayed += direction.stats.fault_delayed
        return total
