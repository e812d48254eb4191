"""One link transit: same floats, same draws, fewer calls.

``_Direction.transmit`` binds its random stream once, draws jitter and
detours without the ``uniform`` wrapper and compares where it used to
call ``max``.  The reference here is the body it replaced, transcribed
(here only): both are driven through the same random schedule of sends
and must agree on every arrival instant with ``==``, on every drop and
its reason, on every counter and on the state of both random streams
after every step.  The stdlib fact the draws rest on is pinned, and a
call budget keeps the next edit to the per-hop loop honest.
"""

import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import Endpoint
from repro.net.link import LinkFault, LinkParams, _Direction
from repro.net.network import Network
from repro.net.packet import Datagram
from repro.net.topologies import WAN_HOP_LINK
from repro.net.udp import UdpSocket
from repro.sim.core import Simulator

NAME = "link.0->1"


class ReferenceDirection(_Direction):
    """``transmit`` as it was before the stream was bound."""

    def transmit(self, datagram, deliver, guaranteed=False):
        if not self.up:
            return
        stats = self.stats
        params = self.params
        wire = datagram.wire_bytes()
        stats.sent_packets += 1
        stats.sent_bytes += wire

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
        now = sim.now
        queue_ahead_s = max(0.0, self._tx_free_at - now)
        if (
            not guaranteed
            and serialization > 0
            and queue_ahead_s > params.queue_packets * serialization
        ):
            stats.dropped_queue += 1
            self._note_drop("queue")
            return
        start_tx = max(now, self._tx_free_at)
        self._tx_free_at = tx_free = start_tx + serialization

        if guaranteed:
            stats.guaranteed_packets += 1
            arrival = tx_free + params.delay_s + fault_extra_s
        elif self._params_clean:
            arrival = tx_free + params.delay_s + fault_extra_s
        else:
            rng = sim.rng(self.rng_name)
            if params.loss_prob > 0 and rng.random() < params.loss_prob:
                stats.dropped_loss += 1
                self._note_drop("loss")
                return
            extra_jitter = 0.0
            if params.jitter_s > 0:
                extra_jitter = rng.uniform(0.0, params.jitter_s)
            detour = 0.0
            if params.reorder_prob > 0 and rng.random() < params.reorder_prob:
                detour = rng.uniform(0.0, params.reorder_delay_s)
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


class World:
    """One direction, everything observable about it, no network."""

    def __init__(self, direction_class, params):
        self.sim = Simulator(seed=41)
        self.direction = direction_class(self.sim, params, NAME)
        self.direction._note_drop = self._dropped
        self.arrivals = []
        self.drops = []
        self.sent = 0

    def _dropped(self, reason):
        self.drops.append((self.sent, reason))

    def _arrived(self, datagram):
        self.arrivals.append((self.sim.now, datagram.payload))

    def send(self, gap, size, guaranteed, fault):
        self.sim.run_until(self.sim.now + gap)
        if fault != "keep":
            self.direction.set_fault(fault)
        self.sent += 1
        datagram = Datagram(Endpoint(0, 9), Endpoint(1, 9), self.sent, size)
        self.direction.transmit(datagram, self._arrived, guaranteed)

    def stream_state(self, name):
        # Not through sim.rng(): looking must not create the stream.
        stream = self.sim.rngs._streams.get(name)
        return None if stream is None else stream.getstate()

    def observable(self):
        return (
            self.arrivals,
            self.drops,
            self.direction.stats,
            self.direction._tx_free_at,
            self.sim.pending_count(),
            self.stream_state(NAME),
            self.stream_state(f"fault.{NAME}"),
        )


# At 1 Mbit/s a 1 400-byte packet holds the transmitter for 11 ms, so the
# gaps below cover an idle transmitter, a backlog and a tail drop.
_PROFILES = [  # the stochastic ones first: Hypothesis favours early entries
    dict(jitter_s=0.003, loss_prob=0.2, reorder_prob=0.3, reorder_delay_s=0.12),
    dict(reorder_prob=0.3, reorder_delay_s=0.12),
    dict(jitter_s=0.003),
    dict(loss_prob=0.3),
    dict(),
]
_params = st.builds(
    lambda profile, bandwidth_bps, queue_packets: LinkParams(
        delay_s=0.004, bandwidth_bps=bandwidth_bps,
        queue_packets=queue_packets, **profile,
    ),
    st.sampled_from(_PROFILES),
    st.sampled_from([1e6, 34e6]),
    st.sampled_from([512, 2, 1]),
)
_faults = st.sampled_from([
    "keep", "keep", "keep", None,
    LinkFault(drop_prob=0.3),
    LinkFault(extra_delay_s=0.002, jitter_s=0.004),
    LinkFault(drop_prob=0.2, jitter_s=0.001, duplicate_prob=0.4),
])
_sends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.0001, 0.003, 0.05]),
        st.sampled_from([0, 100, 1400, 6000]),
        st.sampled_from([False, False, False, True]),
        _faults,
    ),
    min_size=10, max_size=60,
)


@given(params=_params, sends=_sends)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_transmit_equals_the_body_it_replaced(params, sends):
    new, old = World(_Direction, params), World(ReferenceDirection, params)
    for send in sends:
        new.send(*send)
        old.send(*send)
        assert new.observable() == old.observable()
    new.sim.run()
    old.sim.run()
    assert new.observable() == old.observable()
    if new.direction._params_clean:
        assert new.stream_state(NAME) is None


def test_the_stream_is_bound_once_and_is_the_registrys():
    sim = Simulator(seed=3)
    direction = _Direction(sim, LinkParams(jitter_s=0.001), NAME)
    assert direction._random is None and NAME not in sim.rngs.names()
    for _ in range(3):
        direction.transmit(
            Datagram(Endpoint(0, 9), Endpoint(1, 9), None, 10), lambda d: None
        )
    assert direction._random.__self__ is sim.rng(NAME)


def test_uniform_from_zero_is_one_multiplication():
    """The stdlib fact the draws rest on: ``uniform(0.0, x)`` evaluates
    ``0.0 + (x - 0.0) * random()``, which for ``x >= 0`` is ``x *
    random()`` bit for bit.  A stdlib that changes ``uniform`` must fail
    here, loudly, rather than move a golden."""
    # The one lossy link of the topologies, then LinkFault jitters and
    # the widths scenarios and tests use.
    widths = {WAN_HOP_LINK.jitter_s, WAN_HOP_LINK.reorder_delay_s}
    assert widths == {0.003, 0.12}
    widths |= {0.001, 0.004, 0.010, 0.25, 1.0}
    for seed, width in enumerate(sorted(widths)):
        wrapped, bare = random.Random(seed), random.Random(seed)
        for _ in range(10_000):
            r = bare.random()
            u = wrapped.uniform(0.0, width)
            assert u == 0.0 + (width - 0.0) * r == width * r
        assert wrapped.getstate() == bare.getstate()


def test_python_calls_per_link_transit_stay_within_budget():
    """Datagrams over four ``WAN_HOP_LINK`` hops under ``sys.setprofile``:
    a transit is ``run_until -> _deliver -> _forward -> transmit ->
    call_at`` (+ ``EventHandle.__init__``) and a quarter of the two ends
    — 7.3 Python calls, where there were 13.5 before the stream was
    bound.  One more call per hop breaks the budget."""
    sim = Simulator(seed=5)
    net = Network(sim)
    for i in range(5):
        net.add_node()
        if i:
            net.add_link(i - 1, i, WAN_HOP_LINK)
    got = []
    UdpSocket(net.node(4), 9, on_receive=got.append)
    sock = UdpSocket(net.node(0), 9)
    n_sends = 400
    for i in range(n_sends):
        sim.call_at(i * 0.002, sock.sendto, Endpoint(4, 9), i, 6000)

    calls = [0]

    def profile(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sim.run_until(n_sends * 0.002 + 5.0)
    finally:
        sys.setprofile(previous)
    transits = sum(
        direction.stats.sent_packets
        for link in net.links()
        for direction in (link.forward, link.backward)
    )
    assert transits > 3.9 * n_sends and len(got) > 0.95 * n_sends
    assert calls[0] / transits <= 7.5
