"""Unit tests for the link model."""

import pytest

from repro.errors import NetworkError
from repro.net.address import Endpoint
from repro.net.link import Link, LinkFault, LinkParams
from repro.net.packet import HEADER_BYTES, Datagram
from repro.sim.core import Simulator


def make_datagram(size=1000):
    return Datagram(Endpoint(0, 1), Endpoint(1, 1), "payload", size)


def collect_link(sim, params, n=1, spacing=0.0, size=1000):
    """Transmit n datagrams over one link direction; return arrivals."""
    link = Link(sim, 0, 1, params)
    arrivals = []
    for i in range(n):
        sim.call_at(
            i * spacing,
            lambda: link.forward.transmit(
                make_datagram(size), lambda d: arrivals.append(sim.now)
            ),
        )
    sim.run()
    return link, arrivals


class TestDelay:
    def test_propagation_delay_applied(self):
        sim = Simulator()
        params = LinkParams(delay_s=0.010, bandwidth_bps=1e9)
        _link, arrivals = collect_link(sim, params)
        serialization = (1000 + HEADER_BYTES) * 8 / 1e9
        assert arrivals[0] == pytest.approx(0.010 + serialization)

    def test_serialization_delay_scales_with_size(self):
        sim = Simulator()
        params = LinkParams(delay_s=0.0, bandwidth_bps=1e6)
        _link, arrivals = collect_link(sim, params, size=10_000)
        assert arrivals[0] == pytest.approx((10_000 + HEADER_BYTES) * 8 / 1e6)

    def test_back_to_back_packets_queue(self):
        sim = Simulator()
        params = LinkParams(delay_s=0.0, bandwidth_bps=1e6)
        _link, arrivals = collect_link(sim, params, n=3, spacing=0.0)
        serialization = (1000 + HEADER_BYTES) * 8 / 1e6
        for i, arrival in enumerate(arrivals):
            assert arrival == pytest.approx((i + 1) * serialization)


class TestLoss:
    def test_lossless_link_delivers_everything(self):
        sim = Simulator()
        _link, arrivals = collect_link(
            sim, LinkParams(loss_prob=0.0), n=200, spacing=0.001
        )
        assert len(arrivals) == 200

    def test_lossy_link_drops_roughly_the_configured_fraction(self):
        sim = Simulator(seed=3)
        link, arrivals = collect_link(
            sim, LinkParams(loss_prob=0.2), n=2000, spacing=0.001
        )
        assert 0.15 < 1 - len(arrivals) / 2000 < 0.25
        assert link.forward.stats.dropped_loss == 2000 - len(arrivals)

    def test_loss_is_deterministic_per_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            _link, arrivals = collect_link(
                sim, LinkParams(loss_prob=0.3), n=100, spacing=0.01
            )
            return len(arrivals)

        assert run(5) == run(5)


class TestZeroOverheadLink:
    """A clean direction (no loss, jitter or reorder) takes the branch
    with no RNG lookup: its named stream is never even created."""

    def test_clean_link_never_creates_its_rng_stream(self):
        sim = Simulator(seed=3)
        _link, arrivals = collect_link(sim, LinkParams(), n=5, spacing=0.01)
        assert len(arrivals) == 5
        assert "link.0->1" not in sim.rngs.names()

    def test_lossy_link_uses_its_rng_stream(self):
        sim = Simulator(seed=3)
        collect_link(sim, LinkParams(loss_prob=0.5), n=5, spacing=0.01)
        assert "link.0->1" in sim.rngs.names()

    def test_a_fault_draws_from_its_own_stream_only(self):
        sim = Simulator(seed=3)
        link = Link(sim, 0, 1, LinkParams())
        link.forward.set_fault(LinkFault(drop_prob=0.5))
        for i in range(5):
            sim.call_at(
                i * 0.01, link.forward.transmit, make_datagram(), lambda d: None
            )
        sim.run()
        assert "fault.link.0->1" in sim.rngs.names()
        assert "link.0->1" not in sim.rngs.names()


class TestQueueDrop:
    def test_tail_drop_under_overload(self):
        sim = Simulator()
        params = LinkParams(
            delay_s=0.0, bandwidth_bps=1e5, queue_packets=4
        )
        link, arrivals = collect_link(sim, params, n=100, spacing=0.0)
        assert link.forward.stats.dropped_queue > 0
        assert len(arrivals) < 100


class TestReorder:
    def test_detour_can_reorder(self):
        sim = Simulator(seed=2)
        params = LinkParams(
            delay_s=0.001, reorder_prob=0.2, reorder_delay_s=0.5,
            bandwidth_bps=1e9,
        )
        link = Link(sim, 0, 1, params)
        order = []
        for i in range(100):
            sim.call_at(
                i * 0.01,
                lambda i=i: link.forward.transmit(
                    make_datagram(), lambda d, i=i: order.append(i)
                ),
            )
        sim.run()
        assert link.forward.stats.detoured > 0
        assert any(b < a for a, b in zip(order, order[1:]))


class TestLifecycle:
    def test_down_link_drops_traffic(self):
        sim = Simulator()
        link = Link(sim, 0, 1, LinkParams())
        link.set_up(False)
        arrivals = []
        link.forward.transmit(make_datagram(), lambda d: arrivals.append(d))
        sim.run()
        assert arrivals == []
        assert not link.up

    def test_in_flight_packet_lost_when_link_goes_down(self):
        sim = Simulator()
        link = Link(sim, 0, 1, LinkParams(delay_s=1.0))
        arrivals = []
        link.forward.transmit(make_datagram(), lambda d: arrivals.append(d))
        sim.call_at(0.5, link.set_up, False)
        sim.run()
        assert arrivals == []

    def test_direction_lookup(self):
        link = Link(Simulator(), 3, 7, LinkParams())
        assert link.direction(3) is link.forward
        assert link.direction(7) is link.backward
        with pytest.raises(NetworkError):
            link.direction(9)

    def test_self_loop_rejected(self):
        with pytest.raises(NetworkError):
            Link(Simulator(), 1, 1, LinkParams())


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delay_s": -1},
            {"jitter_s": -0.1},
            {"loss_prob": 1.0},
            {"loss_prob": -0.1},
            {"bandwidth_bps": 0},
            {"queue_packets": 0},
            {"reorder_prob": 1.5},
            {"reorder_delay_s": -1},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(NetworkError):
            LinkParams(**kwargs).validate()


class TestStats:
    def test_aggregated_stats_cover_both_directions(self):
        sim = Simulator()
        link = Link(sim, 0, 1, LinkParams())
        link.forward.transmit(make_datagram(), lambda d: None)
        link.backward.transmit(make_datagram(), lambda d: None)
        sim.run()
        stats = link.stats()
        assert stats.sent_packets == 2
        assert stats.delivered_packets == 2
        assert stats.sent_bytes == 2 * (1000 + HEADER_BYTES)
