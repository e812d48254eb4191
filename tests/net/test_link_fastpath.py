"""Conformance tests for the link-layer fast path.

Two mechanisms are under test: the zero-overhead transmit path (clean
links skip the RNG draws entirely — and never even create the stream)
and :class:`repro.net.burst.BurstTransfer` (a precomputed window of
sends replayed with one recycled event handle).  Both must be
observationally identical to the per-packet slow path on loss-free
routes.
"""

import pytest

from repro.errors import SocketClosedError
from repro.net.address import Endpoint
from repro.net.link import LinkFault, LinkParams
from repro.net.network import Network
from repro.net.packet import HEADER_BYTES
from repro.net.udp import UdpSocket
from repro.sim.core import Simulator

#: 1 Mbit/s so serialization times are large and queueing is visible.
SLOW_LINK = LinkParams(delay_s=0.001, bandwidth_bps=1e6)

#: Wire size 1000 bytes => exactly 8 ms serialization on SLOW_LINK.
PAYLOAD_BYTES = 1000 - HEADER_BYTES


def build_chain(sim, n_nodes, link=SLOW_LINK):
    """a--b--c--... chain; returns the network."""
    net = Network(sim)
    for i in range(n_nodes):
        net.add_node(f"n{i}")
        if i:
            net.add_link(i - 1, i, link)
    return net


def open_pair(net, src_node, dst_node, port=7000):
    got = []
    UdpSocket(
        net.node(dst_node), port,
        on_receive=lambda d: got.append((net.sim.now, d.payload)),
    )
    sock = UdpSocket(net.node(src_node), port)
    return sock, got


class TestZeroOverheadLink:
    """Clean links never touch their RNG stream."""

    def test_clean_link_never_creates_rng_stream(self, sim):
        net = build_chain(sim, 2)
        sock, got = open_pair(net, 0, 1)
        for i in range(5):
            sim.call_at(i * 0.01, sock.sendto, Endpoint(1, 7000), i,
                        PAYLOAD_BYTES)
        sim.run()
        assert [p for _, p in got] == list(range(5))
        assert "link.0->1" not in sim.rngs.names()

    def test_lossy_link_uses_rng_stream(self, sim):
        net = build_chain(
            sim, 2, link=LinkParams(delay_s=0.001, bandwidth_bps=1e6,
                                    loss_prob=0.5),
        )
        sock, _ = open_pair(net, 0, 1)
        for i in range(5):
            sim.call_at(i * 0.01, sock.sendto, Endpoint(1, 7000), i,
                        PAYLOAD_BYTES)
        sim.run()
        assert "link.0->1" in sim.rngs.names()


def run_slow(n_nodes, send_times, link=SLOW_LINK, payload_bytes=None):
    """Per-packet sends at the given times; returns (deliveries, net)."""
    sim = Simulator(seed=3)
    net = build_chain(sim, n_nodes, link=link)
    sock, got = open_pair(net, 0, n_nodes - 1)
    dst = Endpoint(n_nodes - 1, 7000)
    for i, t in enumerate(send_times):
        size = payload_bytes[i] if payload_bytes else PAYLOAD_BYTES
        sim.call_at(t, sock.sendto, dst, i, size)
    sim.run()
    return got, net


def run_burst(n_nodes, send_times, link=SLOW_LINK, payload_bytes=None):
    """The same sends as one burst; returns (deliveries, net, burst)."""
    sim = Simulator(seed=3)
    net = build_chain(sim, n_nodes, link=link)
    sock, got = open_pair(net, 0, n_nodes - 1)
    dst = Endpoint(n_nodes - 1, 7000)
    sizes = payload_bytes or [PAYLOAD_BYTES] * len(send_times)
    holder = {}

    def start():
        # The i-th frame's payload is i.
        holder["burst"] = sock.sendto_burst(dst, send_times, sizes, int)

    sim.call_at(send_times[0], start)
    sim.run()
    return got, net, holder["burst"]


def direction_stats(net):
    return tuple(
        (
            d.stats.sent_packets, d.stats.sent_bytes,
            d.stats.delivered_packets, d.stats.dropped_queue,
            d.stats.dropped_loss,
        )
        for lnk in net.links()
        for d in (lnk.forward, lnk.backward)
    )


class TestBurstConformance:
    """Burst deliveries are bit-identical to per-packet sends."""

    def test_two_hop_deliveries_identical(self):
        times = [0.0, 0.002, 0.004, 0.030, 0.060]
        slow, slow_net = run_slow(3, times)
        fast, fast_net, burst = run_burst(3, times)
        assert fast == slow
        assert direction_stats(fast_net) == direction_stats(slow_net)
        assert burst.delivered == len(times)
        assert burst.finished and not burst.aborted

    def test_queue_tail_drop_identical(self):
        # Back-to-back sends against a 2-packet queue: the arithmetic
        # that decides which packet is tail-dropped must agree exactly.
        link = LinkParams(delay_s=0.001, bandwidth_bps=1e6, queue_packets=2)
        times = [0.0] * 6
        slow, slow_net = run_slow(2, times, link=link)
        fast, fast_net, burst = run_burst(2, times, link=link)
        assert fast == slow
        assert direction_stats(fast_net) == direction_stats(slow_net)
        assert burst.dropped > 0
        assert burst.delivered + burst.dropped == len(times)

    def test_socket_counters_settle_to_same_totals(self):
        times = [0.0, 0.001, 0.002]
        sim = Simulator(seed=3)
        net = build_chain(sim, 2)
        sock, _ = open_pair(net, 0, 1)
        sock.sendto_burst(
            Endpoint(1, 7000), times, [PAYLOAD_BYTES] * len(times), int
        )
        sim.run()
        assert sock.sent_packets == len(times)
        assert sock.sent_bytes == len(times) * PAYLOAD_BYTES


class TestRevocation:
    def test_revoke_cuts_only_unsent_frames(self, sim):
        net = build_chain(sim, 2)
        sock, got = open_pair(net, 0, 1)
        burst = sock.sendto_burst(
            Endpoint(1, 7000), [0.0, 0.010, 0.020], [PAYLOAD_BYTES] * 3,
            "abc".__getitem__,
        )
        sim.call_at(0.012, burst.revoke_after, 0.012)
        sim.run()
        assert burst.revoked == 1
        assert [p for _, p in got] == ["a", "b"]

    def test_revoke_uses_entry_send_time_not_serialization_start(self, sim):
        # A frame queued behind a large predecessor starts serializing
        # long after its sendto() time.  Revocation is by *send* time:
        # once handed to the link the frame is on the wire and a later
        # control input cannot recall it (the slow path could not).
        net = build_chain(sim, 2)
        big = 10000 - HEADER_BYTES   # 80 ms serialization
        small = PAYLOAD_BYTES        # 8 ms, queued until t=0.080
        sock, got = open_pair(net, 0, 1)
        burst = sock.sendto_burst(
            Endpoint(1, 7000), [0.0, 0.001], [big, small],
            ["big", "small"].__getitem__,
        )
        sim.call_at(0.002, burst.revoke_after, 0.002)
        sim.run()
        assert burst.revoked == 0
        assert [p for _, p in got] == ["big", "small"]

    def test_revoking_everything_finishes_the_burst(self, sim):
        net = build_chain(sim, 2)
        sock, got = open_pair(net, 0, 1)
        burst = sock.sendto_burst(
            Endpoint(1, 7000), [0.010, 0.020], [PAYLOAD_BYTES] * 2,
            "ab".__getitem__,
        )
        assert burst.revoke_after(0.0) == 2
        assert burst.finished
        sim.run()
        assert got == []

    def test_revoke_settles_transmitter_occupancy(self):
        # After a mid-window collapse the frames already sent still
        # occupy the transmitter.  A follow-up per-packet send must
        # queue behind them exactly as it would have in an all-slow run
        # (regression: the stale live value let it jump the queue).
        times = [0.0, 0.0, 0.0]

        def follow_up(sim, sock, dst, burst):
            def send():
                if burst is not None:
                    burst.revoke_after(sim.now)
                sock.sendto(dst, "late", PAYLOAD_BYTES)
            sim.call_at(0.001, send)

        def run(batched):
            sim = Simulator(seed=3)
            net = build_chain(sim, 2)
            sock, got = open_pair(net, 0, 1)
            dst = Endpoint(1, 7000)
            if batched:
                burst = sock.sendto_burst(
                    dst, times, [PAYLOAD_BYTES] * len(times), int
                )
            else:
                burst = None
                for i, t in enumerate(times):
                    sim.call_at(t, sock.sendto, dst, i, PAYLOAD_BYTES)
            follow_up(sim, sock, dst, burst)
            sim.run()
            return got

        assert run(batched=True) == run(batched=False)


class TestAbort:
    def test_transit_crash_aborts_and_notifies(self, sim):
        net = build_chain(sim, 3)
        sock, got = open_pair(net, 0, 2)
        times = [i * 0.010 for i in range(6)]
        aborted = []
        burst = sock.sendto_burst(
            Endpoint(2, 7000), times, [PAYLOAD_BYTES] * len(times), int,
            on_abort=lambda: aborted.append(1),
        )
        sim.call_at(0.025, net.node(1).crash)
        sim.run()
        assert aborted == [1]
        assert burst.aborted and burst.finished
        assert 0 < len(got) < len(times)


class TestEligibility:
    def test_lossy_path_declines(self, sim):
        net = build_chain(
            sim, 2, link=LinkParams(delay_s=0.001, bandwidth_bps=1e6,
                                    loss_prob=0.01),
        )
        sock, _ = open_pair(net, 0, 1)
        assert sock.sendto_burst(
            Endpoint(1, 7000), [0.0], [PAYLOAD_BYTES], "x".__getitem__
        ) is None

    def test_faulted_link_declines(self, sim):
        net = build_chain(sim, 2)
        net.set_link_fault(0, 1, LinkFault(drop_prob=0.1))
        sock, _ = open_pair(net, 0, 1)
        assert sock.sendto_burst(
            Endpoint(1, 7000), [0.0], [PAYLOAD_BYTES], "x".__getitem__
        ) is None

    def test_scheduling_noise_at_destination_declines(self, sim):
        net = build_chain(sim, 2)
        net.node(1).scheduling_noise_s = 0.001
        sock, _ = open_pair(net, 0, 1)
        assert sock.sendto_burst(
            Endpoint(1, 7000), [0.0], [PAYLOAD_BYTES], "x".__getitem__
        ) is None

    def test_closed_socket_raises(self, sim):
        net = build_chain(sim, 2)
        sock, _ = open_pair(net, 0, 1)
        sock.close()
        with pytest.raises(SocketClosedError):
            sock.sendto_burst(
                Endpoint(1, 7000), [0.0], [PAYLOAD_BYTES], "x".__getitem__
            )


class TestCarry:
    def test_carry_tx_free_keeps_boundary_queueing_exact(self):
        # Serialization (15 ms) exceeds the tick spacing (10 ms), so the
        # queue builds across the window boundary.  The second window
        # must inherit the first window's projected transmitter state —
        # the live value lags at delivery-time settlement.
        link = LinkParams(delay_s=0.001, bandwidth_bps=1e6)
        size = 1875 - HEADER_BYTES  # 15 ms on 1 Mbit/s
        ticks = [0.0, 0.010, 0.020, 0.030]

        def run_batched():
            sim = Simulator(seed=3)
            net = build_chain(sim, 2, link=link)
            sock, got = open_pair(net, 0, 1)
            dst = Endpoint(1, 7000)
            burst1 = sock.sendto_burst(dst, ticks[:2], [size] * 2, int)

            def second_window():
                sock.sendto_burst(
                    dst, ticks[2:], [size] * 2, lambda i: i + 2,
                    carry_tx_free=burst1.projected_tx_free,
                )

            sim.call_at(ticks[2], second_window)
            sim.run()
            return got

        slow, _ = run_slow(2, ticks, link=link,
                           payload_bytes=[size] * len(ticks))
        assert run_batched() == slow
