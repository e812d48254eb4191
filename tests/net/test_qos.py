"""Unit and integration tests for QoS reservations."""

import pytest

from repro.errors import NetworkError
from repro.net.address import Endpoint
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.net.qos import QosManager
from repro.net.topologies import build_wan
from repro.net.udp import UdpSocket
from repro.sim.core import Simulator


def lossy_pair(sim, loss=0.3, bandwidth=1e6):
    net = Network(sim)
    net.add_node()
    net.add_node()
    net.add_link(0, 1, LinkParams(
        delay_s=0.001, loss_prob=loss, bandwidth_bps=bandwidth
    ))
    qos = QosManager(net)
    qos.install()
    return net, qos


class TestAdmission:
    def test_reserve_within_capacity(self, sim):
        net, qos = lossy_pair(sim)
        reservation = qos.reserve(0, 1, cbr_bps=400_000, vbr_bps=100_000)
        assert reservation is not None
        assert qos.committed_on(0, 1) == 500_000

    def test_admission_rejects_over_subscription(self, sim):
        net, qos = lossy_pair(sim, bandwidth=1e6)
        assert qos.reserve(0, 1, cbr_bps=500_000) is not None
        # 80% of 1 Mbps is reservable: a second 500 kbps flow won't fit.
        assert qos.reserve(0, 1, cbr_bps=500_000) is None
        assert qos.rejected_admissions == 1

    def test_release_frees_capacity(self, sim):
        net, qos = lossy_pair(sim)
        first = qos.reserve(0, 1, cbr_bps=600_000)
        assert qos.reserve(0, 1, cbr_bps=600_000) is None
        qos.release(first)
        assert qos.committed_on(0, 1) == 0.0
        assert qos.reserve(0, 1, cbr_bps=600_000) is not None

    def test_release_is_idempotent(self, sim):
        net, qos = lossy_pair(sim)
        reservation = qos.reserve(0, 1, cbr_bps=100_000)
        qos.release(reservation)
        qos.release(reservation)
        assert qos.committed_on(0, 1) == 0.0

    def test_unreachable_path_rejected(self, sim):
        net = Network(sim)
        net.add_node()
        net.add_node()  # no link
        qos = QosManager(net)
        qos.install()
        assert qos.reserve(0, 1, cbr_bps=1000) is None

    def test_invalid_rates_rejected(self, sim):
        net, qos = lossy_pair(sim)
        with pytest.raises(NetworkError):
            qos.reserve(0, 1, cbr_bps=0)
        with pytest.raises(NetworkError):
            qos.reserve(0, 1, cbr_bps=100, vbr_bps=-1)

    def test_invalid_fraction_rejected(self, sim):
        net = Network(sim)
        with pytest.raises(NetworkError):
            QosManager(net, reservable_fraction=0.0)


class TestGuaranteedDelivery:
    def test_reserved_flow_is_lossless(self, sim):
        net, qos = lossy_pair(sim, loss=0.5)
        reservation = qos.reserve(0, 1, cbr_bps=500_000)
        got = []
        UdpSocket(net.node(1), 9, on_receive=lambda d: got.append(d.payload))
        sock = UdpSocket(net.node(0), 9)
        for i in range(200):
            sim.call_at(
                i * 0.01, sock.sendto, Endpoint(1, 9), i, 500,
                reservation.flow_id,
            )
        sim.run_until(5.0)
        assert got == list(range(200))  # all delivered, in order

    def test_unreserved_flow_still_lossy(self, sim):
        net, qos = lossy_pair(sim, loss=0.5)
        got = []
        UdpSocket(net.node(1), 9, on_receive=lambda d: got.append(d))
        sock = UdpSocket(net.node(0), 9)
        for i in range(200):
            sim.call_at(i * 0.01, sock.sendto, Endpoint(1, 9), i, 500)
        sim.run_until(5.0)
        assert 50 < len(got) < 150

    def test_nonconforming_traffic_policed_to_best_effort(self, sim):
        # Reserve 100 kbps but blast ~4 Mbps: excess is policed.
        net, qos = lossy_pair(sim, loss=0.9, bandwidth=1e7)
        reservation = qos.reserve(0, 1, cbr_bps=100_000)
        got = []
        UdpSocket(net.node(1), 9, on_receive=lambda d: got.append(d))
        sock = UdpSocket(net.node(0), 9)
        for i in range(1000):
            sim.call_at(
                i * 0.001, sock.sendto, Endpoint(1, 9), i, 500,
                reservation.flow_id,
            )
        sim.run_until(3.0)
        assert qos.policed_packets > 0
        # Conforming share got through; policed share faced 90% loss.
        assert len(got) < 1000

    def test_guaranteed_skips_jitter(self, sim):
        net = Network(sim)
        net.add_node()
        net.add_node()
        net.add_link(0, 1, LinkParams(
            delay_s=0.010, jitter_s=0.05, bandwidth_bps=1e9
        ))
        qos = QosManager(net)
        qos.install()
        reservation = qos.reserve(0, 1, cbr_bps=1_000_000)
        arrivals = []
        UdpSocket(net.node(1), 9, on_receive=lambda d: arrivals.append(sim.now))
        sock = UdpSocket(net.node(0), 9)
        for i in range(20):
            sim.call_at(
                i * 0.1, sock.sendto, Endpoint(1, 9), i, 500,
                reservation.flow_id,
            )
        sim.run_until(5.0)
        latencies = [t - i * 0.1 for i, t in enumerate(arrivals)]
        spread = max(latencies) - min(latencies)
        assert spread < 0.001  # essentially jitter-free


class TestQosVodService:
    def test_wan_playback_near_lossless_with_qos(self):
        from repro.media.catalog import MovieCatalog
        from repro.media.movie import Movie
        from repro.server.server import ServerConfig
        from repro.service.deployment import Deployment

        sim = Simulator(seed=5)
        topology = build_wan(sim, 2, 1)
        catalog = MovieCatalog([Movie.synthetic("feature", duration_s=60)])
        deployment = Deployment(
            topology,
            catalog,
            server_nodes=[0, 1],
            server_config=ServerConfig(use_qos=True),
        )
        client = deployment.attach_client(2)
        client.request_movie("feature")
        sim.run_until(70.0)
        assert client.finished
        # The reserved stream loses nothing in the network; the only
        # skips are the startup refill's buffer-overflow discards.
        assert client.skipped_total == client.stats.overflow_discards
        assert client.skipped_total <= 15
        assert client.late_total == 0  # no reordering on a CBR channel
        assert deployment.qos.policed_packets == 0  # stream conformed

    def test_reservation_released_on_session_end(self):
        from repro.media.catalog import MovieCatalog
        from repro.media.movie import Movie
        from repro.server.server import ServerConfig
        from repro.service.deployment import Deployment

        sim = Simulator(seed=5)
        topology = build_wan(sim, 2, 1)
        catalog = MovieCatalog([Movie.synthetic("feature", duration_s=15)])
        deployment = Deployment(
            topology,
            catalog,
            server_nodes=[0, 1],
            server_config=ServerConfig(use_qos=True),
        )
        client = deployment.attach_client(2)
        client.request_movie("feature")
        sim.run_until(10.0)
        assert len(deployment.qos.reservations) == 1
        client.stop()
        sim.run_until(15.0)
        assert len(deployment.qos.reservations) == 0
