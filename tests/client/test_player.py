"""Unit-level tests of the client player's reception pipeline.

A deployment provides the plumbing, but these tests craft frame packets
directly at the UDP layer to pin down late/duplicate/overflow/epoch
accounting without depending on server behaviour.  The last test runs
one real per-frame server session end to end.
"""

import pytest

from repro.client.player import ClientConfig, VoDClient
from repro.gcs.domain import GcsDomain
from repro.gcs.view import ProcessId
from repro.media.catalog import MovieCatalog
from repro.media.frames import Frame, FrameType
from repro.media.movie import Movie
from repro.net.address import VIDEO_PORT, Endpoint
from repro.net.topologies import build_lan
from repro.net.udp import UdpSocket
from repro.server.streamer import EOS_REPEATS
from repro.service.deployment import Deployment
from repro.service.protocol import EndOfStream, FramePacket
from repro.sim.core import Simulator


@pytest.fixture
def rig():
    sim = Simulator(seed=4)
    topo = build_lan(sim, n_hosts=2)
    domain = GcsDomain(sim, topo.network)
    client = VoDClient(domain, topo.host(0), "client0", ClientConfig())
    feeder = UdpSocket(topo.network.node(topo.host(1)), VIDEO_PORT)
    server_pid = ProcessId(topo.host(1), "feeder")

    def send(index, ftype=FrameType.P, size=5000, epoch=0):
        frame = Frame("m", index, ftype, size)
        feeder.sendto(
            Endpoint(client.node_id, VIDEO_PORT),
            FramePacket(frame, epoch, server_pid, sim.now),
            size,
        )

    return sim, client, send


def test_frames_counted_and_buffered(rig):
    sim, client, send = rig
    for index in (1, 2, 3):
        send(index)
    sim.run_until(0.01)
    assert client.stats.received == 3
    assert client.combined_occupancy == 3


def test_playback_starts_on_first_frame(rig):
    sim, client, send = rig
    assert not client.playback_started
    send(1)
    sim.run_until(0.1)
    assert client.playback_started
    assert client.displayed_total >= 1


def test_out_of_order_frames_reordered(rig):
    sim, client, send = rig
    for index in (2, 1, 4, 3):
        send(index)
    sim.run_until(0.5)
    assert client.displayed_total == 4
    assert client.skipped_total == 0


def test_frame_behind_decoder_is_late(rig):
    sim, client, send = rig
    for index in (1, 2, 3):
        send(index)
    sim.run_until(0.2)  # all pushed into hardware by now
    send(2)  # duplicate arrives after it was consumed
    sim.run_until(0.3)
    assert client.stats.late_frames == 1


def test_duplicate_in_buffer_counted_late(rig):
    sim, client, send = rig
    send(1)
    for index in (100, 100):
        send(index)
    sim.run_until(0.01)
    assert client.stats.duplicates == 1
    assert client.stats.late_frames == 1


def test_wrong_epoch_dropped(rig):
    sim, client, send = rig
    send(1, epoch=5)
    sim.run_until(0.1)
    assert client.stats.stale_epoch == 1
    assert client.stats.received == 0
    assert not client.playback_started


def test_overflow_discards_prefer_incremental(rig):
    sim, client, send = rig
    # Flood enough frames to fill both buffers (hardware ~48 at 5 KB
    # plus software 37) and force overflow discards.
    gop = [FrameType.I, FrameType.B, FrameType.B, FrameType.P]
    for index in range(2, 120):
        send(index, gop[index % 4], size=5000)
    sim.run_until(0.08)
    assert client.stats.overflow_discards >= 1
    assert client.stats.overflow_discarded_intra == 0


def test_skip_accounting_for_never_arrived_frames(rig):
    sim, client, send = rig
    send(1)
    send(5)  # 2..4 lost in the network
    sim.run_until(0.5)
    assert client.skipped_total == 3


def test_end_of_stream_finishes_after_drain(rig):
    from repro.net.packet import Datagram

    sim, client, send = rig
    for index in (1, 2, 3, 4):
        send(index)
    sim.run_until(0.1)
    eos = Datagram(
        Endpoint(1, VIDEO_PORT),
        Endpoint(client.node_id, VIDEO_PORT),
        EndOfStream("m", 0),
        16,
    )
    client.video_socket.handle_datagram(eos)
    sim.run_until(1.0)
    assert client.finished
    assert client.displayed_total == 4


def test_end_of_stream_with_stale_epoch_ignored(rig):
    from repro.net.packet import Datagram

    sim, client, send = rig
    send(1)
    sim.run_until(0.05)
    eos = Datagram(
        Endpoint(1, VIDEO_PORT),
        Endpoint(client.node_id, VIDEO_PORT),
        EndOfStream("m", 3),  # wrong epoch
        16,
    )
    client.video_socket.handle_datagram(eos)
    sim.run_until(0.5)
    assert not client.eos_received
    assert not client.finished


def test_received_bytes_tracked(rig):
    sim, client, send = rig
    send(1, size=7000)
    send(2, size=3000)
    sim.run_until(0.01)
    assert client.stats.received_bytes == 10_000


def test_a_per_frame_stream_on_a_clean_lan_arrives_whole_and_in_order():
    """One server streams a short movie to one client frame by frame:
    every frame the server counts as sent arrives once, in send order,
    and the client plays the movie to its end."""
    sim = Simulator(seed=23)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=8.0)])
    deployment = Deployment(build_lan(sim, n_hosts=3), catalog, server_nodes=[0])
    (server,) = deployment.servers.values()
    client = deployment.attach_client(1)
    got = []

    def spy(packet, deliver=client._on_frame):
        got.append((packet.sent_at, packet.frame.index))
        deliver(packet)

    client._on_frame = spy
    client.request_movie("feature")
    sim.run_until(16.0)
    assert client.finished
    assert [index for _sent_at, index in got] == list(range(1, 241))
    assert all(a < b for (a, _), (b, _) in zip(got, got[1:]))
    assert server.video_frames_sent == len(got) + EOS_REPEATS
    assert client.displayed_total == len(got)
