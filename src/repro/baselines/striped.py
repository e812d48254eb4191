"""A Tiger-like striped video cluster (the paper's Section 7 comparison).

Microsoft Tiger [Bolosky et al.] stripes each movie across all servers
of a tightly coupled cluster and mirrors every block on the next server
(declustered mirroring), with a cluster-wide schedule deciding which
server ships which block when.  We model the schedule as an oracle (a
single timer that always knows which servers are alive — an idealized
stand-in for Tiger's distributed schedule, which only makes the baseline
*stronger*), and reproduce its fault-tolerance envelope:

* one server failure: every block still has a live owner (its mirror) —
  playback survives;
* two failures (even non-concurrent): blocks whose primary and mirror
  are both dead are lost every stripe cycle — visible, periodic frame
  loss, regardless of cluster size.

By contrast, the group-communication service replicates whole movies k
ways and tolerates k-1 failures.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.mini_client import MiniClient
from repro.errors import ServiceError
from repro.gcs.view import ProcessId
from repro.media.movie import Movie
from repro.net.address import Endpoint, VIDEO_PORT
from repro.net.network import Network
from repro.net.udp import UdpSocket
from repro.service.protocol import FramePacket
from repro.sim.core import Simulator
from repro.sim.process import Timer


class _StripeServer:
    """One cluster member: a node with a video socket."""

    def __init__(self, sim: Simulator, network: Network, node_id: int, index: int):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.index = index
        self.socket = UdpSocket(network.node(node_id), VIDEO_PORT)
        self.frames_sent = 0

    @property
    def alive(self) -> bool:
        return self.network.node(self.node_id).alive and not self.socket.closed

    def send(self, packet: FramePacket, client: Endpoint) -> None:
        if not self.alive:
            return
        self.frames_sent += 1
        self.socket.sendto(client, packet, packet.wire_bytes())

    def crash(self) -> None:
        self.network.node(self.node_id).crash()


class StripedCluster:
    """A striped, mirrored VoD cluster streaming one movie to one client."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        movie: Movie,
        server_node_ids: List[int],
        stripe_frames: int = 12,
        decluster: int = 1,
    ) -> None:
        """``decluster`` is Tiger's declustering factor d: each block's
        secondary copy is spread over the next d cubs, so a failed cub's
        load lands on d neighbours (1/d extra each) instead of doubling
        one neighbour."""
        if len(server_node_ids) < 2:
            raise ServiceError("a striped cluster needs at least 2 servers")
        if not 1 <= decluster < len(server_node_ids):
            raise ServiceError(
                f"decluster factor must be in [1, n_servers), got {decluster!r}"
            )
        self.sim = sim
        self.movie = movie
        self.stripe_frames = stripe_frames
        self.decluster = decluster
        self.servers = [
            _StripeServer(sim, network, node_id, index)
            for index, node_id in enumerate(server_node_ids)
        ]
        self._client_endpoint: Optional[Endpoint] = None
        self._position = 1
        self._timer: Optional[Timer] = None
        self.lost_blocks = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def primary_of(self, frame_index: int) -> int:
        return ((frame_index - 1) // self.stripe_frames) % len(self.servers)

    def mirror_of(self, frame_index: int) -> int:
        """The cub holding this block's secondary copy.

        With declustering d, block b of a failed primary p lives on cub
        ``p + 1 + (b mod d)`` — consecutive lost blocks fan out over d
        neighbours instead of hammering one.
        """
        block = (frame_index - 1) // self.stripe_frames
        offset = 1 + (block % self.decluster)
        return (self.primary_of(frame_index) + offset) % len(self.servers)

    def owner_of(self, frame_index: int) -> Optional[_StripeServer]:
        """The live server responsible for the frame, or None if lost."""
        primary = self.servers[self.primary_of(frame_index)]
        if primary.alive:
            return primary
        mirror = self.servers[self.mirror_of(frame_index)]
        if mirror.alive:
            return mirror
        return None

    def secondary_load_shares(self) -> List[float]:
        """Fraction of a dead cub's blocks each survivor would absorb —
        the quantity Tiger's declustering bounds at 1/d."""
        counts = [0] * len(self.servers)
        blocks = (len(self.movie) + self.stripe_frames - 1) // self.stripe_frames
        dead = 0  # analyze the failure of cub 0
        covered = 0
        for block in range(blocks):
            frame = block * self.stripe_frames + 1
            if self.primary_of(frame) != dead:
                continue
            covered += 1
            counts[self.mirror_of(frame)] += 1
        return [count / max(1, covered) for count in counts]

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def start(self, client: MiniClient) -> None:
        """Begin streaming to the client, with a small startup lead.

        Tiger feeds clients slightly ahead of real time to build the
        playout buffer; we model that as a 2 s lead-in at twice the rate.
        """
        self._client_endpoint = client.endpoint
        self._lead_until = self.sim.now + 2.0
        self._lead_done = False
        self._timer = Timer(
            self.sim, 1.0 / (2 * self.movie.fps), self._tick, start_delay=0.0
        )

    def _tick(self) -> None:
        if self._position > len(self.movie):
            self._timer.cancel()
            return
        frame = self.movie.frame(self._position)
        owner = self.owner_of(frame.index)
        if owner is None:
            self.lost_blocks += 1
        else:
            packet = FramePacket(
                frame=frame,
                epoch=0,
                server=ProcessId(owner.node_id, f"stripe{owner.index}"),
                sent_at=self.sim.now,
            )
            owner.send(packet, self._client_endpoint)
        self._position += 1
        if not self._lead_done and self.sim.now >= self._lead_until:
            # Drop from the 2x lead-in to real-time pacing.
            self._lead_done = True
            self._timer.cancel()
            self._timer = Timer(self.sim, 1.0 / self.movie.fps, self._tick)

    def crash_server(self, index: int) -> None:
        self.servers[index].crash()


def run_striped_crash(
    n_servers: int = 3,
    kills: int = 1,
    duration_s: float = 90.0,
    seed: int = 31,
):
    """Crash ``kills`` striped servers one by one; measure client loss.

    Returns (client, cluster).  Kills are spaced 15 s apart starting at
    t=30 s — deliberately *not* concurrent, matching the paper's point
    that Tiger fails on two failures "even if the failures are not
    concurrent".
    """
    from repro.net.topologies import build_lan
    from repro.sim.core import Simulator

    sim = Simulator(seed=seed)
    topology = build_lan(sim, n_hosts=n_servers + 1)
    movie = Movie.synthetic("feature", duration_s=duration_s)
    cluster = StripedCluster(
        sim,
        topology.network,
        movie,
        [topology.host(i) for i in range(n_servers)],
    )
    client = MiniClient(sim, topology.network, topology.host(n_servers))
    cluster.start(client)
    for kill in range(kills):
        sim.call_at(30.0 + 15.0 * kill, cluster.crash_server, kill)
    sim.run_until(duration_s)
    client.stop()
    return client, cluster
