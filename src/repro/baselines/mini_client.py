"""A minimal playback client for baselines.

Reuses the exact buffer and decoder models of the real client (so the
comparison is apples-to-apples on the display side) but speaks no group
communication and no flow control: baselines push at a fixed rate.
"""

from __future__ import annotations

from repro.client.buffers import InsertOutcome, SoftwareBuffer
from repro.media.decoder import HardwareDecoder
from repro.net.address import Endpoint, VIDEO_PORT
from repro.net.network import Network
from repro.net.packet import Datagram
from repro.net.udp import UdpSocket
from repro.service.protocol import FramePacket
from repro.sim.core import Simulator
from repro.sim.process import Timer
from repro.telemetry.series import Probe


class MiniClient:
    """Receive-buffer-display pipeline without the control plane: 30 fps
    display and the paper's buffers (37 frames, 240 KiB of decoder)."""

    def __init__(self, sim: Simulator, network: Network, node_id: int) -> None:
        self.sim = sim
        self.fps = 30
        self.socket = UdpSocket(
            network.node(node_id), VIDEO_PORT, on_receive=self._on_datagram
        )
        self.software_buffer = SoftwareBuffer(37)
        self.decoder = HardwareDecoder(240 * 1024)
        self.received = 0
        self.late_frames = 0
        self.overflow_discards = 0
        self.playback_started = False
        self._decoder_timer = None
        self._probe = Probe(sim, 0.25)
        self.skipped_cum = self._probe.watch(
            "skipped_cumulative", lambda: self.decoder.stats.skipped_gaps
        )
        self.sw_occupancy = self._probe.watch(
            "software_frames", lambda: self.software_buffer.occupancy
        )

    @property
    def endpoint(self) -> Endpoint:
        return self.socket.endpoint

    @property
    def skipped_total(self) -> int:
        return self.decoder.stats.skipped_gaps

    @property
    def stall_time_s(self) -> float:
        return self.decoder.stats.stall_time_s

    def _on_datagram(self, datagram: Datagram) -> None:
        payload = datagram.payload
        if not isinstance(payload, FramePacket):
            return
        frame = payload.frame
        self.received += 1
        if frame.index <= self.decoder.highest_pushed_index:
            self.late_frames += 1
        else:
            eviction = self.software_buffer.insert(frame)
            if eviction.outcome == InsertOutcome.DUPLICATE:
                self.late_frames += 1
            elif eviction.outcome == InsertOutcome.STORED_EVICTED:
                self.overflow_discards += 1
        self._pump()
        if not self.playback_started:
            self.playback_started = True
            self._decoder_timer = Timer(self.sim, 1.0 / self.fps, self._tick)

    def _tick(self) -> None:
        self.decoder.consume_one(self.sim.now)
        self._pump()

    def _pump(self) -> None:
        while True:
            frame = self.software_buffer.peek_next()
            if frame is None or not self.decoder.has_space_for(frame):
                return
            self.decoder.push(self.software_buffer.pop_next())

    def stop(self) -> None:
        if self._decoder_timer is not None:
            self._decoder_timer.cancel()
        self.decoder.end_stall(self.sim.now)
        self._probe.stop()
        if not self.socket.closed:
            self.socket.close()
