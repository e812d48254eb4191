"""The VoD client: session management, playback, flow control, VCR.

The client is deliberately thin (the paper's was ~400 lines of C): it
connects through the abstract server group without knowing any server
identity, buffers and re-orders frames, streams them into the hardware
decoder, and emits flow-control requests per Figure 2.  Server migration
is invisible here by construction — the client just keeps reading its
session group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.client.buffers import (
    DEFAULT_SW_CAPACITY_FRAMES,
    InsertOutcome,
    SoftwareBuffer,
)
from repro.client.flow_control import FlowControlPolicy
from repro.errors import SessionError
from repro.gcs.domain import GcsDomain
from repro.gcs.endpoint import GcsEndpoint, GroupListener
from repro.gcs.view import ProcessId, View
from repro.media.decoder import DEFAULT_HW_CAPACITY_BYTES, HardwareDecoder
from repro.media.movie import DEFAULT_FPS
from repro.net.address import VIDEO_PORT
from repro.net.packet import Datagram
from repro.net.udp import UdpSocket
from repro.service.protocol import (
    SERVER_GROUP,
    ConnectRequest,
    EndOfStream,
    FlowControlMsg,
    FlowKind,
    FramePacket,
    ListMoviesReply,
    ListMoviesRequest,
    QualityNotice,
    VcrCommand,
    VcrOp,
    session_group,
)
from repro.sim.process import Timer
from repro.telemetry.series import Probe, TimeSeries


#: Mean frame size of the paper's streams (1.4 Mbps / 30 fps).
MEAN_FRAME_BYTES = 5833
#: The application-level connect retry (flyweight rows use it too).
CONNECT_RETRY_S = 1.0
#: The least time between two emergency requests.
EMERGENCY_REPEAT_S = 0.5
#: After an emergency request the refill is expected to arrive over
#: several seconds (the decaying quota); while the software buffer is
#: visibly recovering the client does not re-request, bounding the
#: refill overshoot (and hence overflow discards) per event.
EMERGENCY_REFILL_WINDOW_S = 4.0
#: How long the pump waits at a missing frame for a re-ordered late
#: arrival before giving the frame up (network losses are never
#: recovered — Section 2 — so waiting longer only drains the decoder).
#: Sized to cover WAN route-flap detours (~120 ms).
REORDER_PATIENCE_S = 0.25
#: Silence threshold after which the client re-sends its connect
#: request through the server group (last-resort self-repair).
RECONNECT_AFTER_S = 6.0
#: Buffer-occupancy sampling period of the client's probe.
PROBE_PERIOD_S = 0.25


@dataclass(frozen=True)
class ClientConfig:
    """Client tunables, defaulted to the paper's prototype values."""

    sw_capacity_frames: int = DEFAULT_SW_CAPACITY_FRAMES
    hw_capacity_bytes: int = DEFAULT_HW_CAPACITY_BYTES

    # Session-group multiplexing: when true the client joins no
    # per-client session group at all.  It learns (and tracks) its
    # serving server from the ``server`` field of arriving frames and
    # sends flow control / VCR commands point-to-point to it.  One
    # group per *movie* (the servers') replaces N groups per client —
    # the control-plane cost of a viewer drops to zero GCS state.
    session_mux: bool = False
    # Frames to accumulate before starting playback.  While prebuffering
    # the flow-control policy stays silent (the rising buffer is the
    # point, not a congestion signal); playback and watermark steering
    # begin once the buffer reaches this level (or EOS arrives first).
    prebuffer_frames: int = 0

    # Decode capability: None models a hardware MPEG card (decodes at
    # stream rate); a number models a software decoder that can only
    # decode this many frames per second (Section 4.3: "if they do not
    # have hardware video decoders").  Such a client automatically
    # requests reduced-quality video at its decode rate, and any excess
    # frames that still arrive are dropped at the decode stage.
    max_decode_fps: Optional[int] = None

    def hw_capacity_frames(self) -> int:
        """Hardware capacity expressed in (mean-size) frames."""
        return int(self.hw_capacity_bytes / MEAN_FRAME_BYTES)

    def combined_capacity_frames(self) -> int:
        return self.sw_capacity_frames + self.hw_capacity_frames()

    @classmethod
    def software_decoder(cls, max_decode_fps: int = 12, **overrides):
        """Preset for a client decoding in software (no MPEG card).

        The 'hardware' buffer shrinks to a small decode pipeline and the
        decode rate is capped; the client asks the server for
        reduced-quality video to match."""
        defaults = dict(
            hw_capacity_bytes=64 * 1024,
            sw_capacity_frames=64,
            max_decode_fps=max_decode_fps,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class ClientStats:
    """Counters and time series behind Figures 4 and 5."""

    received: int = 0
    received_bytes: int = 0
    late_frames: int = 0
    duplicates: int = 0
    overflow_discards: int = 0
    overflow_discarded_intra: int = 0
    stale_epoch: int = 0
    flow_messages: int = 0
    emergencies_sent: int = 0
    reconnects: int = 0
    decode_overruns: int = 0
    migrations: List[Tuple[float, Optional[ProcessId], Optional[ProcessId]]] = field(
        default_factory=list
    )
    # Time series (sampled by the probe)
    sw_occupancy: Optional[TimeSeries] = None
    hw_occupancy_bytes: Optional[TimeSeries] = None
    combined_occupancy: Optional[TimeSeries] = None
    skipped_cum: Optional[TimeSeries] = None
    late_cum: Optional[TimeSeries] = None
    overflow_cum: Optional[TimeSeries] = None
    received_bytes_cum: Optional[TimeSeries] = None
    displayed_cum: Optional[TimeSeries] = None


class VoDClient:
    """A client of the fault-tolerant VoD service."""

    def __init__(
        self,
        domain: GcsDomain,
        node_id: int,
        name: str,
        config: Optional[ClientConfig] = None,
        endpoint: Optional[GcsEndpoint] = None,
        video_port: Optional[int] = VIDEO_PORT,
    ) -> None:
        self.domain = domain
        self.sim = domain.sim
        self.name = name
        self.config = config or ClientConfig()
        self._owns_endpoint = endpoint is None
        self.endpoint = endpoint or domain.create_endpoint(node_id)
        self.process = self.endpoint.process_id(name)
        self.node_id = self.endpoint.daemon_id

        # ``video_port=None`` binds an ephemeral port, letting many
        # clients share one node (the server learns the port from the
        # connect request, so any port works).
        self.video_socket = UdpSocket(
            self.domain.network.node(self.node_id),
            video_port,
            on_receive=self._on_video_datagram,
        )
        self.software_buffer = SoftwareBuffer(self.config.sw_capacity_frames)
        self.decoder = HardwareDecoder(self.config.hw_capacity_bytes)
        self.flow = FlowControlPolicy(
            self.config.combined_capacity_frames(),
            sw_capacity_frames=self.config.sw_capacity_frames,
        )
        self.stats = ClientStats()

        self.movie_title: Optional[str] = None
        self.session_name: Optional[str] = None
        self.session_handle = None
        self.serving_server: Optional[ProcessId] = None
        self.epoch = 0
        self.paused = False
        self.playback_started = False
        self.finished = False
        self.eos_received = False
        self.quality_fps: Optional[int] = None
        self.playback_speed = 1.0

        self._decoder_timer: Optional[Timer] = None
        self._connect_timer: Optional[Timer] = None
        self._watchdog = Timer(
            self.sim, 0.25, self._watchdog_tick, start_delay=0.25
        )
        self._last_emergency_at = float("-inf")
        self._occ_at_last_emergency = 0
        self._last_frame_at = 0.0
        # Frame indices the client itself discarded on overflow: the
        # pump must not wait for them (they will never arrive again).
        self._discarded_indices = set()
        # Re-ordering window state: the gap index the pump is holding
        # for, and since when.
        self._gap_waiting_for = None
        self._gap_since = 0.0
        # Display playhead: the movie position (frame index) currently
        # on screen.  Advances one index per frame period while content
        # is available; the head frame displays when it is due.
        self._playhead = 0
        self._playhead_frac = 0.0
        self._resync_playhead = True
        self._decode_credit = 0.0
        self._probe = Probe(self.sim, PROBE_PERIOD_S, owner=name)
        self._init_series()
        # Telemetry edge-detection state (no effect on behaviour).
        self._session_span = None
        self._wm_band: Optional[str] = None
        self._was_stalled = False
        self._skips_seen = 0
        # After a mid-playback migration the next frame that arrives is
        # the observable "stream resumed" moment; carry the migration's
        # cause over to it.
        self._await_resume = False
        self._resume_cause: Optional[str] = None
        self.endpoint.register_p2p_handler(name, self._on_p2p)
        self._movie_list_callback: Optional[Callable[[Tuple[str, ...]], None]] = None

    # ==================================================================
    # Public API
    # ==================================================================
    def request_movie(self, title: str, quality_fps: Optional[int] = None) -> None:
        """Connect to the service and start watching ``title``."""
        if self.movie_title is not None:
            raise SessionError(f"client {self.name} is already watching a movie")
        self.movie_title = title
        if quality_fps is None and self.config.max_decode_fps is not None:
            # A software decoder cannot keep up with the full stream:
            # ask for reduced quality matching its capability (§4.3).
            # The server transmits every I frame *in addition to* the
            # requested rate, so leave ~20% headroom for them.
            quality_fps = max(1, int(self.config.max_decode_fps * 0.8))
        self.quality_fps = quality_fps
        self.session_name = session_group(self.name)
        if not self.config.session_mux:
            listener = GroupListener(
                on_view=self._on_session_view, on_message=lambda s, p: None
            )
            self.session_handle = self.endpoint.join(
                self.session_name, self.name, listener
            )
        tel = self.sim.telemetry
        if tel.active:
            self._session_span = tel.span(
                "client.session", key=self.name, movie=title
            )
        self._send_connect()
        self._connect_timer = Timer(
            self.sim, CONNECT_RETRY_S, self._connect_retry
        )

    def list_movies(self, callback: Callable[[Tuple[str, ...]], None]) -> None:
        """Ask the service for its catalog; ``callback`` gets the titles."""
        self._movie_list_callback = callback
        self.endpoint.send_to_group(
            SERVER_GROUP,
            ListMoviesRequest(self.process),
            payload_bytes=16,
            sender_name=self.name,
        )

    # ------------------------------------------------------------------
    # VCR controls (ATM Forum VoD-style)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        self._require_session()
        if self.paused:
            return
        self.paused = True
        self.decoder.end_stall(self.sim.now)
        self._send_vcr(VcrCommand(VcrOp.PAUSE, epoch=self.epoch))

    def resume(self) -> None:
        self._require_session()
        if not self.paused:
            return
        self.paused = False
        self._send_vcr(VcrCommand(VcrOp.RESUME, epoch=self.epoch))

    def seek(self, position_s: float) -> None:
        """Random access within the movie."""
        self._require_session()
        self.epoch += 1
        target_index = max(1, int(position_s * DEFAULT_FPS) + 1)
        self.software_buffer.clear()
        self._discarded_indices.clear()
        self.decoder.flush()
        self.decoder.reposition(target_index)
        self._playhead = target_index - 1
        self._resync_playhead = True
        self.flow.reset_cadence()
        self.eos_received = False
        self._send_vcr(
            VcrCommand(VcrOp.SEEK, position_s=position_s, epoch=self.epoch)
        )

    def set_quality(self, quality_fps: Optional[int]) -> None:
        """Request reduced-rate video (all I frames are always kept)."""
        self._require_session()
        self.quality_fps = quality_fps
        self._send_vcr(
            VcrCommand(VcrOp.QUALITY, quality_fps=quality_fps, epoch=self.epoch)
        )

    def set_speed(self, speed: float) -> None:
        """VCR speed control: fast-forward / slow motion.

        The server covers movie positions at ``speed`` times the normal
        pace, thinning transmitted frames (always keeping I frames) so
        the wire rate stays within the stream budget — the classic VCR
        cue/review experience."""
        self._require_session()
        self.playback_speed = speed
        self._send_vcr(VcrCommand(VcrOp.SPEED, speed=speed, epoch=self.epoch))

    def stop(self) -> None:
        """Tear the client down (leave groups, stop timers)."""
        self._end_session_span()
        if self.session_handle is not None:
            self.session_handle.leave()
            self.session_handle = None
        for timer in (self._decoder_timer, self._connect_timer, self._watchdog):
            if timer is not None:
                timer.cancel()
        self._probe.stop()
        self.decoder.end_stall(self.sim.now)
        if not self.video_socket.closed:
            self.video_socket.close()
        if self._owns_endpoint and not self.endpoint.closed:
            self.endpoint.shutdown()

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------
    @property
    def combined_occupancy(self) -> int:
        return self.software_buffer.occupancy + self.decoder.occupancy_frames

    @property
    def skipped_total(self) -> int:
        """Frames never displayed (the Figure 4a/5a 'skipped' metric)."""
        return self.decoder.stats.skipped_gaps

    @property
    def late_total(self) -> int:
        return self.stats.late_frames

    @property
    def displayed_total(self) -> int:
        return self.decoder.stats.displayed

    # ==================================================================
    # Connection establishment
    # ==================================================================
    def _send_connect(self) -> None:
        resume = 1
        if self.playback_started:
            resume = max(1, self.decoder.stats.last_displayed_index + 1)
        request = ConnectRequest(
            client=self.process,
            movie=self.movie_title,
            video_endpoint=self.video_socket.endpoint,
            session=self.session_name,
            quality_fps=self.quality_fps,
            resume_offset=resume,
            resume_epoch=self.epoch,
        )
        self.endpoint.send_to_group(
            SERVER_GROUP, request, payload_bytes=request.wire_bytes(),
            sender_name=self.name,
        )

    def _connect_retry(self) -> None:
        if self.serving_server is not None or self.finished:
            if self._connect_timer is not None:
                self._connect_timer.cancel()
                self._connect_timer = None
            return
        self._send_connect()

    def _on_session_view(self, view: View) -> None:
        servers = [member for member in view.members if member != self.process]
        self._note_server(min(servers) if servers else None)

    def _note_server(self, new_server: Optional[ProcessId]) -> None:
        """Record a serving-server transition (from the session-group
        view, or — under ``session_mux`` — from the ``server`` field of
        an arriving frame)."""
        if new_server != self.serving_server:
            tel = self.sim.telemetry
            if tel.active:
                # The cause was attributed to this client by the crashed
                # / rebalancing server; the ambient cause covers the case
                # where this view install runs synchronously under it.
                cause = tel.cause_for(f"client:{self.process}")
                fields = dict(
                    client=self.name,
                    from_server=str(self.serving_server),
                    to_server=str(new_server),
                )
                if cause is not None:
                    fields["cause"] = cause
                tel.emit("client.migrate", **fields)
                tel.count("client.migrations")
                if self.serving_server is not None and new_server is not None:
                    self._await_resume = True
                    self._resume_cause = cause
            self.stats.migrations.append(
                (self.sim.now, self.serving_server, new_server)
            )
            self.serving_server = new_server
            self.flow.reset_cadence()

    # ==================================================================
    # Video reception
    # ==================================================================
    def _on_video_datagram(self, datagram: Datagram) -> None:
        payload = datagram.payload
        if isinstance(payload, EndOfStream):
            if payload.epoch == self.epoch:
                self.eos_received = True
                if not self.playback_started and self.combined_occupancy:
                    # A movie shorter than the prebuffer target: play
                    # out whatever arrived.
                    self._start_playback()
            return
        if not isinstance(payload, FramePacket):
            return
        self._on_frame(payload)

    def _on_frame(self, packet: FramePacket) -> None:
        if self.finished:
            return
        if packet.epoch != self.epoch:
            self.stats.stale_epoch += 1
            return
        if self.config.session_mux and packet.server != self.serving_server:
            # No session group to announce migrations: the stream itself
            # is the signal.  A frame from a new server IS the takeover.
            self._note_server(packet.server)
        frame = packet.frame
        self.stats.received += 1
        self.stats.received_bytes += frame.size_bytes
        self._last_frame_at = self.sim.now

        if frame.index <= self.decoder.highest_pushed_index:
            # Too late to re-order: successors already went to hardware.
            # Duplicates from migration overlap land here too.
            self.stats.late_frames += 1
        else:
            eviction = self.software_buffer.insert(frame)
            if eviction.outcome == InsertOutcome.DUPLICATE:
                self.stats.duplicates += 1
                self.stats.late_frames += 1
            elif eviction.outcome == InsertOutcome.STORED_EVICTED:
                self.stats.overflow_discards += 1
                self._discarded_indices.add(eviction.victim.index)
                if eviction.victim.is_intra:
                    self.stats.overflow_discarded_intra += 1

        self._pump()
        if not self.playback_started and self._prebuffer_ready():
            self._start_playback()
        tel = self.sim.telemetry
        if tel.active:
            if self._await_resume:
                # First frame since the migration: the stream resumed.
                fields = dict(client=self.name, frame=frame.index)
                if self._resume_cause is not None:
                    fields["cause"] = self._resume_cause
                tel.emit("client.resume", **fields)
                tel.count("client.resumes")
                self._await_resume = False
                self._resume_cause = None
            self._note_telemetry_edges()
        self._flow_control_step()

    def _flow_control_step(self) -> None:
        if not self.playback_started and self.config.prebuffer_frames > 0:
            return  # the prebuffer fills at stream rate by design
        message = self.flow.on_frame_received(
            self.combined_occupancy, self.software_buffer.occupancy
        )
        if message is None:
            return
        self._send_flow(message)

    def _send_flow(self, message: FlowControlMsg) -> None:
        if self.config.session_mux:
            if self.serving_server is None:
                return
        elif self.session_handle is None or not self.session_handle.is_member:
            return
        if message.kind == FlowKind.EMERGENCY and not self._emergency_allowed():
            return
        self.stats.flow_messages += 1
        if message.kind == FlowKind.EMERGENCY:
            self.stats.emergencies_sent += 1
            self._last_emergency_at = self.sim.now
            self._occ_at_last_emergency = self.software_buffer.occupancy
        tel = self.sim.telemetry
        if tel.active:
            tel.emit(
                "client.flow",
                client=self.name,
                message=message.kind.value,
                level=None if message.level is None else int(message.level),
                occupancy=message.occupancy,
            )
            tel.count("client.flow_messages")
        if self.config.session_mux:
            self.endpoint.send_p2p(
                self.serving_server, message, message.wire_bytes(),
                sender_name=self.name,
            )
        else:
            self.session_handle.multicast(message, message.wire_bytes())

    def _emergency_allowed(self) -> bool:
        """Pace emergency requests: re-request quickly only when the
        refill shows no progress (the server may be gone); while frames
        are visibly flowing back in, wait out the refill window."""
        elapsed = self.sim.now - self._last_emergency_at
        if elapsed < EMERGENCY_REPEAT_S:
            return False
        if elapsed >= EMERGENCY_REFILL_WINDOW_S:
            return True
        return self.software_buffer.occupancy <= self._occ_at_last_emergency

    # ==================================================================
    # Playback
    # ==================================================================
    def _prebuffer_ready(self) -> bool:
        need = self.config.prebuffer_frames
        return need <= 0 or self.combined_occupancy >= need

    def _start_playback(self) -> None:
        self.playback_started = True
        tel = self.sim.telemetry
        if tel.active:
            tel.emit("client.playback.start", client=self.name)
        self._decoder_timer = Timer(
            self.sim, 1.0 / DEFAULT_FPS, self._decoder_tick
        )

    def _decoder_tick(self) -> None:
        if self.paused or self.finished:
            return
        if self.eos_received and self.combined_occupancy == 0:
            self._finish()
            return
        if self.config.max_decode_fps is not None:
            self._decode_credit = min(
                2.0,
                self._decode_credit + self.config.max_decode_fps / DEFAULT_FPS,
            )
        head = self.decoder.peek_head_index()
        if head is None:
            # Dry decoder: the display freezes (a stall) and the
            # playhead does not advance.
            self.decoder.consume_one(self.sim.now)
            self._resync_playhead = True
        else:
            if self._resync_playhead:
                # Recovering from a dry spell (or the first frame):
                # resume the playhead at the next available frame.
                self._playhead = head - 1
                self._resync_playhead = False
                self._playhead_frac = 0.0
            # The playhead advances at the VCR speed (fractional speeds
            # accumulate across ticks: 0.5x advances every other tick).
            self._playhead_frac += self.playback_speed
            step = int(self._playhead_frac)
            self._playhead_frac -= step
            self._playhead += step
            if head <= self._playhead and self._decode_budget_available():
                self.decoder.consume_one(self.sim.now)
                self._playhead = self.decoder.stats.last_displayed_index
            # else: the head frame is not due yet (reduced-quality
            # stream): the previous image stays on screen — by design,
            # not a stall.
        self._pump()
        if self.sim.telemetry.active:
            self._note_telemetry_edges()

    def _pump(self) -> None:
        """Stream frames from the software buffer into the decoder.

        Frames move in display order.  A missing frame (sequence gap)
        holds the pump back — that is the re-ordering window — until the
        decoder is about to run dry, at which point the gap is skipped
        for good and any late arrival of it will be discarded.
        """
        while True:
            frame = self.software_buffer.peek_next()
            if frame is None or not self.decoder.has_space_for(frame):
                return
            next_needed = self.decoder.highest_pushed_index + 1
            contiguous = frame.index == next_needed or all(
                index in self._discarded_indices
                for index in range(next_needed, frame.index)
            )
            if not contiguous and not self._gap_expired(next_needed):
                return
            self._gap_waiting_for = None
            self.decoder.push(self.software_buffer.pop_next())
            if self._discarded_indices:
                self._discarded_indices = {
                    index
                    for index in self._discarded_indices
                    if index > self.decoder.highest_pushed_index
                }

    def _gap_expired(self, next_needed: int) -> bool:
        """True once the re-ordering window for ``next_needed`` is over.

        The window also closes early when the software buffer is full:
        holding on would only force overflow discards."""
        if self.quality_fps is not None:
            # Reduced-quality streams have intentional gaps at every
            # server-skipped frame: nothing to wait for.
            return True
        if self._gap_waiting_for != next_needed:
            self._gap_waiting_for = next_needed
            self._gap_since = self.sim.now
            return self.software_buffer.is_full
        if self.software_buffer.is_full:
            return True
        return self.sim.now - self._gap_since >= REORDER_PATIENCE_S

    def _decode_budget_available(self) -> bool:
        """Token bucket modelling a software decoder's CPU limit.

        Credit accrues per decoder tick (see :meth:`_decoder_tick`), so
        the sustained decode rate is capped at ``max_decode_fps``."""
        if self.config.max_decode_fps is None:
            return True
        if self._decode_credit >= 1.0:
            self._decode_credit -= 1.0
            return True
        self.stats.decode_overruns += 1
        return False

    def _finish(self) -> None:
        self.finished = True
        self.decoder.end_stall(self.sim.now)
        if self._decoder_timer is not None:
            self._decoder_timer.cancel()
        self._end_session_span()

    def _end_session_span(self) -> None:
        span = self._session_span
        if span is not None and not span.ended:
            span.end(
                displayed=self.decoder.stats.displayed,
                skipped=self.decoder.stats.skipped_gaps,
                late=self.stats.late_frames,
            )

    def _note_telemetry_edges(self) -> None:
        """Emit watermark-band / stall / skip transition events.

        Pure edge detection over state the client already maintains —
        called only while the bus is active, never mutating anything the
        protocol reads.
        """
        tel = self.sim.telemetry
        sw = self.software_buffer.occupancy
        combined = self.combined_occupancy
        if sw <= self.flow.critical_severe:
            band = "critical-severe"
        elif sw <= self.flow.critical_mild:
            band = "critical-mild"
        elif combined < self.flow.low_water:
            band = "below-low"
        elif combined < self.flow.high_water:
            band = "between"
        else:
            band = "above-high"
        if band != self._wm_band:
            tel.emit(
                "client.watermark",
                client=self.name,
                band=band,
                sw_frames=sw,
                combined_frames=combined,
            )
            self._wm_band = band
        stalled = self.decoder.is_stalled
        if stalled != self._was_stalled:
            tel.emit(
                "client.stall.begin" if stalled else "client.stall.end",
                client=self.name,
            )
            if stalled:
                tel.count("client.stalls")
            self._was_stalled = stalled
        skips = self.decoder.stats.skipped_gaps
        if skips > self._skips_seen:
            tel.emit(
                "client.skip",
                client=self.name,
                count=skips - self._skips_seen,
                total=skips,
            )
            self._skips_seen = skips
        elif skips < self._skips_seen:
            self._skips_seen = skips

    # ==================================================================
    # Watchdog: emergency fallback when frames stop arriving
    # ==================================================================
    def _watchdog_tick(self) -> None:
        if not self.playback_started or self.paused or self.finished:
            return
        if self.eos_received:
            return
        # Reconnect fallback: the service normally repairs lost sessions
        # on its own (orphan records are re-admitted), but if nothing
        # has arrived for a long stretch the client re-announces itself
        # through the abstract server group, exactly like at startup.
        if (
            not self.endpoint.closed
            and self.sim.now - self._last_frame_at
            > RECONNECT_AFTER_S
        ):
            self._last_frame_at = self.sim.now  # pace re-announcements
            self.stats.reconnects += 1
            self._send_connect()
        sw_occupancy = self.software_buffer.occupancy
        if sw_occupancy >= self.flow.critical_mild:
            return
        if self.sim.now - self._last_emergency_at < EMERGENCY_REPEAT_S:
            return
        message = self.flow.decide(self.combined_occupancy, sw_occupancy)
        if message is not None and message.kind == FlowKind.EMERGENCY:
            self._send_flow(message)

    # ==================================================================
    # Misc plumbing
    # ==================================================================
    def _send_vcr(self, command: VcrCommand) -> None:
        if self.config.session_mux:
            if self.serving_server is not None:
                self.endpoint.send_p2p(
                    self.serving_server, command, command.wire_bytes(),
                    sender_name=self.name,
                )
            return
        self.session_handle.multicast(command, command.wire_bytes())

    def _on_p2p(self, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, ListMoviesReply):
            callback = self._movie_list_callback
            if callback is not None:
                self._movie_list_callback = None
                callback(payload.titles)
        elif isinstance(payload, QualityNotice):
            # Admission degraded this session: adopt the granted quality
            # so the pump treats server-skipped frames as intentional
            # gaps and reconnects re-request the same stream.
            if payload.movie == self.movie_title and not self.finished:
                self.quality_fps = payload.quality_fps

    def _require_session(self) -> None:
        if self.config.session_mux:
            if self.movie_title is None:
                raise SessionError(
                    f"client {self.name} has no session; "
                    "call request_movie first"
                )
            return
        if self.session_handle is None:
            raise SessionError(
                f"client {self.name} has no session; call request_movie first"
            )

    def _init_series(self) -> None:
        stats = self.stats
        stats.sw_occupancy = self._probe.watch(
            "software_buffer_frames", lambda: self.software_buffer.occupancy
        )
        stats.hw_occupancy_bytes = self._probe.watch(
            "hardware_buffer_bytes", lambda: self.decoder.occupancy_bytes
        )
        stats.combined_occupancy = self._probe.watch(
            "combined_frames", lambda: self.combined_occupancy
        )
        stats.skipped_cum = self._probe.watch(
            "skipped_cumulative", lambda: self.decoder.stats.skipped_gaps
        )
        stats.late_cum = self._probe.watch(
            "late_cumulative", lambda: self.stats.late_frames
        )
        stats.overflow_cum = self._probe.watch(
            "overflow_cumulative", lambda: self.stats.overflow_discards
        )
        stats.received_bytes_cum = self._probe.watch(
            "received_bytes_cumulative", lambda: self.stats.received_bytes
        )
        stats.displayed_cum = self._probe.watch(
            "displayed_cumulative", lambda: self.displayed_total
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VoDClient {self.name} movie={self.movie_title!r} "
            f"server={self.serving_server} occ={self.combined_occupancy}>"
        )
