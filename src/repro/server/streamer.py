"""Per-client streaming session at the server.

A session owns the transmission timer for one client: one frame per
``1/rate`` seconds, where the rate comes from the session's
:class:`~repro.server.rate_controller.RateController` and therefore
includes the decaying emergency quota.  Quality adaptation transmits all
I frames and a deterministic subset of the incremental frames.

Batched transmission
--------------------

With ``ServerConfig.batch_window_s > 0`` a session collapses one window
of per-frame timer ticks into a single precomputed burst
(:mod:`repro.net.burst`) whenever the path to the client is loss-free
and deterministic.  Tick times are computed by the same cumulative
``t + 1/rate`` chain the per-frame timer would walk, so frame send and
delivery times are bit-identical to per-frame mode.  Any control input
that would have changed the slow path's behaviour mid-window — a rate
change, an emergency, seek, pause, speed or quality change — revokes
the unsent tail of the window and falls back to per-frame ticking at
exactly the instant the slow path's pending timer would have fired.
``position`` stays exact throughout: during a window it is derived from
the precomputed tick times, so state-sync snapshots see the same offset
a per-frame run would publish.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.gcs.view import ProcessId, View
from repro.media.movie import DEFAULT_FPS, Movie
from repro.net.address import Endpoint
from repro.server.rate_controller import RateController
from repro.server.state import RowLedger, rebalance
from repro.service.protocol import (
    FRAME_HEADER_BYTES,
    ClientRecord,
    CohortSync,
    EndOfStream,
    FramePacket,
)
from repro.sim.core import EventHandle, Simulator
from repro.sim.process import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.client.flyweight import FlyweightPool
    from repro.server.server import VoDServer

#: End-of-stream notices are repeated over raw UDP for loss tolerance.
EOS_REPEATS = 3
EOS_SPACING_S = 0.1

#: The emergency VBR channel reserved beside a session's CBR channel,
#: "varying to at most 40% of the constant bit rate" (paper Section 4.1).
QOS_VBR_FRACTION = 0.4


def batch_ticks(start: float, rate: float, count: int) -> array:
    """The times a per-frame timer would fire at, starting at ``start``.

    Computed by the cumulative ``t = t + 1/rate`` chain — never
    ``start + i / rate`` — so every tick is bit-identical to the float
    the slow path's back-to-back ``call_after(1/rate)`` chain produces.
    """
    delta = 1.0 / rate
    ticks = array("d")
    t = start
    for _ in range(count):
        ticks.append(t)
        t = t + delta
    return ticks


class ClientSession:
    """One server->client streaming relationship."""

    def __init__(
        self,
        server: "VoDServer",
        movie: Movie,
        client: ProcessId,
        session_name: str,
        video_endpoint: Endpoint,
        start_offset: int = 1,
        rate_fps: Optional[int] = None,
        quality_fps: Optional[int] = None,
        paused: bool = False,
        epoch: int = 0,
    ) -> None:
        self.server = server
        self.sim: Simulator = server.sim
        self.movie = movie
        self.client = client
        self.session_name = session_name
        self.video_endpoint = video_endpoint
        self._position = max(1, start_offset)
        # Batched-transmission state: the in-flight burst, the tick
        # times it replaces, the first covered position, the tick
        # interval, and the projected per-hop transmitter state carried
        # into a back-to-back follow-up window.
        self._batch = None
        self._batch_ticks: Optional[array] = None
        self._batch_start = 0
        self._batch_delta = 0.0
        self._batch_carry = None
        self.quality_fps = quality_fps
        # VCR speed: the playhead covers positions at speed * rate; at
        # speeds above 1 only a thinned subset of frames (always
        # including I frames) is transmitted, like a VCR's cue mode.
        self.speed = 1.0
        self.paused = paused
        self.epoch = epoch
        self.finished = False
        self.stopped = False
        # Set by the server once a session-group view containing the
        # client is seen; gates the departed-client detection.
        self.saw_client_in_view = False
        self.rate = RateController(
            base_rate=rate_fps if rate_fps is not None else DEFAULT_FPS,
            emergency=server.config.emergency,
            nominal_rate=DEFAULT_FPS,
        )
        self.frames_sent = 0
        self.bytes_sent = 0
        self.reservation = None
        if server.config.use_qos:
            self._reserve_qos()

        self._send_handle: Optional[EventHandle] = None
        self._decay_timer = Timer(self.sim, 1.0, self._decay_tick)
        if not self.paused:
            self._schedule_next()

    def _reserve_qos(self) -> None:
        """Reserve CBR for the stream + "an additional variable bit rate
        (VBR) channel for emergency periods" (paper Section 4.1)."""
        qos = self.server.domain.network.qos
        if qos is None:
            return
        cbr = self.movie.bitrate_bps() * 1.1  # stream + header slack
        vbr = cbr * QOS_VBR_FRACTION
        self.reservation = qos.reserve(
            self.server.node_id, self.video_endpoint.node, cbr, vbr
        )

    # ------------------------------------------------------------------
    # Position (exact even mid-window)
    # ------------------------------------------------------------------
    @property
    def position(self) -> int:
        """Next frame index to transmit.

        During a batched window the per-frame timer does not run, so the
        value is derived from the precomputed tick times: the ticks at
        or before *now* have logically fired."""
        if self._batch_ticks is not None:
            return self._batch_start + bisect_right(self._batch_ticks, self.sim.now)
        return self._position

    @position.setter
    def position(self, value: int) -> None:
        if self._batch_ticks is not None:
            self._collapse_batch()
        self._position = value

    # ------------------------------------------------------------------
    # Transmission loop
    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        if self.stopped or self.finished or self.paused:
            return
        interval = 1.0 / (self.rate.current_rate() * self.speed)
        self._send_handle = self.sim.call_after(interval, self._transmit_tick)

    def _transmit_tick(self) -> None:
        if self.stopped or self.finished or self.paused:
            return
        if self._position > len(self.movie):
            self._finish()
            return
        if (
            self.server.config.batch_window_s > 0.0
            and self.reservation is None
            and self._try_batch()
        ):
            return
        carry = self._batch_carry
        if carry is not None:
            # Falling back to per-frame right after a window whose tail
            # may still be in flight: fold the window's projected
            # transmitter occupancy into the live link state so this
            # send queues behind it exactly as the slow path would.
            self._batch_carry = None
            for direction, tx_free_after in carry.items():
                if direction._tx_free_at < tx_free_after:
                    direction._tx_free_at = tx_free_after
        frame = self.movie.frame(self._position)
        if self._position_accepts(frame.index, frame.is_intra):
            packet = FramePacket(
                frame=frame,
                epoch=self.epoch,
                server=self.server.process,
                sent_at=self.sim.now,
            )
            flow = self.reservation.flow_id if self.reservation else None
            self.server.send_video(self.video_endpoint, packet, flow_id=flow)
            self.frames_sent += 1
            self.bytes_sent += frame.size_bytes
        self._position += 1
        self._schedule_next()

    # ------------------------------------------------------------------
    # Batched transmission
    # ------------------------------------------------------------------
    def _try_batch(self) -> bool:
        """Replace one window of timer ticks with a precomputed burst.

        Returns False — leaving the caller to take the per-frame path —
        when the window is too short or the route is not eligible for
        the fast path."""
        rate = self.rate.current_rate() * self.speed
        delta = 1.0 / rate
        count = min(
            int(self.server.config.batch_window_s * rate),
            len(self.movie) - self._position + 1,
        )
        if count < 2:
            return False
        ticks = batch_ticks(self.sim.now, rate, count)
        start = self._position
        movie = self.movie
        accepted = array("i")
        send_times = []
        sizes = []
        for offset, t in enumerate(ticks):
            frame = movie.frame(start + offset)
            if self._position_accepts(frame.index, frame.is_intra):
                accepted.append(frame.index)
                send_times.append(t)
                sizes.append(frame.size_bytes + FRAME_HEADER_BYTES)
        if not accepted:
            return False  # thinning rejected the whole window
        # The window's packets are built as they land, from what holds
        # when it opens: a later seek or takeover changes neither.
        epoch = self.epoch
        process = self.server.process

        def deliver_frame(entry: int) -> FramePacket:
            position = accepted[entry]
            packet = FramePacket(
                frame=movie.frame(position),
                epoch=epoch,
                server=process,
                sent_at=ticks[position - start],
            )
            self._on_burst_deliver(packet, packet.wire_bytes())
            return packet

        burst = self.server.send_video_burst(
            self.video_endpoint,
            send_times,
            sizes,
            deliver_frame,
            on_abort=self._on_burst_abort,
            carry_tx_free=self._batch_carry,
        )
        if burst is None:
            return False
        self._batch = burst
        self._batch_ticks = ticks
        self._batch_start = start
        self._batch_delta = delta
        self._batch_carry = None
        # The tick after the window: one float add past the last tick,
        # exactly where the slow path's timer chain would land.
        self._send_handle = self.sim.call_at(
            ticks[-1] + delta, self._boundary_tick
        )
        return True

    def _boundary_tick(self) -> None:
        """First tick after a batched window: fold the window (all its
        ticks are now in the past) and resume normal ticking, which may
        immediately open the next window."""
        self._send_handle = None
        if self._batch_ticks is not None:
            self._position = self._batch_start + len(self._batch_ticks)
            burst = self._batch
            self._batch = None
            self._batch_ticks = None
            if burst is not None and not burst.aborted and burst.revoked == 0:
                # Back-to-back windows: seed the next precompute with
                # this window's projected transmitter state so queueing
                # arithmetic stays exact across the boundary even when
                # the tail of the window is still in flight.
                self._batch_carry = burst.projected_tx_free
        self._transmit_tick()

    def _collapse_batch(self) -> float:
        """Fold the active window back into per-frame state.

        Frames whose send time has not arrived are revoked; ``position``
        becomes a plain integer again.  Returns the simulation time the
        next tick would have fired at under the window's schedule."""
        ticks = self._batch_ticks
        burst = self._batch
        fired = bisect_right(ticks, self.sim.now)
        if fired < len(ticks):
            next_due = ticks[fired]
        else:
            next_due = ticks[-1] + self._batch_delta
        self._position = self._batch_start + fired
        self._batch = None
        self._batch_ticks = None
        self._batch_carry = None
        if burst is not None and not burst.finished:
            burst.revoke_after(self.sim.now)
        return next_due

    def _resync_batch(self) -> None:
        """A control input changed behaviour mid-window: revoke the
        unsent tail and tick per-frame from the next due time — the
        exact instant the slow path's pending timer would have fired."""
        if self._batch_ticks is None:
            return
        next_due = self._collapse_batch()
        if self._send_handle is not None:
            self._send_handle.cancel()
        self._send_handle = self.sim.call_at(next_due, self._transmit_tick)

    def _on_burst_deliver(self, packet, size_bytes: int) -> None:
        """Per-frame accounting, settled at delivery time (end-of-run
        totals match the per-frame path exactly)."""
        self.server.video_bytes_sent += size_bytes
        self.server.video_frames_sent += 1
        self.frames_sent += 1
        self.bytes_sent += packet.frame.size_bytes

    def _on_burst_abort(self) -> None:
        """The network changed under the window and the path no longer
        qualifies; resume per-frame ticking (sends may then blackhole or
        queue, exactly as slow-path sends would on the new topology)."""
        if self._batch_ticks is None:
            return
        next_due = self._collapse_batch()
        if self.stopped or self.paused or self.finished:
            return
        if self._send_handle is not None:
            self._send_handle.cancel()
        self._send_handle = self.sim.call_at(next_due, self._transmit_tick)

    def _position_accepts(self, index: int, is_intra: bool) -> bool:
        """Decide whether the frame at a covered position is sent.

        Quality adaptation and fast playback thin the same way: all I
        frames are kept, incremental frames are down-sampled so the
        transmitted frame rate stays within the target (the client's
        capability for quality, the nominal stream rate for speed)."""
        fps = self.movie.fps
        target = float(fps)
        if self.quality_fps is not None and self.quality_fps < fps:
            target = min(target, float(self.quality_fps))
        if self.speed > 1.0:
            target = min(target, fps / self.speed)
        if target >= fps:
            return True
        if is_intra:
            return True
        return int(index * target) // fps != int((index - 1) * target) // fps

    def _finish(self) -> None:
        self.finished = True
        for repeat in range(EOS_REPEATS):
            self.sim.call_after(
                repeat * EOS_SPACING_S,
                self.server.send_video,
                self.video_endpoint,
                EndOfStream(self.movie.title, self.epoch),
            )
        self._decay_timer.cancel()

    # ------------------------------------------------------------------
    # Control inputs
    # ------------------------------------------------------------------
    def on_flow_message(self, message) -> None:
        quantity_before = self.rate.emergency_quantity
        rate_before = self.rate.current_rate()
        self.rate.on_flow_message(message, now=self.sim.now)
        tel = self.sim.telemetry
        if tel.active and self.rate.current_rate() != rate_before:
            tel.emit(
                "server.rate",
                server=self.server.name,
                client=str(self.client),
                message=message.kind.value,
                rate_fps=self.rate.current_rate(),
                base_fps=self.rate.base_rate,
                emergency=self.rate.emergency_quantity,
            )
            tel.count("server.rate_changes")
        # An emergency (fresh or escalated) raises the rate instantly:
        # re-arm the send timer so the refill starts now rather than
        # after the old interval.
        if self.rate.emergency_quantity > quantity_before:
            self._rearm_now()
        elif self.rate.current_rate() != rate_before:
            # A plain rate change keeps the pending tick; a batched
            # window must shed its now-mistimed tail.
            self._resync_batch()

    def _decay_tick(self) -> None:
        quantity_before = self.rate.emergency_quantity
        self.rate.decay_tick()
        if quantity_before <= 0:
            return
        if self.rate.emergency_quantity != quantity_before:
            # The emergency quota stepped down, changing the rate; like
            # a plain rate change, the slow path keeps its pending tick.
            self._resync_batch()
        tel = self.sim.telemetry
        if tel.active:
            tel.emit(
                "server.emergency.step",
                server=self.server.name,
                client=str(self.client),
                quantity=self.rate.emergency_quantity,
                rate_fps=self.rate.current_rate(),
            )

    def pause(self) -> None:
        if self.paused:
            return
        self.paused = True
        if self._batch_ticks is not None:
            self._collapse_batch()
        if self._send_handle is not None:
            self._send_handle.cancel()
            self._send_handle = None

    def resume(self) -> None:
        if not self.paused:
            return
        self.paused = False
        self._schedule_next()

    def seek(self, position_s: float, epoch: int) -> None:
        self.position = max(
            1, min(int(position_s * self.movie.fps) + 1, len(self.movie))
        )
        self.epoch = epoch
        self.finished = False
        self._rearm_now()

    def set_quality(self, quality_fps: Optional[int]) -> None:
        changed = quality_fps != self.quality_fps
        self.quality_fps = quality_fps
        if changed:
            self._resync_batch()

    def set_speed(self, speed: float) -> None:
        """VCR speed control (1.0 = normal, 2.0 = double-speed cue,
        0.5 = slow motion)."""
        self.speed = max(0.1, min(8.0, float(speed)))
        self._rearm_now()

    def stop(self) -> None:
        """Stop transmitting (hand-off or client departure)."""
        self.stopped = True
        if self._batch_ticks is not None:
            self._collapse_batch()
        if self._send_handle is not None:
            self._send_handle.cancel()
            self._send_handle = None
        self._decay_timer.cancel()
        if self.reservation is not None:
            qos = self.server.domain.network.qos
            if qos is not None:
                qos.release(self.reservation)
            self.reservation = None

    def _rearm_now(self) -> None:
        if self._batch_ticks is not None:
            self._collapse_batch()
        if self._send_handle is not None:
            self._send_handle.cancel()
        self._send_handle = None
        if not (self.stopped or self.paused):
            self._send_handle = self.sim.call_soon(self._transmit_tick)

    # ------------------------------------------------------------------
    # State sharing
    # ------------------------------------------------------------------
    def record(self) -> ClientRecord:
        """Snapshot for the movie-group state sync.

        The advertised rate is the *base* rate: a replica taking over
        resumes at the last steady rate, not mid-emergency.
        """
        return ClientRecord(
            client=self.client,
            movie=self.movie.title,
            session=self.session_name,
            video_endpoint=self.video_endpoint,
            offset=self.position,
            rate_fps=self.rate.base_rate,
            quality_fps=self.quality_fps,
            paused=self.paused,
            epoch=self.epoch,
            server=self.server.process,
            updated_at=self.sim.now,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClientSession {self.client} {self.movie.title!r} "
            f"pos={self.position} rate={self.rate.current_rate()}fps>"
        )


class CohortSession:
    """All of one server's flyweight viewers of one movie, as one unit.

    A steady-state viewer on a clean link needs no per-client machinery:
    its playhead is pure arithmetic.  A :class:`ClientSession` admitted
    at ``t0`` ticks at ``t0 + k/rate`` (the first transmission one frame
    period after admission), so its published offset at any time ``T``
    is ``base + floor((T - t0) * rate)``.  The cohort stores exactly
    that — ``(base, anchor)`` per row — and evaluates it on
    demand: at every batch window boundary (finish detection, the
    advancing watermark) and at every state-sync tick (the offsets that
    ride the movie group's single :class:`CohortSync` record).

    The closed form accumulates float error differently from the live
    timer chain (which adds ``1/rate`` repeatedly), but the divergence
    after minutes of streaming is ~1e-10 s while ticks are 1/30 s apart;
    a sync or takeover snapshot only disagrees if it lands within that
    sliver of a tick boundary.  The conformance suite pins a golden
    trace against full-object runs to catch exactly that.

    A row costs bytes, not objects: its two numbers and its place in
    the cohort's order sit in ``array`` columns indexed by pool row,
    and the finish schedule holds one ``(time, row)`` entry per live row
    in two sorted parallel arrays.

    The cohort owns the *row ledger* — ``assignment``, a
    :class:`~repro.server.state.RowLedger` (every row's owner, itself a
    column), plus the peers' last shares — and how it learns (share
    deltas, where the record ledger merges per-client records by
    timestamp).  The placement
    rules it is fed through are the record ledger's, not copies of
    them: :func:`repro.server.state.rebalance` at view changes and the
    owning :class:`~repro.server.replica.MovieReplica`'s admission, so
    flyweight and full-object runs place every viewer on the same
    replica in the same order.
    """

    def __init__(self, server: "VoDServer", movie: Movie,
                 pool: "FlyweightPool") -> None:
        # Imported here: only a flyweight run makes a cohort, and a run
        # without one should not map the extension module.
        from array import array

        self.server = server
        self.sim: Simulator = server.sim
        self.movie = movie
        self.pool = pool
        self.rate_fps = DEFAULT_FPS
        self.delta = 1.0 / self.rate_fps
        # Row columns, indexed by pool row: base offset and anchor time.
        # The playhead of a row is derived, never stored:
        # position(T) = base + floor((T - anchor) / delta), clamped to
        # one past the movie.  ``_order`` numbers rows in the order they
        # were added (re-anchoring a row in place keeps its number): the
        # order of :meth:`clients`.  A column entry means something only
        # while its row index is in ``_row_indices``.
        self._base = array("i")
        self._anchor = array("d")
        self._order = array("I")
        self._added = 0
        self._grow(len(pool))
        # Pool indices of our own rows: membership, and the overlap
        # check against incoming peer shares (duplicate-row resolution)
        # — a set, because the shed loop's order is its iteration order.
        self._row_indices: set = set()
        # The cohort's deterministic client -> server map (all replicas
        # run the identical admission/rebalance rules over it).
        self.assignment = RowLedger(pool)
        # Last CohortSync heard from each peer replica: the takeover
        # resume offsets ("from the offset ... last heard").
        self.peer_shared: Dict[ProcessId, CohortSync] = {}
        # Finish schedule: each live row that has frames left, once, as
        # (finish time, pool row) — two parallel arrays sorted by time,
        # then row, so a row's entry is found by bisection.
        self._finish_at = array("d")
        self._finish_row = array("i")
        window = server.config.batch_window_s or server.config.sync_interval_s
        self._window_timer = Timer(self.sim, window, self._window_tick)
        self._stopped = False

    # ------------------------------------------------------------------
    # Playhead arithmetic
    # ------------------------------------------------------------------
    def position_of(self, client: ProcessId, now: Optional[float] = None) -> int:
        """Next frame index the row's virtual session would transmit."""
        return self._position_at(
            self.pool.row_of(client), self.sim.now if now is None else now
        )

    def _position_at(self, index: int, at: float) -> int:
        base = self._base[index]
        anchor = self._anchor[index]
        ticks = int((at - anchor) / self.delta + 1e-9)
        if ticks < 0:
            ticks = 0
        limit = len(self.movie) + 1
        position = base + ticks
        return position if position < limit else limit

    def _window_tick(self) -> None:
        """Advance the cohort by one batch window.

        The columnar playheads are closed-form, so 'advancing' costs
        O(1) plus the rows that finished inside the window — never a
        scan of the cohort."""
        if self._stopped:
            return
        due = bisect_right(self._finish_at, self.sim.now)
        if not due:
            return
        rows = self._finish_row[:due]
        del self._finish_at[:due]
        del self._finish_row[:due]
        limit = len(self.movie)
        now = self.sim.now
        for index in rows:
            if self._position_at(index, now) <= limit:
                continue  # a float hair short: the row plays on unscheduled
            self._row_indices.discard(index)
            self.assignment.pop_at(index)
            self.pool.note_finished(index, limit + 1)

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def add_row(self, index: int, offset: int, takeover: bool) -> None:
        """Start serving pool row ``index``.  The caller has entered
        this server as its owner in ``assignment`` (admission and
        re-distribution do, as the step that decided it)."""
        base = max(1, min(offset, len(self.movie) + 1))
        self._unschedule(index)
        self._put(index, base, self.sim.now)
        self._schedule(index)
        self.pool.note_started(index, self.server.process)
        self.server.announce_start(
            self.record_at(index), takeover, flyweight=True
        )

    def _put(self, index: int, base: int, anchor: float) -> None:
        """Write pool row ``index``'s columns, making it a row if it
        was not one (it then goes last in :meth:`clients`)."""
        if index >= len(self._base):
            self._grow(index + 1)  # the pool grew after this cohort began
        if index not in self._row_indices:
            self._row_indices.add(index)
            self._added += 1
            self._order[index] = self._added
        self._base[index] = base
        self._anchor[index] = anchor

    def _grow(self, size: int) -> None:
        for column in (self._base, self._anchor, self._order):
            column.frombytes(bytes(column.itemsize * (size - len(column))))

    def _finish_time(self, index: int) -> Optional[float]:
        """When row ``index`` plays its last frame; None if it has."""
        base = self._base[index]
        limit = len(self.movie)
        if base > limit:
            return None
        return self._anchor[index] + (limit + 1 - base) * self.delta

    def _slot_of(self, finish_at: float, index: int) -> int:
        """Where ``(finish_at, index)`` sits in the schedule, which is
        sorted by time and, among equal times, by pool row."""
        times = self._finish_at
        lo = bisect_left(times, finish_at)
        hi = bisect_right(times, finish_at, lo)
        return bisect_left(self._finish_row, index, lo, hi)

    def _schedule(self, index: int) -> None:
        finish_at = self._finish_time(index)
        if finish_at is None:
            return
        times = self._finish_at
        rows = self._finish_row
        if not times or (finish_at, index) > (times[-1], rows[-1]):
            times.append(finish_at)  # fresh rows finish last: no search
            rows.append(index)
        else:
            slot = self._slot_of(finish_at, index)
            times.insert(slot, finish_at)
            rows.insert(slot, index)

    def _unschedule(self, index: int) -> None:
        """Take row ``index``'s entry out of the schedule, if it is a row
        and has one.  Its finish time is recomputed from its columns,
        bit for bit the time it was scheduled at."""
        if index not in self._row_indices:
            return
        finish_at = self._finish_time(index)
        if finish_at is None:
            return
        slot = self._slot_of(finish_at, index)
        rows = self._finish_row
        if slot < len(rows) and rows[slot] == index:
            del self._finish_at[slot]
            del rows[slot]

    def __contains__(self, client: ProcessId) -> bool:
        return self.pool.row_of(client) in self._row_indices

    def has_row(self, index: int) -> bool:
        return index in self._row_indices

    def rows(self) -> List[int]:
        """The pool rows served here, in the order they became rows."""
        return sorted(self._row_indices, key=self._order.__getitem__)

    def clients(self) -> List[ProcessId]:
        """The rows' clients, in the order they became rows."""
        return list(map(self.pool.client_of, self.rows()))

    def row(self, client: ProcessId) -> Tuple[int, float]:
        """A row's ``(base offset, anchor time)``."""
        index = self.pool.row_of(client)
        if index not in self._row_indices:
            raise KeyError(client)
        return self._base[index], self._anchor[index]

    def shed(self, index: int) -> None:
        """Stop serving a row another replica serves from now on.  Its
        ledger entry is the caller's: it names the new owner."""
        self._unschedule(index)
        self._row_indices.discard(index)
        self.server.notify(
            "on_session_end", self.server, self.pool.client_of(index), False
        )

    def record_at(self, index: int) -> ClientRecord:
        """A full :class:`ClientRecord` view of pool row ``index``
        (observer notifications; never the periodic share)."""
        session, endpoint, quality = self.pool.record_fields(index)
        now = self.sim.now
        return ClientRecord(
            client=self.pool.client_of(index),
            movie=self.movie.title,
            session=session,
            video_endpoint=endpoint,
            offset=self._position_at(index, now),
            rate_fps=self.rate_fps,
            quality_fps=quality,
            paused=False,
            epoch=0,
            server=self.server.process,
            updated_at=now,
        )

    # ------------------------------------------------------------------
    # State sharing
    # ------------------------------------------------------------------
    def sync_payload(self) -> CohortSync:
        # An empty share still matters: it is how peers learn that our
        # last row left (finished or shed) — suppressing it would
        # freeze their view of our share of the assignment.
        now = self.sim.now
        indices = sorted(self._row_indices)
        # position_of for every row in one pass: the same float
        # operations in the same order, without a call per row.
        base_of = self._base
        anchor_of = self._anchor
        delta = self.delta
        limit = len(self.movie) + 1
        offsets = []
        for index in indices:
            base = base_of[index]
            anchor = anchor_of[index]
            ticks = int((now - anchor) / delta + 1e-9)
            position = base + ticks if ticks > 0 else base
            offsets.append(position if position < limit else limit)
        return CohortSync(
            server=self.server.process,
            movie=self.movie.title,
            rows=tuple(indices),
            offsets=tuple(offsets),
            rate_fps=self.rate_fps,
            at=now,
        )

    def on_peer_sync(self, payload: CohortSync) -> bool:
        """Learn from a peer's share; True when it listed different rows
        than its last one (the ledger may have changed)."""
        previous = self.peer_shared.get(payload.server)
        self.peer_shared[payload.server] = payload
        if previous is not None and previous.rows == payload.rows:
            return False  # steady state: same rows, nothing to learn
        # Learn the *delta* of the peer's share (state transfer for
        # replicas that missed the original connects), and drop rows
        # the peer no longer lists (finished, or handed elsewhere —
        # the new owner's own sync re-claims moved rows).  Delta, not
        # the full listing: during an admission flood every share
        # differs from the last, and relearning all N rows per share
        # would be quadratic.
        ledger = self.assignment
        me = self.server.process
        previous_rows = set() if previous is None else set(previous.rows)
        payload_rows = set(payload.rows)
        # Duplicate rows: two replicas whose row ledgers count
        # different loads (a share landed between one replica's
        # admissions and not the other's; post-settle connects arrive
        # in different orders) can each conclude the least-loaded rule
        # chose *them*.  Resolve like the full path's session-group
        # rule — the smallest process id keeps the client, the other
        # sheds its row.  (The evidence differs, so the check does: a
        # row has no session group to meet its duplicate in, only
        # overlapping shares.)
        for index in payload_rows & self._row_indices:
            if payload.server < me:
                self.shed(index)
                ledger.set_at(index, payload.server)
            # else: we outrank the peer; it sheds on our next share.
        for index in payload_rows - previous_rows:
            if index in self._row_indices:
                continue  # duplicate we keep — resolved above
            ledger.set_at(index, payload.server)
        for index in previous_rows - payload_rows:
            if ledger.owner_at(index) == payload.server:
                ledger.pop_at(index)
                # The row may still be listed elsewhere (it moved, or
                # a duplicate resolved in another replica's favour):
                # adopt that owner rather than leave a bookkeeping gap
                # a later view change would mis-redistribute.
                owner = self._listed_owner(index)
                if owner is not None:
                    ledger.set_at(index, owner)
        return True

    @staticmethod
    def _slot(sync: CohortSync, index: int) -> Optional[int]:
        """Where ``sync`` lists pool row ``index`` (shares are sorted by
        row), or None."""
        slot = bisect_right(sync.rows, index) - 1
        return slot if slot >= 0 and sync.rows[slot] == index else None

    def lists_row(self, server: ProcessId, index: int) -> bool:
        """Whether ``server``'s share, while still fresh, claims the row
        (the liveness probe behind stale-assignment repair: a row has no
        per-client record whose age could be checked instead)."""
        if server == self.server.process:
            return index in self._row_indices
        sync = self.peer_shared.get(server)
        return (
            sync is not None
            and self.sim.now - sync.at <= self.server.config.freshness_ttl_s
            and self._slot(sync, index) is not None
        )

    def _listed_owner(self, index: int) -> Optional[ProcessId]:
        """The smallest replica whose fresh share lists the row."""
        candidates = [
            server
            for server in (self.server.process, *self.peer_shared)
            if self.lists_row(server, index)
        ]
        return min(candidates) if candidates else None

    def _shared_offset(self, index: int, previous: ProcessId) -> int:
        """The row's offset as last heard from its previous server."""
        sync = self.peer_shared.get(previous)
        if sync is not None:
            slot = self._slot(sync, index)
            if slot is not None:
                return sync.offsets[slot]
        return self.pool.last_offsets[index]

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def on_view(self, view: View) -> None:
        """Re-distribute the rows for ``view`` by the one rule,
        :func:`repro.server.state.rebalance`, fed the row ledger.

        All replicas run it on the same view and (converging) ledger,
        so they agree without a protocol round.  The moves are applied
        in the rule's sorted client order: shed what left, adopt what
        arrived at the offset last heard from its previous server."""
        if self._stopped or not self.assignment:
            return
        me = self.server.process
        ledger = self.assignment
        row_of = self.pool.row_of
        moves = rebalance(ledger, view.members, view.joined)
        for client, target in moves.items():
            index = row_of(client)
            previous = ledger.owner_at(index)
            if target == previous:
                continue
            ledger.set_at(index, target)
            if previous == me:
                self.shed(index)
            if target == me:
                offset = self._shared_offset(index, previous)
                self.add_row(index, offset, takeover=True)

    def stop(self) -> None:
        self._stopped = True
        self._window_timer.cancel()

    def __len__(self) -> int:
        return len(self._row_indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CohortSession {self.server.name} {self.movie.title!r} "
            f"rows={len(self)}>"
        )
