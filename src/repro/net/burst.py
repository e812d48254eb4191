"""Precomputed batched transfers over deterministic paths.

A :class:`BurstTransfer` is the data-plane fast path for one batch
window of frames from one sender to one receiver.  At creation time it
resolves the route once, mirrors the per-hop transmitter arithmetic of
:class:`repro.net.link._Direction.transmit` (FIFO serialization,
propagation delay, time-bounded tail drop) for every frame, and then
replays the outcome with a **single recycled event handle** stepping
through the precomputed timeline — one cheap event per frame instead of
a tick plus one transmit/deliver pair per hop.

Eligibility is strict: every hop must be *clean* (zero loss, jitter and
reorder probability, no injected fault), every transit node alive, and
the destination free of scheduling noise.  Under those conditions the
precomputed delivery times are bit-identical to what per-frame sends
would produce — same floating-point operations in the same order — so
the fast and slow paths are interchangeable on loss-free topologies.

Two deliberate relaxations, both invisible to protocols:

* per-hop ``LinkStats`` and socket counters are settled at each frame's
  *delivery* time rather than its send time (end-of-run totals match
  exactly; a mid-flight reader can lag by one path latency);
* intermediate-hop ``net.deliver`` firehose events are emitted at the
  final delivery time (the default telemetry export excludes the
  firehose, so exported streams still match byte for byte).

Mid-window interruptions are handled two ways: the owner can *revoke*
frames whose send time has not yet arrived (rate changed, pause, crash
of the sender), and the transfer *aborts itself* when the network's
``state_version`` moves and the revalidated path is no longer the same
clean route — remaining frames are conservatively dropped and the owner
notified so it can fall back to per-frame transmission.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.net.packet import HEADER_BYTES, Datagram

#: Timeline record kinds.
_DELIVER = 0
_DROP = 1


class _Record:
    """One precomputed timeline step (a delivery or a tail drop)."""

    __slots__ = (
        "time", "send_time", "entry_idx", "kind", "payload", "size_bytes",
        "crossed", "drop_direction",
    )

    def __init__(self, time, send_time, entry_idx, kind, payload, size_bytes,
                 crossed, drop_direction):
        self.time = time
        self.send_time = send_time
        self.entry_idx = entry_idx
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        # Directions fully crossed, as (direction, tx_free_after) pairs.
        self.crossed = crossed
        self.drop_direction = drop_direction


class BurstTransfer:
    """Replays a precomputed window of sends; see module docstring.

    Do not construct directly — use :func:`start_burst`, which returns
    ``None`` when the path is not eligible for the fast path.
    """

    def __init__(
        self,
        network,
        socket,
        dst,
        hops,
        entries: Sequence[Tuple[float, Any, int]],
        on_deliver: Optional[Callable[[Any, int], None]],
        on_abort: Optional[Callable[[], None]],
        carry_tx_free=None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.socket = socket
        self.dst = dst
        self._hops = hops
        self._dst_node = network.nodes[dst.node]
        self._version = network.state_version
        self._on_deliver = on_deliver
        self._on_abort = on_abort
        self.aborted = False
        self.finished = False
        self.delivered = 0
        self.dropped = 0
        self.revoked = 0
        #: Each hop's transmitter-free time after the whole window, for
        #: seeding a back-to-back follow-up transfer (see carry_tx_free).
        self.projected_tx_free = {}
        self._records: List[_Record] = self._precompute(entries, carry_tx_free)
        self._cursor = 0
        if self._records:
            self._handle = self.sim.call_at(self._records[0].time, self._step)
        else:
            self._handle = None
            self.finished = True

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _precompute(self, entries, carry_tx_free) -> List[_Record]:
        # Snapshot each hop's transmitter state; the walk below advances
        # the snapshots exactly as per-frame transmits would have.  A
        # carry from the previous window overrides the (delivery-lagged)
        # live value, so boundary-spanning queues stay exact.
        tx_free = []
        for direction, _ in self._hops:
            free = direction._tx_free_at
            if carry_tx_free is not None:
                carried = carry_tx_free.get(direction)
                if carried is not None and carried > free:
                    free = carried
            tx_free.append(free)
        records = []
        for entry_idx, (send_time, payload, size_bytes) in enumerate(entries):
            wire = size_bytes + HEADER_BYTES
            at = send_time
            crossed = []
            drop_direction = None
            drop_time = 0.0
            for hop_idx, (direction, _to_node) in enumerate(self._hops):
                params = direction.params
                serialization = wire * 8.0 / params.bandwidth_bps
                free = tx_free[hop_idx]
                queue_ahead_s = max(0.0, free - at)
                if (
                    serialization > 0
                    and queue_ahead_s > params.queue_packets * serialization
                ):
                    drop_direction = direction
                    drop_time = at
                    break
                start_tx = at if at > free else free
                free = start_tx + serialization
                tx_free[hop_idx] = free
                crossed.append((direction, free))
                at = free + params.delay_s
            if drop_direction is not None:
                records.append(_Record(
                    drop_time, send_time, entry_idx, _DROP, payload,
                    size_bytes, crossed, drop_direction,
                ))
            else:
                records.append(_Record(
                    at, send_time, entry_idx, _DELIVER, payload,
                    size_bytes, crossed, None,
                ))
        records.sort(key=lambda record: record.time)
        self.projected_tx_free = {
            direction: tx_free[hop_idx]
            for hop_idx, (direction, _to_node) in enumerate(self._hops)
        }
        return records

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _release(self) -> None:
        # Break the burst <-> handle <-> bound-method reference cycle
        # and drop the window's records the moment the transfer ends.
        # Ten thousand bursts per simulated minute otherwise pile up a
        # million-object cyclic graph for the garbage collector to trace
        # (full collections dominated thousand-client wall time).
        self._records = []
        self._handle = None
        self._on_deliver = None
        self._on_abort = None

    def _step(self) -> None:
        records = self._records
        if self._cursor >= len(records):
            self.finished = True
            self._release()
            return
        network = self.network
        if network.state_version != self._version and not self._revalidate():
            self._abort()
            return
        record = records[self._cursor]
        now = self.sim.now
        if record.time > now:
            # A revocation removed the step this firing targeted; just
            # retarget the recycled handle at the next survivor.
            self._handle = self.sim.reschedule(self._handle, record.time)
            return
        self._cursor += 1
        self._settle(record)
        if record.kind == _DELIVER:
            self.delivered += 1
            if self._on_deliver is not None:
                self._on_deliver(record.payload, record.size_bytes)
            datagram = Datagram(
                src=self.socket.endpoint,
                dst=self.dst,
                payload=record.payload,
                size_bytes=record.size_bytes,
            )
            self._dst_node.deliver(datagram)
        else:
            self.dropped += 1
            record.drop_direction.stats.dropped_queue += 1
            record.drop_direction._note_drop("queue")
        if self._cursor < len(records):
            self._handle = self.sim.reschedule(
                self._handle, records[self._cursor].time
            )
        else:
            self.finished = True
            self._release()

    def _settle(self, record: _Record) -> None:
        """Apply the counters a per-frame send would have accumulated."""
        wire = record.size_bytes + HEADER_BYTES
        socket = self.socket
        socket.sent_packets += 1
        socket.sent_bytes += record.size_bytes
        tel = self.sim.telemetry
        tel_firehose = tel.active and tel.firehose
        for direction, tx_free_after in record.crossed:
            stats = direction.stats
            stats.sent_packets += 1
            stats.sent_bytes += wire
            stats.delivered_packets += 1
            if direction._tx_free_at < tx_free_after:
                direction._tx_free_at = tx_free_after
            if tel_firehose:
                tel.emit("net.deliver", link=direction.rng_name, bytes=wire)
        if record.kind == _DROP:
            # The dropping hop counts the packet as sent, not delivered,
            # and its transmitter never accepted it.
            stats = record.drop_direction.stats
            stats.sent_packets += 1
            stats.sent_bytes += wire

    def _revalidate(self) -> bool:
        """After a network change: is our route still the same clean path?"""
        network = self.network
        src_node = network.nodes[self.socket.endpoint.node]
        if not src_node.alive or self.socket.closed:
            return False
        hops = network.resolve_path(self.socket.endpoint.node, self.dst.node)
        if hops is None or len(hops) != len(self._hops):
            return False
        for (direction, to_node), (old_direction, old_to) in zip(hops, self._hops):
            if direction is not old_direction or to_node != old_to:
                return False
        if not network.path_clear(hops, self.dst.node):
            return False
        self._version = network.state_version
        return True

    def _abort(self) -> None:
        self.aborted = True
        self.finished = True
        on_abort = self._on_abort
        # The handle has just fired; dropping the reference is enough.
        self._release()
        if on_abort is not None:
            on_abort()

    # ------------------------------------------------------------------
    # Owner controls
    # ------------------------------------------------------------------
    def revoke_after(self, time: float) -> int:
        """Withdraw every frame whose *send* time is strictly after
        ``time``.  Frames already on the wire (sent at or before
        ``time``) still deliver.  Returns how many frames were revoked."""
        if self.finished:
            return 0
        entries_cut = [
            record for record in self._records[self._cursor:]
            if record.send_time > time
        ]
        if entries_cut:
            cut_ids = {id(record) for record in entries_cut}
            self._records = (
                self._records[: self._cursor]
                + [
                    record
                    for record in self._records[self._cursor:]
                    if id(record) not in cut_ids
                ]
            )
            self.revoked += len(entries_cut)
        # Every surviving frame was sent at or before ``time``, so its
        # transmitter occupancy is committed even though the lazy
        # delivery-time settlement has not caught up.  Settle it now:
        # the owner's very next send (per-frame or a fresh burst) must
        # queue behind these frames exactly as the slow path would, not
        # jump ahead of them through the stale live value.
        for record in self._records:
            for direction, tx_free_after in record.crossed:
                if direction._tx_free_at < tx_free_after:
                    direction._tx_free_at = tx_free_after
        if not entries_cut:
            return 0
        if self._cursor >= len(self._records):
            self.finished = True
            if self._handle is not None:
                self._handle.cancel()
            self._release()
        return len(entries_cut)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "aborted" if self.aborted else (
            "finished" if self.finished else "active"
        )
        return (
            f"<BurstTransfer {self.socket.endpoint}->{self.dst} "
            f"{len(self._records) - self._cursor} pending {state}>"
        )


def start_burst(
    network,
    socket,
    dst,
    entries: Sequence[Tuple[float, Any, int]],
    on_deliver: Optional[Callable[[Any, int], None]] = None,
    on_abort: Optional[Callable[[], None]] = None,
    carry_tx_free=None,
) -> Optional[BurstTransfer]:
    """Begin a batched transfer, or return None if ineligible.

    ``entries`` is a sequence of ``(send_time, payload, size_bytes)``
    with nondecreasing send times, the first at the current instant.
    Eligibility: the socket's node is alive, a route to ``dst`` exists,
    and every hop passes :meth:`Network.path_clear`.
    """
    if not entries or socket.closed:
        return None
    src = socket.endpoint.node
    if not network.nodes[src].alive:
        return None
    hops = network.resolve_path(src, dst.node)
    if hops is None or not hops:
        return None
    if not network.path_clear(hops, dst.node):
        return None
    return BurstTransfer(
        network, socket, dst, hops, entries, on_deliver, on_abort,
        carry_tx_free=carry_tx_free,
    )
