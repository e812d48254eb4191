"""Precomputed batched transfers over deterministic paths.

A :class:`BurstTransfer` is the data-plane fast path for one batch
window of frames from one sender to one receiver.  At creation time it
resolves the route once, mirrors the per-hop transmitter arithmetic of
:class:`repro.net.link._Direction.transmit` (FIFO serialization,
propagation delay, time-bounded tail drop) for every frame, and then
replays the outcome with a **single recycled event handle** stepping
through the precomputed timeline — one cheap event per frame instead of
a tick plus one transmit/deliver pair per hop.

The timeline is a handful of flat columns in delivery order, not an
object per frame: delivery (or drop) times and send times as
``array("d")``, the transmitter-free time after each (frame, hop) as
one more ``array("d")`` of ``frames * hops`` floats, each frame's kind
(delivered, or tail-dropped at hop *k*) as a ``bytearray``, and its
payload size and index in the window as ``array("i")``.  Payloads are
not held at all: the owner's ``build_payload(index)`` makes each one
when its frame is delivered.

Eligibility is strict: every hop must be *clean* (zero loss, jitter and
reorder probability, no injected fault), every transit node alive, and
the destination free of scheduling noise.  Under those conditions the
precomputed delivery times are bit-identical to what per-frame sends
would produce — same floating-point operations in the same order — so
the fast and slow paths are interchangeable on loss-free topologies
whose hops carry no other traffic while the window is in flight (a
burst precomputes against each transmitter's state when it starts).

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

from array import array
from typing import Any, Callable, Optional, Sequence

from repro.net.packet import HEADER_BYTES, Datagram

#: ``_kind`` of a delivered frame; a frame tail-dropped at hop k has
#: kind k + 1.
_DELIVER = 0

#: What a finished transfer's columns point at.
_EMPTY = array("d")


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
        send_times: Sequence[float],
        sizes: Sequence[int],
        build_payload: Callable[[int], Any],
        on_abort: Optional[Callable[[], None]],
        carry_tx_free=None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.socket = socket
        self.dst = dst
        self._hops = hops
        self._directions = [direction for direction, _to_node in hops]
        self._dst_node = network.nodes[dst.node]
        self._version = network.state_version
        self._build_payload = build_payload
        self._on_abort = on_abort
        self.aborted = False
        self.finished = False
        self.delivered = 0
        self.dropped = 0
        self.revoked = 0
        #: Each hop's transmitter-free time after the whole window, for
        #: seeding a back-to-back follow-up transfer (see carry_tx_free).
        self.projected_tx_free = {}
        self._precompute(send_times, sizes, carry_tx_free)
        self._cursor = 0
        if self._time:
            self._handle = self.sim.call_at(self._time[0], self._step)
        else:
            self._handle = None
            self.finished = True

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _precompute(self, send_times, sizes, carry_tx_free) -> None:
        # Snapshot each hop's transmitter state; the walk below advances
        # the snapshots exactly as per-frame transmits would have.  A
        # carry from the previous window overrides the (delivery-lagged)
        # live value, so boundary-spanning queues stay exact.
        hops = self._hops
        n_hops = len(hops)
        tx_free = []
        for direction, _ in hops:
            free = direction._tx_free_at
            if carry_tx_free is not None:
                carried = carry_tx_free.get(direction)
                if carried is not None and carried > free:
                    free = carried
            tx_free.append(free)
        times = []
        kinds = bytearray()
        tx = array("d")
        for send_time, size_bytes in zip(send_times, sizes):
            wire = size_bytes + HEADER_BYTES
            at = send_time
            kind = _DELIVER
            for hop_idx, (direction, _to_node) in enumerate(hops):
                params = direction.params
                serialization = wire * 8.0 / params.bandwidth_bps
                free = tx_free[hop_idx]
                queue_ahead_s = max(0.0, free - at)
                if (
                    serialization > 0
                    and queue_ahead_s > params.queue_packets * serialization
                ):
                    # Dropped on arrival at this hop, at ``at``; the
                    # hops it never reached keep a zero, never read.
                    kind = hop_idx + 1
                    tx.extend([0.0] * (n_hops - hop_idx))
                    break
                start_tx = at if at > free else free
                free = start_tx + serialization
                tx_free[hop_idx] = free
                tx.append(free)
                at = free + params.delay_s
            times.append(at)
            kinds.append(kind)
        # Delivery order: a stable sort by time, so tied frames keep
        # their window order.  Deliveries leave a FIFO chain in window
        # order; only a tail drop (timed at its hop) can land earlier.
        order = range(len(times))
        if any(kinds):
            order = sorted(order, key=times.__getitem__)
        self._take(
            order, times, send_times, sizes, kinds, range(len(times)), tx
        )
        self.projected_tx_free = {
            direction: tx_free[hop_idx]
            for hop_idx, (direction, _to_node) in enumerate(hops)
        }

    def _take(self, rows, time, send, size, kind, entry, tx) -> None:
        """Make the columns ``rows`` of the given ones, in that order."""
        n_hops = len(self._hops)
        self._time = array("d", [time[row] for row in rows])
        self._send = array("d", [send[row] for row in rows])
        self._size = array("i", [size[row] for row in rows])
        self._kind = bytearray([kind[row] for row in rows])
        self._entry = array("i", [entry[row] for row in rows])
        self._tx = array("d", [
            tx[row * n_hops + hop] for row in rows for hop in range(n_hops)
        ])

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _release(self) -> None:
        # Break the burst <-> handle <-> bound-method reference cycle
        # and drop the window's columns the moment the transfer ends.
        # Ten thousand bursts per simulated minute otherwise pile up a
        # cyclic graph for the garbage collector to trace (full
        # collections dominated thousand-client wall time).
        self._time = self._send = self._tx = self._size = self._entry = _EMPTY
        self._kind = b""
        self._handle = None
        self._build_payload = None
        self._on_abort = None

    def _step(self) -> None:
        times = self._time
        cursor = self._cursor
        if cursor >= len(times):
            self.finished = True
            self._release()
            return
        network = self.network
        if network.state_version != self._version and not self._revalidate():
            self._abort()
            return
        time = times[cursor]
        if time > self.sim.now:
            # A revocation removed the step this firing targeted; just
            # retarget the recycled handle at the next survivor.
            self._handle = self.sim.reschedule(self._handle, time)
            return
        self._cursor = cursor + 1
        kind = self._kind[cursor]
        size_bytes = self._size[cursor]
        self._settle(cursor, kind, size_bytes)
        if kind == _DELIVER:
            self.delivered += 1
            datagram = Datagram(
                src=self.socket.endpoint,
                dst=self.dst,
                payload=self._build_payload(self._entry[cursor]),
                size_bytes=size_bytes,
            )
            self._dst_node.deliver(datagram)
        else:
            self.dropped += 1
            direction = self._directions[kind - 1]
            direction.stats.dropped_queue += 1
            direction._note_drop("queue")
        if self._cursor < len(self._time):
            self._handle = self.sim.reschedule(
                self._handle, self._time[self._cursor]
            )
        else:
            self.finished = True
            self._release()

    def _settle(self, row: int, kind: int, size_bytes: int) -> None:
        """Apply the counters a per-frame send would have accumulated."""
        wire = size_bytes + HEADER_BYTES
        socket = self.socket
        socket.sent_packets += 1
        socket.sent_bytes += size_bytes
        tel = self.sim.telemetry
        tel_firehose = tel.active and tel.firehose
        directions = self._directions
        crossed = len(directions) if kind == _DELIVER else kind - 1
        base = row * len(directions)
        tx = self._tx
        for hop in range(crossed):
            direction = directions[hop]
            stats = direction.stats
            stats.sent_packets += 1
            stats.sent_bytes += wire
            stats.delivered_packets += 1
            tx_free_after = tx[base + hop]
            if direction._tx_free_at < tx_free_after:
                direction._tx_free_at = tx_free_after
            if tel_firehose:
                tel.emit("net.deliver", link=direction.rng_name, bytes=wire)
        if kind != _DELIVER:
            # The dropping hop counts the packet as sent, not delivered,
            # and its transmitter never accepted it.
            stats = directions[crossed].stats
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
        cursor = self._cursor
        send = self._send
        keep = [
            row for row in range(len(send))
            if row < cursor or send[row] <= time
        ]
        cut = len(send) - len(keep)
        if cut:
            self._take(
                keep, self._time, send, self._size, self._kind, self._entry,
                self._tx,
            )
            self.revoked += cut
        # Every surviving frame was sent at or before ``time``, so its
        # transmitter occupancy is committed even though the lazy
        # delivery-time settlement has not caught up.  Settle it now:
        # the owner's very next send (per-frame or a fresh burst) must
        # queue behind these frames exactly as the slow path would, not
        # jump ahead of them through the stale live value.
        directions = self._directions
        n_hops = len(directions)
        tx = self._tx
        for row, kind in enumerate(self._kind):
            crossed = n_hops if kind == _DELIVER else kind - 1
            for hop in range(crossed):
                direction = directions[hop]
                tx_free_after = tx[row * n_hops + hop]
                if direction._tx_free_at < tx_free_after:
                    direction._tx_free_at = tx_free_after
        if not cut:
            return 0
        if self._cursor >= len(self._time):
            self.finished = True
            if self._handle is not None:
                self._handle.cancel()
            self._release()
        return cut

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "aborted" if self.aborted else (
            "finished" if self.finished else "active"
        )
        return (
            f"<BurstTransfer {self.socket.endpoint}->{self.dst} "
            f"{len(self._time) - self._cursor} pending {state}>"
        )


def start_burst(
    network,
    socket,
    dst,
    send_times: Sequence[float],
    sizes: Sequence[int],
    build_payload: Callable[[int], Any],
    on_abort: Optional[Callable[[], None]] = None,
    carry_tx_free=None,
) -> Optional[BurstTransfer]:
    """Begin a batched transfer, or return None if ineligible.

    ``send_times`` (nondecreasing, the first at the current instant) and
    ``sizes`` give each frame of the window its send time and payload
    size; ``build_payload(i)`` makes the i-th frame's payload when that
    frame is delivered (never for a dropped or revoked frame).
    Eligibility: the socket's node is alive, a route to ``dst`` exists,
    and every hop passes :meth:`Network.path_clear`.
    """
    if not send_times or socket.closed:
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
        network, socket, dst, hops, send_times, sizes, build_payload,
        on_abort, carry_tx_free=carry_tx_free,
    )
