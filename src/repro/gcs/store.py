"""Per-group reliable-multicast bookkeeping.

For every group a daemon participates in, a :class:`GroupStore` tracks,
per sender:

* which sequence numbers have been *received* (any order);
* the contiguous *delivered* prefix handed to the application (FIFO);
* retained copies of messages for NACK retransmission, evicted once all
  current view members acknowledge delivery (stability).

The store is pure bookkeeping — no timers, no sockets — which makes it
easy to unit- and property-test in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.gcs.messages import Multicast
from repro.gcs.view import ProcessId


@dataclass
class _SenderFlow:
    """Reception state of one sender's FIFO flow."""

    delivered: int = 0  # highest seq delivered to the app (contiguous)
    max_seen: int = 0  # highest seq ever received
    pending: Dict[int, Multicast] = field(default_factory=dict)
    retained: Dict[int, Multicast] = field(default_factory=dict)
    # Virtual time at which the currently blocking gap was first noticed;
    # None when there is no gap.  Used by the endpoint to pace NACKs.
    gap_since: Optional[float] = None


class GroupStore:
    """Reliable FIFO multicast state for one group at one daemon."""

    def __init__(self, group: str, retain_limit: int = 4096) -> None:
        self.group = group
        self.retain_limit = retain_limit
        self._flows: Dict[ProcessId, _SenderFlow] = {}
        # Per-member delivered vectors learned from heartbeats, used for
        # stability-based eviction.
        self._peer_delivered: Dict[ProcessId, Dict[ProcessId, int]] = {}

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def receive(self, message: Multicast, now: float) -> List[Multicast]:
        """Record an arriving multicast; return newly deliverable messages.

        Duplicates and already-delivered sequence numbers are dropped.
        Delivery is FIFO per sender: a message is released only when the
        entire prefix before it has been released.
        """
        flow = self._flow(message.sender)
        if message.seq <= flow.delivered or message.seq in flow.pending:
            return []
        flow.pending[message.seq] = message
        flow.retained[message.seq] = message
        self._trim_retained(flow)
        if message.seq > flow.max_seen:
            flow.max_seen = message.seq

        deliverable: List[Multicast] = []
        while flow.delivered + 1 in flow.pending:
            next_seq = flow.delivered + 1
            deliverable.append(flow.pending.pop(next_seq))
            flow.delivered = next_seq
        # Track whether a gap now blocks this flow, for NACK pacing.
        if flow.max_seen > flow.delivered:
            if flow.gap_since is None:
                flow.gap_since = now
        else:
            flow.gap_since = None
        return deliverable

    def note_remote_progress(
        self, sender: ProcessId, seq: int, now: float
    ) -> None:
        """A peer advertises it delivered ``sender``'s flow up to ``seq``.

        If that is beyond what we have, a message we never saw exists —
        the classic silent-loss case a gap-driven NACK cannot detect
        (nothing arrived after the lost message).  Raising ``max_seen``
        makes the ordinary NACK machinery recover it."""
        flow = self._flow(sender)
        if seq > flow.max_seen:
            flow.max_seen = seq
        if flow.max_seen > flow.delivered and flow.gap_since is None:
            flow.gap_since = now

    def record_own(self, message: Multicast) -> None:
        """Retain a locally originated multicast for retransmission."""
        flow = self._flow(message.sender)
        flow.retained[message.seq] = message
        flow.delivered = max(flow.delivered, message.seq)
        flow.max_seen = max(flow.max_seen, message.seq)
        self._trim_retained(flow)

    # ------------------------------------------------------------------
    # Gap / NACK support
    # ------------------------------------------------------------------
    def gaps(self, now: float, min_age: float) -> List[Tuple[ProcessId, int, int]]:
        """(sender, from_seq, to_seq) ranges blocked for at least min_age."""
        result = []
        for sender, flow in self._flows.items():
            if flow.gap_since is None or now - flow.gap_since < min_age:
                continue
            missing = [
                seq
                for seq in range(flow.delivered + 1, flow.max_seen + 1)
                if seq not in flow.pending
            ]
            if missing:
                result.append((sender, missing[0], missing[-1]))
        return result

    def retained_range(
        self, sender: ProcessId, from_seq: int, to_seq: int
    ) -> Iterator[Multicast]:
        """Retained copies of ``sender``'s messages within the range."""
        flow = self._flows.get(sender)
        if flow is None:
            return iter(())
        return iter(
            [
                flow.retained[seq]
                for seq in range(from_seq, to_seq + 1)
                if seq in flow.retained
            ]
        )

    # ------------------------------------------------------------------
    # Flush support
    # ------------------------------------------------------------------
    def known_prefix_vector(self) -> Dict[ProcessId, int]:
        """Per-sender contiguous prefix this daemon can deliver."""
        return {sender: flow.delivered for sender, flow in self._flows.items()}

    def satisfies_cut(self, cut: Dict[ProcessId, int]) -> bool:
        """True when the delivered prefix reaches ``cut`` for every sender."""
        for sender, seq in cut.items():
            flow = self._flows.get(sender)
            delivered = flow.delivered if flow is not None else 0
            if delivered < seq:
                return False
        return True

    def deficits(
        self, cut: Dict[ProcessId, int]
    ) -> List[Tuple[ProcessId, int, int]]:
        """Ranges still missing to reach the cut: (sender, from, to)."""
        missing = []
        for sender, seq in cut.items():
            flow = self._flow(sender)
            if flow.delivered < seq:
                missing.append((sender, flow.delivered + 1, seq))
        return missing

    def adopt_baseline(self, cut: Dict[ProcessId, int]) -> None:
        """Fast-forward delivered prefixes to ``cut`` without delivering.

        Used by a process that joins an existing group: history before
        the join view is not delivered to it (virtual-synchrony join
        semantics), so its FIFO counters must start at the flush cut or
        the first in-view message would look like an unfillable gap.
        """
        for sender, seq in cut.items():
            flow = self._flow(sender)
            if flow.delivered >= seq:
                continue
            flow.delivered = seq
            flow.max_seen = max(flow.max_seen, seq)
            for stale in [s for s in flow.pending if s <= seq]:
                del flow.pending[stale]
            if flow.max_seen <= flow.delivered:
                flow.gap_since = None

    # ------------------------------------------------------------------
    # Stability-based eviction
    # ------------------------------------------------------------------
    def update_peer_vector(
        self, peer: ProcessId, vector: Dict[ProcessId, int]
    ) -> None:
        self._peer_delivered[peer] = dict(vector)

    def forget_peer(self, peer: ProcessId) -> None:
        self._peer_delivered.pop(peer, None)

    def evict_stable(self, members: Iterable[ProcessId]) -> int:
        """Drop retained messages delivered by every current member."""
        # Runs per group per heartbeat tick and per received peer vector;
        # in steady state nothing is retained and there is nothing to do.
        if not any(flow.retained for flow in self._flows.values()):
            return 0
        vectors = [
            self._peer_delivered.get(member) for member in members
        ]
        if any(vector is None for vector in vectors):
            return 0
        evicted = 0
        for sender, flow in self._flows.items():
            stable_upto = min(vector.get(sender, 0) for vector in vectors)
            stale = [seq for seq in flow.retained if seq <= stable_upto]
            for seq in stale:
                del flow.retained[seq]
            evicted += len(stale)
        return evicted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def delivered_seq(self, sender: ProcessId) -> int:
        flow = self._flows.get(sender)
        return flow.delivered if flow is not None else 0

    def retained_count(self) -> int:
        return sum(len(flow.retained) for flow in self._flows.values())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flow(self, sender: ProcessId) -> _SenderFlow:
        flow = self._flows.get(sender)
        if flow is None:
            flow = _SenderFlow()
            self._flows[sender] = flow
        return flow

    def _trim_retained(self, flow: _SenderFlow) -> None:
        # Bound memory: drop the oldest retained entries beyond the limit.
        # Unstable messages may be dropped under sustained overload; a
        # NACK for them is then answered by another member's copy.
        if len(flow.retained) <= self.retain_limit:
            return
        for seq in sorted(flow.retained)[: len(flow.retained) - self.retain_limit]:
            del flow.retained[seq]
