"""The GCS daemon: one per node, multiplexing all groups.

The endpoint owns the control-plane UDP socket, the failure detector,
the heartbeat/tick/presence timers, and one
:class:`~repro.gcs.membership.GroupMember` per locally joined group.  It
also provides two extra messaging services used by the VoD layer:

* **open-group sends** — best-effort datagram to all members of a group
  the sender did not join (the VoD client contacts the server group this
  way, with application-level retry);
* **reliable point-to-point** — acked, retried unicast between processes
  (used for connection offers).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import GroupError
from repro.gcs.domain import GcsDomain
from repro.gcs.failure_detector import (
    DEFAULT_TIMEOUT,
    FailureDetector,
)
from repro.gcs.membership import GroupMember, MemberState, TICK_INTERVAL
from repro.gcs.messages import (
    FlushOk,
    FlushVector,
    Heartbeat,
    JoinRequest,
    LeaveRequest,
    Multicast,
    Nack,
    OpenGroupSend,
    PointToPoint,
    PointToPointAck,
    Presence,
    Propose,
    Retransmission,
    ViewCommit,
)
from repro.gcs.view import ProcessId, View
from repro.net.address import GCS_PORT
from repro.net.node import Node
from repro.net.packet import Datagram
from repro.net.udp import UdpSocket
from repro.sim.process import Timer

HEARTBEAT_INTERVAL = 0.15
PRESENCE_INTERVAL = 2.5
P2P_RETRY_INTERVAL = 0.15
P2P_MAX_RETRIES = 20
#: Duplicate suppression remembers this many ids (reliable p2p: in all;
#: open-group sends: per sending daemon), then forgets the older half.
SEEN_CAP = 100_000

ViewCallback = Callable[[View], None]
MessageCallback = Callable[[ProcessId, Any], None]
P2pCallback = Callable[[ProcessId, Any], None]
OpenSendCallback = Callable[[ProcessId, Any], None]


class IdRuns:
    """A set of ids held as sorted, disjoint, non-adjacent runs.

    ``bounds`` is ``[lo0, hi0, lo1, hi1, ...]``, each run inclusive.  A
    daemon's open-send ids reach a receiver as one contiguous run with
    the odd gap (a lost or still-reordered send), so n ids cost a few
    list slots, not n set entries.  ``len()`` counts the ids held.
    """

    __slots__ = ("bounds", "count")

    def __init__(self) -> None:
        self.bounds: List[int] = []
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def add(self, request_id: int) -> bool:
        """Hold ``request_id``; False if it was held already."""
        bounds = self.bounds
        slot = bisect_right(bounds, request_id)
        if slot % 2 == 1 or (slot > 0 and bounds[slot - 1] == request_id):
            return False
        # ``slot`` is even: the id falls in the gap before run slot // 2.
        joins_left = slot > 0 and bounds[slot - 1] == request_id - 1
        joins_right = slot < len(bounds) and bounds[slot] == request_id + 1
        if joins_left and joins_right:
            del bounds[slot - 1:slot + 1]
        elif joins_left:
            bounds[slot - 1] = request_id
        elif joins_right:
            bounds[slot] = request_id
        else:
            bounds[slot:slot] = (request_id, request_id)
        self.count += 1
        return True

    def drop_lowest(self, n: int) -> int:
        """Forget the ``n`` smallest ids held (``1 <= n <= len``) and
        return the largest of them."""
        bounds = self.bounds
        self.count -= n
        slot = 0
        while True:
            lo, hi = bounds[slot], bounds[slot + 1]
            if hi - lo + 1 >= n:
                last = lo + n - 1
                if last == hi:
                    slot += 2
                else:
                    bounds[slot] = last + 1
                del bounds[:slot]
                return last
            n -= hi - lo + 1
            slot += 2


class GroupListener:
    """Callbacks a process supplies when joining a group."""

    def __init__(
        self,
        on_view: Optional[ViewCallback] = None,
        on_message: Optional[MessageCallback] = None,
    ) -> None:
        self.on_view = on_view or (lambda view: None)
        self.on_message = on_message or (lambda sender, payload: None)


class GroupHandle:
    """A process's handle on one joined group."""

    def __init__(self, endpoint: "GcsEndpoint", member: GroupMember) -> None:
        self._endpoint = endpoint
        self._member = member

    @property
    def group(self) -> str:
        return self._member.group

    @property
    def view(self) -> Optional[View]:
        return self._member.view

    @property
    def process(self) -> ProcessId:
        return self._member.local

    def multicast(self, payload: Any, payload_bytes: int = 64) -> None:
        """Reliable FIFO multicast to the current view members."""
        self._member.multicast(payload, payload_bytes)

    def leave(self) -> None:
        self._endpoint.leave_group(self._member.group)

    @property
    def is_member(self) -> bool:
        return self._member.is_member


class GcsEndpoint:
    """A GCS daemon bound to one node."""

    def __init__(
        self,
        domain: GcsDomain,
        node: Node,
        fd_timeout: float = DEFAULT_TIMEOUT,
        incarnation: int = 0,
    ) -> None:
        self.domain = domain
        self.node = node
        self.sim = domain.sim
        self.daemon_id = node.node_id
        self.closed = False

        self.socket = UdpSocket(node, GCS_PORT, on_receive=self._on_datagram)
        self.fd = FailureDetector(
            self.sim,
            timeout=fd_timeout,
            on_suspect=self._on_suspicion_event,
            on_trust=self._on_suspicion_event,
            owner=self.daemon_id,
        )
        self._members: Dict[str, GroupMember] = {}
        self._p2p_handlers: Dict[str, P2pCallback] = {}
        self._open_handlers: Dict[str, OpenSendCallback] = {}
        # Every id this daemon mints — p2p sequence numbers and open-group
        # request ids, 8 bytes each on the wire — carries the node's boot
        # counter (from the domain) in its high half and counts in its low
        # half, so a restarted daemon never re-uses an id its predecessor
        # sent and a receiver's duplicate suppression cannot mistake one
        # for the other.  The first daemon on a node counts 1, 2, 3, ...
        # Reliable p2p state.
        self._p2p_next_seq = incarnation << 32
        self._p2p_pending: Dict[int, Dict[str, Any]] = {}
        self._p2p_seen: Dict[Tuple[ProcessId, int], bool] = {}
        # Open-group duplicate suppression, per sending daemon (a
        # sender's node is its daemon, and request ids are per daemon):
        # the ids delivered above that daemon's low-water mark, at or
        # below which every id counts as delivered.  Only sends from
        # other daemons are recorded: a local one never crosses the
        # network, so nothing can duplicate it.
        self._open_seen: Dict[int, IdRuns] = {}
        self._open_low: Dict[int, int] = {}
        self._open_next_id = incarnation << 32
        # Graceful-leave tombstones per group.
        self._tombstones: Dict[str, Set[ProcessId]] = {}
        # Last time anything arrived from each daemon — unlike the FD's
        # per-view watch set this survives view changes, so liveness can
        # be judged even for daemons no current view covers.
        self._last_heard: Dict[int, float] = {}
        # Last time a *heartbeat* arrived from each daemon, for the
        # reciprocity half of _heartbeat_targets.
        self._hb_heard: Dict[int, float] = {}
        # The co-member half of _heartbeat_targets: daemons in first-seen
        # order, rebuilt after a join, a leave, a proposal or an install.
        self._comembers: Optional[Tuple[int, ...]] = None
        # Control-plane traffic accounting (for the overhead experiment).
        self.control_bytes_sent = 0
        self.control_packets_sent = 0
        # Receive path: exact message type -> handler(message, from_daemon).
        self._handlers: Dict[type, Callable[[Any, int], None]] = {
            Heartbeat: self._on_heartbeat,
            Multicast: self._on_multicast,
            Retransmission: self._on_retransmission,
            JoinRequest: self._on_join_request,
            LeaveRequest: self._on_leave_request,
            Propose: self._on_propose,
            FlushVector: self._on_flush_vector,
            FlushOk: self._on_flush_ok,
            ViewCommit: self._on_view_commit,
            Nack: self._on_nack,
            Presence: self._on_presence,
            OpenGroupSend: self._deliver_open_send,
            PointToPoint: self._on_p2p,
            PointToPointAck: self._on_p2p_ack,
        }

        self._hb_timer = Timer(
            self.sim, HEARTBEAT_INTERVAL, self._heartbeat_tick,
            start_delay=self._stagger(HEARTBEAT_INTERVAL),
        )
        self._tick_timer = Timer(
            self.sim, TICK_INTERVAL, self._member_tick,
            start_delay=self._stagger(TICK_INTERVAL),
        )
        self._presence_timer = Timer(
            self.sim, PRESENCE_INTERVAL, self._presence_tick,
            start_delay=self._stagger(PRESENCE_INTERVAL),
        )

    # ==================================================================
    # Public API
    # ==================================================================
    @property
    def now(self) -> float:
        return self.sim.now

    def process_id(self, name: str) -> ProcessId:
        return ProcessId(self.daemon_id, name)

    def join(
        self, group: str, process_name: str, listener: GroupListener
    ) -> GroupHandle:
        """Join ``group`` as the local process ``process_name``.

        At most one local process per group per daemon (sufficient for
        the VoD layout; the restriction keeps delivery bookkeeping
        per-daemon).
        """
        self._ensure_open()
        existing = self._members.get(group)
        if existing is not None and existing.state != MemberState.LEFT:
            raise GroupError(
                f"daemon {self.daemon_id} already has a member in {group!r}"
            )
        process = self.process_id(process_name)
        self._tombstones.get(group, set()).discard(process)
        member = GroupMember(
            self, group, process, listener.on_view, listener.on_message
        )
        self._members[group] = member
        self._comembers = None
        self.domain.note_group_change(group)
        return GroupHandle(self, member)

    def leave_group(self, group: str) -> None:
        member = self._members.get(group)
        if member is None:
            return
        member.leave()
        del self._members[group]
        self._comembers = None
        self.domain.note_group_change(group)

    def has_joined(self, group: str) -> bool:
        """True from :meth:`join` until :meth:`leave_group` — the
        domain's group directory lists exactly these daemons."""
        return group in self._members

    def send_to_group(
        self,
        group: str,
        payload: Any,
        payload_bytes: int = 64,
        sender_name: str = "anon",
    ) -> int:
        """Open-group send: best-effort datagram to all group members.

        Addressed to the group: one copy per daemon the domain's group
        directory lists (plus local delivery), not one per daemon of the
        deployment.  Returns a request id; duplicates of the same request
        are suppressed at receivers, so callers may re-send for
        reliability.
        """
        self._ensure_open()
        self._open_next_id += 1
        message = OpenGroupSend(
            group,
            self.process_id(sender_name),
            payload,
            payload_bytes,
            self._open_next_id,
        )
        for daemon in self.domain.group_daemons(group):
            if daemon != self.daemon_id:
                self.send_to_daemon(daemon, message)
        # Local members receive it too, past the duplicate ledger.
        self._hand_open_send(message)
        return self._open_next_id

    def register_open_group_handler(
        self, group: str, handler: OpenSendCallback
    ) -> None:
        """Receive open-group sends for a group joined on this daemon."""
        self._open_handlers[group] = handler

    def send_p2p(self, target: ProcessId, payload: Any, payload_bytes: int = 64,
                 sender_name: str = "anon") -> None:
        """Reliable unicast to ``target`` (acked, retried)."""
        self._ensure_open()
        self._p2p_next_seq += 1
        message = PointToPoint(
            self.process_id(sender_name), target, self._p2p_next_seq,
            payload, payload_bytes,
        )
        self._p2p_pending[message.seq] = {"message": message, "tries": 0}
        self._p2p_transmit(message.seq)

    def register_p2p_handler(self, process_name: str, handler: P2pCallback) -> None:
        self._p2p_handlers[process_name] = handler

    def group_view(self, group: str) -> Optional[View]:
        member = self._members.get(group)
        return member.view if member is not None else None

    def group_members(self) -> List[GroupMember]:
        """This daemon's member of every group it has joined (a
        read-only tap for observers such as the invariant checker)."""
        return list(self._members.values())

    def shutdown(self) -> None:
        """Graceful daemon shutdown: leave all groups, stop timers."""
        if self.closed:
            return
        for group in list(self._members):
            self.leave_group(group)
        self._stop()

    def crash(self) -> None:
        """Fail-stop without goodbyes (used with node.crash())."""
        self._stop()

    def _stop(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._hb_timer.cancel()
        self._tick_timer.cancel()
        self._presence_timer.cancel()
        if not self.socket.closed:
            self.socket.close()
        self.domain.remove_endpoint(self)

    # ==================================================================
    # Services used by GroupMember (duck-typed context)
    # ==================================================================
    def send_to_daemon(self, daemon: int, message: Any) -> None:
        if self.closed or daemon == self.daemon_id:
            self._loopback(message)
            return
        size = message.wire_bytes()
        self.control_bytes_sent += size
        self.control_packets_sent += 1
        self.socket.sendto(self.domain.daemon_address(daemon), message, size)

    def broadcast_domain(self, message: Any) -> None:
        if self.closed:
            return
        for daemon in self.domain.daemon_nodes():
            if daemon != self.daemon_id:
                self.send_to_daemon(daemon, message)

    def suspected_daemons(self) -> Set[int]:
        return self.fd.suspected()

    def heard_within(self, daemon: int, window_s: float) -> bool:
        """True if anything arrived from ``daemon`` in the last window.

        Daemons heartbeat their co-members (and whoever heartbeats them)
        every 0.15 s, so an alive and reachable daemon that shares a
        group with this one registers well inside the failure-detector
        timeout.  A daemon that shares none is heard only when it sends
        this one something — and an open-group send reaches only the
        daemons that joined the group."""
        if daemon == self.daemon_id:
            return True
        last = self._last_heard.get(daemon)
        return last is not None and self.sim.now - last <= window_s

    @staticmethod
    def daemon_of(process: ProcessId) -> int:
        return process.node

    def note_proposal(self) -> None:
        """Hook: a local member started flushing towards a new view."""
        self._comembers = None

    def note_installed_view(self, group: str, view: View) -> None:
        """Hook: refresh FD watch targets after a view installation."""
        self._comembers = None
        tel = self.sim.telemetry
        if tel.active:
            fields = {}
            # GroupMember._install_view sets the ambient cause (looked up
            # from the departed/joined nodes) around this call.
            if tel.cause is not None:
                fields["cause"] = tel.cause
            tel.emit(
                "gcs.view.install",
                daemon=self.daemon_id,
                group=group,
                view=str(view.view_id),
                members=len(view.members),
                joined=len(view.joined),
                departed=len(view.departed),
                **fields,
            )
            tel.count("gcs.views_installed")
        self._refresh_watches()
        self.domain.notify_view_installed(self.daemon_id, group, view)

    def note_left_process(self, group: str, process: ProcessId) -> None:
        self._tombstones.setdefault(group, set()).add(process)

    def is_tombstoned(self, group: str, process: ProcessId) -> bool:
        return process in self._tombstones.get(group, set())

    # ==================================================================
    # Timers
    # ==================================================================
    def _heartbeat_tick(self) -> None:
        if self.closed:
            return
        ack_vectors = {}
        for group, member in self._members.items():
            if member.state == MemberState.LEFT:
                continue
            vector = member.heartbeat_vector()
            ack_vectors[group] = vector
            member.store.update_peer_vector(member.local, vector)
            if member.view is not None:
                member.store.evict_stable(member.view.members)
        heartbeat = Heartbeat(self.daemon_id, ack_vectors)
        for daemon in self._heartbeat_targets():
            self.send_to_daemon(daemon, heartbeat)
        self.fd.check()

    def _heartbeat_targets(self) -> Set[int]:
        """Daemons of every co-member in any group or live proposal,
        plus every daemon currently heartbeating *us*.

        The reciprocity half matters when views diverge asymmetrically
        (partition merges): a daemon whose views list none of our
        processes would otherwise stay silent towards us even though our
        view still lists one of its processes — and its silence reads as
        daemon death, so the merge flush wrongly drops a live member.
        """
        comembers = self._comembers
        if comembers is None:
            comembers = self._comembers = tuple(dict.fromkeys(
                p.node
                for member in self._members.values()
                for source in (member.view, member.proposal)
                if source is not None
                for p in source.members
            ))
        # Filled in the same order as the groups' views list them, so the
        # set iterates (and heartbeats go out) exactly as if built from them.
        targets = set(comembers)
        now = self.sim.now
        targets.update(
            daemon
            for daemon, heard_at in self._hb_heard.items()
            if now - heard_at <= self.fd.timeout
        )
        targets.discard(self.daemon_id)
        return targets

    def _refresh_watches(self) -> None:
        wanted = self._heartbeat_targets()
        for daemon in wanted - self.fd.watched():
            self.fd.watch(daemon)
        for daemon in self.fd.watched() - wanted:
            self.fd.unwatch(daemon)

    def _on_suspicion_event(self, _daemon: int) -> None:
        """FD output changed: let every group re-evaluate its membership."""
        if self.closed:
            return
        for member in list(self._members.values()):
            member.on_suspicion_change()

    def _member_tick(self) -> None:
        if self.closed:
            return
        self._refresh_watches()
        for member in list(self._members.values()):
            member.tick()
        self._p2p_tick()

    def _presence_tick(self) -> None:
        if self.closed:
            return
        for group, member in self._members.items():
            view = member.view
            if view is None or member.state != MemberState.NORMAL:
                continue
            if view.coordinator != member.local:
                continue
            presence = Presence(group, view.view_id, view.members, member.local)
            self.broadcast_domain(presence)

    # ==================================================================
    # Receive path
    # ==================================================================
    def _on_datagram(self, datagram: Datagram) -> None:
        if self.closed:
            return
        self._dispatch(datagram.payload, datagram.src.node)

    def _loopback(self, message: Any) -> None:
        # Same-daemon control messages short-circuit the network.
        self.sim.call_soon(self._dispatch, message, self.daemon_id)

    def _dispatch(self, message: Any, from_daemon: int) -> None:
        if self.closed:
            return
        self._last_heard[from_daemon] = self.sim.now
        self.fd.heard_from(from_daemon)
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(message, from_daemon)

    def _live_member(self, group: str) -> Optional[GroupMember]:
        member = self._members.get(group)
        if member is not None and member.state != MemberState.LEFT:
            return member
        return None

    def _on_multicast(self, message: Multicast, _from_daemon: int) -> None:
        member = self._live_member(message.group)
        if member is not None:
            member.on_multicast(message)

    def _on_retransmission(self, message: Retransmission, from_daemon: int) -> None:
        self._on_multicast(message.original, from_daemon)

    def _on_join_request(self, message: JoinRequest, _from_daemon: int) -> None:
        self._tombstones.get(message.group, set()).discard(message.process)
        member = self._live_member(message.group)
        if member is not None:
            member.on_join_request(message)

    def _on_leave_request(self, message: LeaveRequest, _from_daemon: int) -> None:
        self.note_left_process(message.group, message.process)
        member = self._live_member(message.group)
        if member is not None:
            member.on_leave_request(message)

    def _on_propose(self, message: Propose, from_daemon: int) -> None:
        member = self._live_member(message.group)
        if member is not None:
            member.on_propose(message)
        # A proposal naming a process of this daemon that is not in the
        # group (it left again, or its JoinRequest was overtaken by its
        # LeaveRequest) waits for a flush vector nobody will send, and
        # this daemon's heartbeats keep the process "live" at the
        # proposer.  Only we know it is gone: say so.
        local = member.local if member is not None else None
        for process in message.members:
            if process.node == self.daemon_id and process != local:
                self.send_to_daemon(
                    from_daemon, LeaveRequest(message.group, process)
                )

    def _on_flush_vector(self, message: FlushVector, _from_daemon: int) -> None:
        member = self._live_member(message.group)
        if member is not None:
            member.on_flush_vector(message)

    def _on_flush_ok(self, message: FlushOk, _from_daemon: int) -> None:
        member = self._live_member(message.group)
        if member is not None:
            member.on_flush_ok(message)

    def _on_view_commit(self, message: ViewCommit, _from_daemon: int) -> None:
        member = self._live_member(message.group)
        if member is not None:
            member.on_view_commit(message)

    def _on_nack(self, message: Nack, from_daemon: int) -> None:
        member = self._live_member(message.group)
        if member is not None:
            member.on_nack(message, from_daemon)

    def _on_heartbeat(self, heartbeat: Heartbeat, _from_daemon: int) -> None:
        self._hb_heard[heartbeat.sender_daemon] = self.sim.now
        for group, vector in heartbeat.ack_vectors.items():
            member = self._live_member(group)
            if member is None:
                continue
            peers = [
                p for p in (member.view.members if member.view else ())
                if p.node == heartbeat.sender_daemon
            ]
            for peer in peers:
                member.on_peer_vector(peer, vector)

    def _on_presence(self, presence: Presence, from_daemon: int) -> None:
        member = self._live_member(presence.group)
        if member is None:
            return
        # A daemon advertising one of its *own* processes as a current
        # member overrides any graceful-leave tombstone we hold for it:
        # the process must have re-joined (and the JoinRequest may have
        # been lost to a partition).  Without this, a stale tombstone
        # filters the process out of every union below and the diverged
        # views can never merge.
        tombstones = self._tombstones.get(presence.group)
        if tombstones:
            for process in presence.members:
                if process.node == from_daemon:
                    tombstones.discard(process)
        members = tuple(
            p for p in presence.members
            if not self.is_tombstoned(presence.group, p)
        )
        if (
            member.view is not None
            and member.local not in presence.members
            and not presence.is_reply
        ):
            # We were left out of their view: advertise ourselves so the
            # union rule can fire at whoever is the smallest process.
            # Only beacons are answered — replying to replies would
            # ping-pong between diverged daemons forever.
            reply = Presence(
                presence.group,
                member.view.view_id,
                member.view.members,
                member.local,
                is_reply=True,
            )
            self.send_to_daemon(from_daemon, reply)
        member.on_presence(presence.view_id, members)

    def _deliver_open_send(self, message: OpenGroupSend, _from_daemon: int) -> None:
        daemon = message.sender.node
        request_id = message.request_id
        seen = self._open_seen.get(daemon)
        if seen is None:
            seen = self._open_seen[daemon] = IdRuns()
        bounds = seen.bounds
        if bounds and request_id == bounds[-1] + 1:
            # In order: the daemon's next id extends its last run.
            bounds[-1] = request_id
            seen.count += 1
        elif request_id <= self._open_low.get(daemon, 0) or not seen.add(request_id):
            return
        if seen.count > SEEN_CAP:
            # Ids only grow per daemon (restarts included), so the older
            # half folds into the mark and a late duplicate of any of
            # them is still suppressed.
            self._open_low[daemon] = seen.drop_lowest(seen.count // 2)
        self._hand_open_send(message)

    def _hand_open_send(self, message: OpenGroupSend) -> None:
        member = self._members.get(message.group)
        if member is None or not member.is_member:
            return
        handler = self._open_handlers.get(message.group)
        if handler is not None:
            handler(message.sender, message.payload)

    # ==================================================================
    # Reliable point-to-point
    # ==================================================================
    def _on_p2p(self, message: PointToPoint, _from_daemon: int) -> None:
        ack = PointToPointAck(message.target, message.sender, message.seq)
        self.send_to_daemon(message.sender.node, ack)
        key = (message.sender, message.seq)
        if key in self._p2p_seen:
            return
        self._p2p_seen[key] = True
        if len(self._p2p_seen) > SEEN_CAP:
            # Oldest half, by arrival (dicts keep insertion order).
            for old in list(islice(self._p2p_seen, SEEN_CAP // 2)):
                del self._p2p_seen[old]
        handler = self._p2p_handlers.get(message.target.name)
        if handler is not None:
            handler(message.sender, message.payload)

    def _on_p2p_ack(self, message: PointToPointAck, _from_daemon: int) -> None:
        self._p2p_pending.pop(message.seq, None)

    def _p2p_transmit(self, seq: int) -> None:
        entry = self._p2p_pending.get(seq)
        if entry is None:
            return
        entry["tries"] += 1
        entry["last_sent"] = self.now
        message: PointToPoint = entry["message"]
        self.send_to_daemon(message.target.node, message)

    def _p2p_tick(self) -> None:
        for seq in list(self._p2p_pending):
            entry = self._p2p_pending.get(seq)
            if entry is None:
                continue
            if entry["tries"] >= P2P_MAX_RETRIES:
                del self._p2p_pending[seq]
                continue
            if self.now - entry.get("last_sent", 0.0) >= P2P_RETRY_INTERVAL:
                self._p2p_transmit(seq)

    # ==================================================================
    # Helpers
    # ==================================================================
    def _stagger(self, interval: float) -> float:
        """Desynchronize timers across daemons deterministically."""
        rng = self.sim.rng(f"gcs.stagger.{self.daemon_id}")
        return rng.uniform(0.0, interval)

    def _ensure_open(self) -> None:
        if self.closed:
            raise GroupError(f"GCS daemon on node {self.daemon_id} is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GcsEndpoint node={self.daemon_id} groups={sorted(self._members)} "
            f"{'closed' if self.closed else 'open'}>"
        )
