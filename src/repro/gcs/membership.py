"""Per-group membership and reliable multicast state machine.

One :class:`GroupMember` instance manages a daemon's participation in a
single group: joining, view proposals, the flush protocol, FIFO reliable
multicast with NACK recovery, partition merge, and graceful leave.

Protocol sketch (coordinator-driven virtual synchrony):

* The *coordinator* of a view is its smallest live member.  On any
  membership change trigger (join request, leave request, suspicion,
  partition merge) the coordinator proposes a new view with a higher
  :class:`~repro.gcs.view.ViewId`.
* On ``Propose`` every member blocks its own new multicasts and
  broadcasts a *flush vector* — its per-sender contiguous delivered
  prefix.  Members holding messages a peer is missing unicast them.
* A member that has caught up to the element-wise maximum of all vectors
  sends ``FlushOk``; when the proposer holds ``FlushOk`` from everyone it
  broadcasts ``ViewCommit``, and members install the view, release
  blocked sends and notify the application.
* Control messages are re-broadcast on a fast tick until superseded, so
  the protocol tolerates message loss without per-message acks.
* If the proposer's daemon is suspected mid-flush, the smallest live
  proposed member re-proposes with a higher view id.  Concurrent
  proposals are resolved by highest view id.

The daemon (endpoint) injects its services via duck typing; see
:class:`repro.gcs.endpoint.GcsEndpoint` for the concrete provider of
``now``, ``send_to_daemon``, ``broadcast_domain``, ``suspected_daemons``
and ``daemon_of``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import NotMemberError
from repro.gcs.messages import (
    FlushOk,
    FlushVector,
    JoinRequest,
    LeaveRequest,
    Multicast,
    Nack,
    Propose,
    Retransmission,
    ViewCommit,
)
from repro.gcs.store import GroupStore
from repro.gcs.view import ProcessId, View, ViewId

#: Fast control tick: drives re-broadcasts during flush and NACK pacing.
TICK_INTERVAL = 0.05
#: A joiner that hears nothing for this long forms a singleton view.
JOIN_SINGLETON_TIMEOUT = 0.4
#: Joiner re-broadcasts its JoinRequest at this period until in a view.
JOIN_RETRY_INTERVAL = 0.25
#: Proposer re-proposes (excluding newly suspected members) after this.
FLUSH_TIMEOUT = 0.8
#: Participant takes over a proposal whose proposer died after this.
COMMIT_TIMEOUT = 1.4
#: A delivery gap must persist this long before a NACK is emitted.
NACK_MIN_AGE = 0.04
#: A member whose flush deficit nobody can answer (e.g. the messages
#: were stable — and thus evicted — in another partition) gives up
#: equalizing after this long and adopts the commit cut instead.
FLUSH_STALL_ADOPT = 1.0


class MemberState(enum.Enum):
    JOINING = "joining"
    NORMAL = "normal"
    FLUSHING = "flushing"
    LEFT = "left"


@dataclass
class _Proposal:
    """Shared state of an in-progress view change (proposer & member)."""

    view_id: ViewId
    members: Tuple[ProcessId, ...]
    proposer: ProcessId
    started_at: float
    # Start of the flush *episode*: carried over from the previous
    # proposal when a re-proposal keeps the same member set, so the
    # FLUSH_STALL_ADOPT escape measures total stall time rather than
    # restarting at every FLUSH_TIMEOUT re-proposal.
    flush_since: float = 0.0
    prior: Tuple[ProcessId, ...] = ()
    vectors: Dict[ProcessId, Dict[ProcessId, int]] = field(default_factory=dict)
    flush_oks: Set[ProcessId] = field(default_factory=set)
    sent_flush_ok: bool = False
    committed: Optional[ViewCommit] = None

    def cut(self) -> Dict[ProcessId, int]:
        """Element-wise max of all received flush vectors."""
        cut: Dict[ProcessId, int] = {}
        for vector in self.vectors.values():
            for sender, seq in vector.items():
                if seq > cut.get(sender, 0):
                    cut[sender] = seq
        return cut


class GroupMember:
    """A daemon's participation in one group for one local process."""

    def __init__(
        self,
        endpoint: Any,
        group: str,
        local: ProcessId,
        on_view: Callable[[View], None],
        on_message: Callable[[ProcessId, Any], None],
    ) -> None:
        self.endpoint = endpoint
        self.group = group
        self.local = local
        self.on_view = on_view
        self.on_message = on_message

        self.state = MemberState.JOINING
        self.view: Optional[View] = None
        self.proposal: Optional[_Proposal] = None
        self.store = GroupStore(group)
        self.pending_joins: Set[ProcessId] = set()
        self.pending_leaves: Set[ProcessId] = set()
        self._next_seq = 0
        self._blocked_sends: List[Tuple[Any, int]] = []
        self._joined_at = endpoint.now
        self._last_join_retry = endpoint.now
        self.installed_views = 0
        self._last_commit: Optional[ViewCommit] = None

        self._announce_join()

    # ==================================================================
    # Application-facing operations
    # ==================================================================
    def multicast(self, payload: Any, payload_bytes: int) -> None:
        """Reliable FIFO multicast to the current view.

        During a flush the message is queued and sent right after the new
        view is installed (sending is blocked by the flush protocol).
        """
        if self.state == MemberState.LEFT:
            raise NotMemberError(f"{self.local} has left group {self.group!r}")
        if self.state != MemberState.NORMAL or self.view is None:
            self._blocked_sends.append((payload, payload_bytes))
            return
        self._send_multicast(payload, payload_bytes)

    def leave(self) -> None:
        """Gracefully leave the group."""
        if self.state == MemberState.LEFT:
            return
        self.state = MemberState.LEFT
        request = LeaveRequest(self.group, self.local)
        self.endpoint.broadcast_domain(request)
        self.endpoint.note_left_process(self.group, self.local)

    @property
    def is_member(self) -> bool:
        return self.state in (MemberState.NORMAL, MemberState.FLUSHING)

    # ==================================================================
    # Message handlers (invoked by the endpoint dispatcher)
    # ==================================================================
    def on_join_request(self, request: JoinRequest) -> None:
        if self.state == MemberState.LEFT:
            return
        if request.process == self.local:
            return
        if self.view is not None and request.process in self.view:
            return
        self.pending_joins.add(request.process)
        self.pending_leaves.discard(request.process)
        self._maybe_propose()

    def on_leave_request(self, request: LeaveRequest) -> None:
        if self.state == MemberState.LEFT or request.process == self.local:
            return
        self.pending_joins.discard(request.process)
        in_view = self.view is not None and request.process in self.view
        # A joiner can leave again while the proposal admitting it is
        # still flushing.  Its daemon stays alive, so no suspicion will
        # ever remove it and the flush vector the proposal waits for is
        # never sent: it has to come out of the proposal here.
        in_flight = (
            self.proposal is not None and request.process in self.proposal.members
        )
        if not (in_view or in_flight):
            return
        self.pending_leaves.add(request.process)
        self._maybe_propose()

    def on_propose(self, propose: Propose) -> None:
        if self.state == MemberState.LEFT:
            return
        if self.local not in propose.members:
            return  # a view that excludes us; we will rejoin if needed
        if not self._id_acceptable(propose.view_id):
            return
        current = self.proposal
        if current is not None and current.view_id == propose.view_id:
            return  # duplicate of the proposal we are already flushing
        self._start_flush(
            propose.view_id, propose.members, propose.view_id.proposer,
            propose.prior,
        )

    def on_flush_vector(self, message: FlushVector) -> None:
        proposal = self.proposal
        if proposal is None or message.view_id != proposal.view_id:
            return
        proposal.vectors[message.sender] = dict(message.vector)
        self._retransmit_deficits(message.sender, message.vector)
        self._check_flush_progress()

    def on_flush_ok(self, message: FlushOk) -> None:
        proposal = self.proposal
        if proposal is None or message.view_id != proposal.view_id:
            # A member still flushing a view we already installed lost
            # the commit (e.g. to queue drop): answer with our copy.
            last = self._last_commit
            if (
                last is not None
                and message.view_id == last.view_id
                and message.sender != self.local
            ):
                self.endpoint.send_to_daemon(
                    self.endpoint.daemon_of(message.sender), last
                )
            return
        if proposal.proposer != self.local:
            return
        proposal.flush_oks.add(message.sender)
        self._maybe_commit()

    def on_view_commit(self, commit: ViewCommit) -> None:
        if self.state == MemberState.LEFT:
            return
        if self.local not in commit.members:
            return
        installed = self.view.view_id if self.view is not None else None
        if installed is not None and commit.view_id <= installed:
            return
        self._install_view(commit)

    def on_multicast(self, message: Multicast) -> None:
        if self.state == MemberState.LEFT:
            return
        for delivered in self.store.receive(message, self.endpoint.now):
            self.on_message(delivered.sender, delivered.payload)
        if self.proposal is not None:
            # Progress during flush: our vector grew, peers may be waiting.
            self._check_flush_progress()

    def on_nack(self, nack: Nack, from_daemon: int) -> None:
        for message in self.store.retained_range(
            nack.origin, nack.missing_from, nack.missing_to
        ):
            self.endpoint.send_to_daemon(from_daemon, Retransmission(message))

    def on_presence(self, view_id: ViewId, members: Tuple[ProcessId, ...]) -> None:
        """Merge detection: a member heard a beacon of a diverged view.

        The rule is symmetric and idempotent: compute the union of the
        two member sets (restricted to live processes); the smallest live
        process of the union proposes it with a counter above both views.
        Beacons repeat every second, so a lost proposal is retried.
        """
        if self.state != MemberState.NORMAL or self.view is None:
            return
        foreign = set(members)
        ours = set(self.view.members)
        if foreign == ours:
            return
        union = self._filter_live(foreign | ours)
        union.add(self.local)
        # Note: union == ours still re-proposes (with a counter above
        # both views) — that is exactly how a strayed member whose view
        # diverged *downward* gets pulled back into the full view.
        if min(union) != self.local:
            return
        counter = max(self.view.view_id.counter, view_id.counter) + 1
        self._propose(ViewId(counter, self.local), tuple(sorted(union)))

    # ==================================================================
    # Periodic driving (called by the endpoint)
    # ==================================================================
    def tick(self) -> None:
        if self.state == MemberState.LEFT:
            return
        now = self.endpoint.now
        if self.state == MemberState.JOINING:
            self._tick_joining(now)
            return
        if self.proposal is not None:
            self._tick_flush(now)
        self._tick_nacks(now)

    def on_suspicion_change(self) -> None:
        """FD output changed; re-evaluate coordinator duties."""
        if self.state == MemberState.LEFT:
            return
        self._maybe_propose()

    def heartbeat_vector(self) -> Dict[ProcessId, int]:
        """Delivered-prefix vector piggybacked on daemon heartbeats."""
        return self.store.known_prefix_vector()

    def on_peer_vector(self, peer: ProcessId, vector: Dict[ProcessId, int]) -> None:
        self.store.update_peer_vector(peer, vector)
        if self.view is not None:
            # Heartbeat vectors double as loss detection: a peer that
            # delivered further than us on some flow reveals messages we
            # silently lost (no later traffic ever exposed the gap).
            for sender, seq in vector.items():
                if sender != self.local and sender in self.view.member_set:
                    self.store.note_remote_progress(
                        sender, seq, self.endpoint.now
                    )
            self.store.evict_stable(self.view.members)

    # ==================================================================
    # Internals: joining
    # ==================================================================
    def _announce_join(self) -> None:
        self.endpoint.broadcast_domain(JoinRequest(self.group, self.local))

    def _tick_joining(self, now: float) -> None:
        if self.proposal is not None:
            # A proposal including us is in flight; flush handling applies.
            self._tick_flush(now)
            return
        if now - self._joined_at >= JOIN_SINGLETON_TIMEOUT:
            self._install_singleton()
            return
        if now - self._last_join_retry >= JOIN_RETRY_INTERVAL:
            self._last_join_retry = now
            self._announce_join()

    def _install_singleton(self) -> None:
        view_id = ViewId(1, self.local)
        commit = ViewCommit(self.group, view_id, (self.local,), {}, prior=())
        self._install_view(commit)

    # ==================================================================
    # Internals: proposing
    # ==================================================================
    def _maybe_propose(self) -> None:
        """Propose a view change if we are the acting coordinator and the
        live membership differs from the installed view."""
        if self.state not in (MemberState.NORMAL, MemberState.FLUSHING):
            return
        if self.view is None:
            return
        live = self._filter_live(set(self.view.members))
        # Members that announced a graceful leave no longer participate:
        # they must not be counted on to act as coordinator.
        candidates = (live - self.pending_leaves) | {self.local}
        if self._acting_coordinator(candidates) != self.local:
            return
        desired = set(live)
        desired |= {p for p in self.pending_joins if self._is_live(p)}
        desired -= self.pending_leaves
        desired.add(self.local)
        if desired == set(self.view.members) and self.proposal is None:
            return
        if self.proposal is not None:
            flushing_live = self._filter_live(set(self.proposal.members))
            flushing_live |= {p for p in self.pending_joins if self._is_live(p)}
            flushing_live -= self.pending_leaves
            flushing_live.add(self.local)
            if flushing_live == set(self.proposal.members):
                return  # current proposal already matches; let it finish
            base_counter = max(
                self.view.view_id.counter, self.proposal.view_id.counter
            )
        else:
            if desired == set(self.view.members):
                return
            base_counter = self.view.view_id.counter
        view_id = ViewId(base_counter + 1, self.local)
        self._propose(view_id, tuple(sorted(desired)))

    def _propose(self, view_id: ViewId, members: Tuple[ProcessId, ...]) -> None:
        prior = self.view.members if self.view is not None else ()
        propose = Propose(self.group, view_id, members, prior=prior)
        self._broadcast_to(members, propose)
        self._start_flush(view_id, members, self.local, prior)

    def _acting_coordinator(self, live: Set[ProcessId]) -> Optional[ProcessId]:
        if not live:
            return self.local
        return min(live)

    # ==================================================================
    # Internals: flushing
    # ==================================================================
    def _telemetry(self):
        """The endpoint's active telemetry bus, or None.

        Defensive: unit tests drive GroupMember with stub endpoints that
        have no simulator behind them.
        """
        sim = getattr(self.endpoint, "sim", None)
        if sim is None:
            return None
        tel = sim.telemetry
        return tel if tel.active else None

    def _change_cause(self, tel, members, view: Optional[View] = None):
        """The causal id behind this membership change, if any is known.

        A view change is caused by whatever removed (crashed node) or
        added (ServerUp) daemons relative to our current view; those
        events attributed their nodes, so look the cause up from the
        symmetric difference.  Falls back to the ambient cause.  Only
        called on an *active* bus (via :meth:`_telemetry`).
        """
        if view is not None:
            changed = tuple(view.departed) + tuple(view.joined)
        else:
            old = set(self.view.members) if self.view is not None else set()
            changed = tuple(old.symmetric_difference(members))
        return tel.cause_for(*(f"node:{p.node}" for p in changed))

    def _start_flush(
        self,
        view_id: ViewId,
        members: Tuple[ProcessId, ...],
        proposer: ProcessId,
        prior: Tuple[ProcessId, ...] = (),
    ) -> None:
        now = self.endpoint.now
        flush_since = now
        previous = self.proposal
        if previous is not None and set(previous.members) == set(members):
            # Counter escalation over the same member set is a retry of
            # the same flush, not a new membership change: keep the
            # episode clock.  Without this a proposer whose cut demands
            # messages a merged-in component already evicted as stable
            # re-proposes at FLUSH_TIMEOUT < FLUSH_STALL_ADOPT forever
            # and the merge never commits.
            flush_since = previous.flush_since
        tel = self._telemetry()
        if tel is not None and flush_since == now:
            fields = {}
            cause = self._change_cause(tel, members)
            if cause is not None:
                fields["cause"] = cause
            tel.emit(
                "gcs.flush.begin",
                daemon=self.endpoint.daemon_id,
                group=self.group,
                view=str(view_id),
                members=len(members),
                **fields,
            )
        self.proposal = _Proposal(
            view_id=view_id,
            members=tuple(sorted(members)),
            proposer=proposer,
            started_at=now,
            flush_since=flush_since,
            prior=tuple(sorted(prior)),
        )
        self.endpoint.note_proposal()
        if self.state == MemberState.NORMAL:
            self.state = MemberState.FLUSHING
        self._broadcast_vector()
        self._check_flush_progress()

    def _broadcast_vector(self) -> None:
        proposal = self.proposal
        vector = FlushVector(
            self.group, proposal.view_id, self.local, self.store.known_prefix_vector()
        )
        proposal.vectors[self.local] = dict(vector.vector)
        self._broadcast_to(proposal.members, vector)

    def _retransmit_deficits(
        self, peer: ProcessId, peer_vector: Dict[ProcessId, int]
    ) -> None:
        """Unicast messages the peer is missing relative to our store.

        Only peers of our *current* view are equalized: a fresh joiner
        (or a foreign partition component) is not entitled to history —
        it fast-forwards via the commit cut — and replaying a long
        backlog at it would flood the network during the flush."""
        if peer == self.local:
            return
        if self.view is None or peer not in self.view.member_set:
            return
        daemon = self.endpoint.daemon_of(peer)
        own_vector = self.store.known_prefix_vector()
        for sender, our_seq in own_vector.items():
            peer_seq = peer_vector.get(sender, 0)
            if peer_seq >= our_seq:
                continue
            for message in self.store.retained_range(sender, peer_seq + 1, our_seq):
                self.endpoint.send_to_daemon(daemon, Retransmission(message))

    def _component_cut(self, proposal: _Proposal) -> Dict[ProcessId, int]:
        """The flush target this member must reach before FlushOk.

        Virtual synchrony only requires equalizing with members of our
        *own* previous view (our partition component).  Messages that
        were delivered — and possibly already evicted as stable — in a
        foreign component are not replayed to us; we fast-forward past
        them via :meth:`GroupStore.adopt_baseline` at installation.
        """
        if self.view is None:
            return {}
        component = set(self.view.members) & set(proposal.members)
        cut: Dict[ProcessId, int] = {}
        for member in component:
            for sender, seq in proposal.vectors.get(member, {}).items():
                if seq > cut.get(sender, 0):
                    cut[sender] = seq
        return cut

    def _check_flush_progress(self) -> None:
        proposal = self.proposal
        if proposal is None:
            return
        if self.view is not None:
            # Existing members wait for every vector and catch up to
            # their component's cut.  Fresh joiners (no installed view)
            # have no history to equalize — they FlushOk immediately and
            # adopt the commit's cut as their FIFO baseline at install.
            have_all_vectors = all(
                member in proposal.vectors for member in proposal.members
            )
            if not have_all_vectors:
                return
            stalled = (
                self.endpoint.now - proposal.flush_since > FLUSH_STALL_ADOPT
            )
            if not self.store.satisfies_cut(self._component_cut(proposal)):
                if not stalled:
                    return
        if not proposal.sent_flush_ok:
            proposal.sent_flush_ok = True
        flush_ok = FlushOk(self.group, proposal.view_id, self.local)
        if proposal.proposer == self.local:
            self.on_flush_ok(flush_ok)
        else:
            self.endpoint.send_to_daemon(
                self.endpoint.daemon_of(proposal.proposer), flush_ok
            )

    def _maybe_commit(self) -> None:
        proposal = self.proposal
        if proposal is None or proposal.proposer != self.local:
            return
        if proposal.committed is not None:
            self._broadcast_to(proposal.members, proposal.committed)
            return
        if not all(member in proposal.flush_oks for member in proposal.members):
            return
        commit = ViewCommit(
            self.group,
            proposal.view_id,
            proposal.members,
            proposal.cut(),
            prior=proposal.prior,
        )
        proposal.committed = commit
        self._broadcast_to(proposal.members, commit)
        self.on_view_commit(commit)

    def _tick_flush(self, now: float) -> None:
        proposal = self.proposal
        if proposal is None:
            return
        # Re-broadcast our control state: loss tolerance without acks.
        self._broadcast_vector()
        if proposal.sent_flush_ok:
            self._check_flush_progress()
        if proposal.committed is not None:
            self._broadcast_to(proposal.members, proposal.committed)
        # Ask for flush-blocking messages we are still missing.
        self._nack_cut_deficits(proposal)

        if proposal.proposer == self.local:
            if now - proposal.started_at > FLUSH_TIMEOUT:
                self._reproposal_excluding_dead(proposal)
        else:
            proposer_gone = (
                not self._is_live(proposal.proposer)
                or proposal.proposer in self.pending_leaves
            )
            if proposer_gone and now - proposal.started_at > COMMIT_TIMEOUT:
                live = self._filter_live(set(proposal.members))
                candidates = (live - self.pending_leaves) | {self.local}
                if self._acting_coordinator(candidates) == self.local:
                    self._reproposal_excluding_dead(proposal)

    def _reproposal_members(self, proposal: _Proposal) -> Set[ProcessId]:
        live = self._filter_live(set(proposal.members))
        live |= {p for p in self.pending_joins if self._is_live(p)}
        live -= self.pending_leaves
        live.add(self.local)
        return live

    def _reproposal_excluding_dead(self, proposal: _Proposal) -> None:
        live = self._reproposal_members(proposal)
        view_id = ViewId(proposal.view_id.counter + 1, self.local)
        self._propose(view_id, tuple(sorted(live)))

    def _nack_cut_deficits(self, proposal: _Proposal) -> None:
        cut = self._component_cut(proposal)
        for sender, from_seq, to_seq in self.store.deficits(cut):
            self._send_nack(sender, from_seq, to_seq)

    # ==================================================================
    # Internals: view installation
    # ==================================================================
    def _install_view(self, commit: ViewCommit) -> None:
        view = View(self.group, commit.view_id, commit.members, prior=commit.prior)
        self._last_commit = commit
        # Fast-forward FIFO baselines past history we are not required to
        # deliver: everything for a fresh joiner, foreign-component flows
        # for a partition merge.  For flows we equalized during the flush
        # this is a no-op (we already delivered up to the cut).
        self.store.adopt_baseline(commit.cut)
        tel = self._telemetry()
        cause = None
        if tel is not None:
            cause = self._change_cause(tel, view.members, view)
        if tel is not None and self.proposal is not None:
            duration = self.endpoint.now - self.proposal.flush_since
            end_fields = {} if cause is None else {"cause": cause}
            tel.emit(
                "gcs.flush.end",
                daemon=self.endpoint.daemon_id,
                group=self.group,
                view=str(commit.view_id),
                duration_s=duration,
                **end_fields,
            )
            tel.metrics.histogram("gcs.flush_s").observe(duration)
        self.view = view
        self.proposal = None
        self.state = MemberState.NORMAL
        self.installed_views += 1
        self.pending_joins -= view.member_set
        self.pending_leaves &= view.member_set
        # The installation callbacks run synchronously (the endpoint's
        # gcs.view.install emission, then the application's on_view — for
        # a VoD server that reaches _reevaluate/_take_over and the new
        # session's server.session.start).  Setting the ambient cause
        # here is what lets that whole chain tag itself with the fault
        # that triggered the view change.
        prior_ambient = tel.cause if tel is not None else None
        if cause is not None:
            tel.cause = cause
        try:
            self.endpoint.note_installed_view(self.group, view)
            self.on_view(view)
        finally:
            if cause is not None:
                tel.cause = prior_ambient
        blocked, self._blocked_sends = self._blocked_sends, []
        for payload, payload_bytes in blocked:
            self._send_multicast(payload, payload_bytes)
        # Membership may already be stale (e.g. someone died mid-commit).
        self._maybe_propose()

    # ==================================================================
    # Internals: data plane
    # ==================================================================
    def _send_multicast(self, payload: Any, payload_bytes: int) -> None:
        self._next_seq += 1
        message = Multicast(self.group, self.local, self._next_seq, payload, payload_bytes)
        self.store.record_own(message)
        self._broadcast_to(self.view.members, message)
        # Local delivery (loopback) happens synchronously.
        self.on_message(self.local, payload)

    def _tick_nacks(self, now: float) -> None:
        for sender, from_seq, to_seq in self.store.gaps(now, NACK_MIN_AGE):
            self._send_nack(sender, from_seq, to_seq)

    def _send_nack(self, sender: ProcessId, from_seq: int, to_seq: int) -> None:
        nack = Nack(self.group, sender, from_seq, to_seq)
        if self._is_live(sender):
            self.endpoint.send_to_daemon(self.endpoint.daemon_of(sender), nack)
            return
        # Origin is dead: any member may hold retained copies.
        members = self.view.members if self.view is not None else ()
        for member in members:
            if member != self.local and self._is_live(member):
                self.endpoint.send_to_daemon(self.endpoint.daemon_of(member), nack)

    # ==================================================================
    # Internals: liveness helpers
    # ==================================================================
    def _is_live(self, process: ProcessId) -> bool:
        if process == self.local:
            return True
        daemon = self.endpoint.daemon_of(process)
        return daemon not in self.endpoint.suspected_daemons()

    def _filter_live(self, processes: Set[ProcessId]) -> Set[ProcessId]:
        return {process for process in processes if self._is_live(process)}

    def _broadcast_to(self, members: Tuple[ProcessId, ...], message: Any) -> None:
        daemons = {
            self.endpoint.daemon_of(member)
            for member in members
            if member != self.local
        }
        daemons.discard(self.endpoint.daemon_id)
        for daemon in daemons:
            self.endpoint.send_to_daemon(daemon, message)

    def _id_acceptable(self, view_id: ViewId) -> bool:
        """A proposal id must beat both the installed view and any flush."""
        if self.view is not None and view_id <= self.view.view_id:
            return False
        if self.proposal is not None and view_id < self.proposal.view_id:
            return False
        return True
