"""One server's membership in one movie group.

The paper's unit of fault tolerance is the movie group: "one movie
group per movie", whose replicas share per-client state every half
second and re-distribute the clients deterministically at every
membership change.  A :class:`MovieReplica` is this server's member of
one such group: it holds everything the server knows per title, with
the group's handlers as its methods.

Two ledgers, one rule set.  Full sessions are placed from the *record
ledger* (``state`` + ``assignment``), flyweight rows from the cohort's
*row ledger* (:class:`~repro.server.streamer.CohortSession`).  Both go
through the same rules (:mod:`repro.server.state`), the same settle
predicate (:attr:`MovieReplica.settling`) and the same freshness TTL
(``ServerConfig.freshness_ttl_s``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Tuple

from repro.gcs.endpoint import GroupListener
from repro.gcs.view import ProcessId, View
from repro.media.movie import DEFAULT_FPS
from repro.server import prefix
from repro.server.admission import AdmissionQueue
from repro.server.state import MovieState, OwnerMap, choose_owner, rebalance
from repro.server.streamer import ClientSession, CohortSession
from repro.service.protocol import (
    ClientRecord,
    CohortSync,
    ConnectRequest,
    QualityNotice,
    StateSync,
    movie_group,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.client.flyweight import FlyweightPool
    from repro.server.server import VoDServer


class MovieReplica:
    """This server's member of one movie group.  The attributes without
    an underscore are read-only surface for observers and tests."""

    def __init__(self, server: "VoDServer", title: str) -> None:
        self.server = server
        self.sim = server.sim
        self.title = title
        self.process = server.process
        self.state = MovieState(title)
        self.view: Optional[View] = None
        # Deterministic client->server assignment, recomputed per view
        # (and while the view is young, so joiners that receive state
        # transfer converge) then extended incrementally for clients
        # that connect mid-view.
        self.assignment = OwnerMap()
        self._placed_view_id: Optional[Any] = None
        self.settle_until = 0.0
        # The previous periodic shares (the StateSync, then the cohort's
        # CohortSync if it has one): re-multicast as state transfer
        # when a new replica joins.  Deliberately one sync period stale
        # — the paper's conservative handoff re-transmits the last
        # ~0.5 s of frames rather than risk a gap.
        self._last_shares: Tuple[Any, ...] = ()
        self._sync_round = 0
        # The flyweight viewer pool for this title (see
        # repro.client.flyweight) and the cohort serving its rows here:
        # the flyweight counterpart of the per-client session set, one
        # object per movie, playheads as arithmetic.
        self.pool: Optional["FlyweightPool"] = next(
            (pool for pool in server.pools if pool.movie_title == title), None
        )
        self.cohort: Optional[CohortSession] = None
        self.admission = AdmissionQueue(self)
        self.handle = server.endpoint.join(
            movie_group(title),
            server.name,
            GroupListener(on_view=self.on_view, on_message=self.on_message),
        )

    # ==================================================================
    # What this replica serves
    # ==================================================================
    def sessions(self) -> Iterator[Tuple[ProcessId, ClientSession]]:
        """This title's full sessions, in the server's registry order."""
        title = self.title
        for client, session in self.server.sessions.items():
            if session.movie.title == title:
                yield client, session

    def served_clients(self) -> List[ProcessId]:
        """Every client served from this replica — full per-client
        sessions and flyweight cohort rows alike."""
        clients = [client for client, _ in self.sessions()]
        if self.cohort is not None:
            clients.extend(self.cohort.clients())
        return clients

    @property
    def settling(self) -> bool:
        """Inside the settle window of a view that admitted joiners
        (``View.joined`` is a subset of its members by construction, so
        a non-empty ``joined`` *is* the join regime)."""
        view = self.view
        return bool(
            view is not None and view.joined and self.sim.now < self.settle_until
        )

    def ensure_cohort(self) -> CohortSession:
        """The cohort serving ``pool``'s rows here, created at first use
        (so a replica without flyweight viewers schedules nothing)."""
        if self.cohort is None:
            self.cohort = CohortSession(
                self.server, self.server.catalog.movie(self.title), self.pool
            )
        return self.cohort

    # ==================================================================
    # Connect path
    # ==================================================================
    def connect(self, request: ConnectRequest, sync: bool = True) -> None:
        client = request.client
        index = None if self.pool is None else self.pool.index_of(client)
        if index is not None:
            if not self.admission.defer_row(index):
                self.connect_row(index, request)
            return
        if self.admission.defer(request):
            return  # the movie group's view is still settling
        server = self.server
        state = self.state
        now = self.sim.now
        session = server.sessions.get(client)
        if session is not None and session.movie.title == self.title:
            # Already serving this client: the retry raced a stale
            # record.  Refresh it instead of double-starting (which
            # would leak the live session and re-join its group).
            state.put_record(session.record(), now)
            return
        offset = max(1, request.resume_offset)
        if self.assign(client, offset) != self.process:
            return
        quality_fps = request.quality_fps
        if server.admission_policy is not None:
            decision = self._admission_check(request)
            if not decision.admitted:
                # The client's 1 s connect retry is the busy-signal
                # queue.  The ledger entry stays: no record backs it, so
                # the next reevaluate drops it at every replica and the
                # retry is placed afresh.
                return
            if decision.action == "degrade":
                quality_fps = decision.quality_fps
        record = ClientRecord(
            client=client,
            movie=self.title,
            session=request.session,
            video_endpoint=request.video_endpoint,
            offset=offset,
            rate_fps=DEFAULT_FPS,
            quality_fps=quality_fps,
            paused=False,
            epoch=request.resume_epoch,
            server=self.process,
            updated_at=now,
        )
        state.put_record(record, now)
        server.start_session(record)
        if quality_fps != request.quality_fps:
            # Policy degrade: tell the client its granted quality so the
            # pump expects the thinned stream (and reconnects carry it).
            notice = QualityNotice(
                movie=self.title, quality_fps=quality_fps,
                epoch=request.resume_epoch,
            )
            server.endpoint.send_p2p(
                client, notice, notice.wire_bytes(), sender_name=server.name
            )
        if sync:
            self.sync()  # propagate the new client promptly

    def connect_row(
        self, index: int, request: Optional[ConnectRequest] = None
    ) -> None:
        """Admit flyweight pool row ``index``: one columnar row, no
        session.

        The same deterministic admission as the full path, over the row
        ledger — every replica that sees the open-group request records
        the owner its ledger computes, the owner adds the row.  The row
        starts from the pool's columns, which say what its request said
        (an unstarted row's offset changes only when it finishes), so a
        row the admission queue held comes without its ``request``; an
        admission policy gets one rebuilt from them."""
        cohort = self.ensure_cohort()
        pool = self.pool
        client = pool.client_of(index)
        if self.assign_row(client, index) != self.process or cohort.has_row(index):
            return  # not ours, or a duplicate connect retry
        if self.server.admission_policy is not None:
            request = request or pool.connect_request(index)
            if not self._admission_check(request).admitted:
                return  # the row's connect retry is the queue
            # Degrades admit as-is: flyweight rows share the cohort's
            # closed-form playhead, so there is no per-row quality to
            # grant (the decision still emitted its telemetry).
        cohort.add_row(index, max(1, pool.last_offsets[index]), takeover=False)
        # No prompt state share (unlike the full path): syncing per row
        # would make a connect flood O(N^2) in shared bytes.  The
        # periodic CohortSync covers takeover freshness and corrects
        # ledgers that placed the row elsewhere.

    def _admission_check(self, request: ConnectRequest):
        """Consult the pool admission policy — owner side only.

        Only the deterministically chosen owner calls this, so the
        shared policy's bucket state advances identically no matter
        which replicas saw the connect.  Emits ``server.admission.*``
        telemetry for the QoE scorecards and the SLO monitor.
        """
        server = self.server
        decision = server.admission_policy.decide(self.sim.now, request)
        tel = self.sim.telemetry
        if tel.active:
            fields = dict(
                server=server.name,
                client=str(request.client),
                movie=self.title,
                tclass=decision.tclass,
            )
            if decision.quality_fps is not None:
                fields["quality_fps"] = decision.quality_fps
                fields["base_fps"] = DEFAULT_FPS
            tel.emit(f"server.admission.{decision.action}", **fields)
            tel.count(f"server.admission.{decision.action}")
        return decision

    def assign(self, client: ProcessId, offset: int = 1) -> ProcessId:
        """The owner of a full session's client, extending the record
        ledger when the view does not place the client yet.  Between
        views the ledger holds what the fresh records say (see
        :meth:`reevaluate`), so a retry of a served client gets the
        member serving it.

        ``offset`` (the client's playhead) filters out prefix-only
        replicas whose stored prefix the session would outrun — a
        function of the shared catalog, so the filter is
        replica-deterministic too."""
        view = self.view
        ledger = self.assignment
        existing = ledger.get(client)
        if existing is not None and existing in view.member_set:
            return existing
        chosen = ledger[client] = choose_owner(
            client, ledger,
            prefix.eligible_members(self, view.members, offset),
            view.joined if self.settling else (), self.state.records,
        )
        return chosen

    def assign_row(self, client: ProcessId, index: int) -> ProcessId:
        """:meth:`assign` for flyweight row ``index`` (``client``'s pool
        row), over the row ledger.

        What differs is only what a row genuinely lacks: a per-client
        record (so whether the cached owner really serves it is probed
        from that owner's share) and a bounded lifetime (rows live for
        the whole movie, so prefix-only replicas never take them: their
        closed-form playheads would silently play past the stored
        prefix)."""
        cohort = self.cohort
        ledger = cohort.assignment
        view = self.view
        existing = ledger.owner_at(index)
        if existing is not None and existing in view.member_set:
            if cohort.lists_row(existing, index):
                return existing
            # A connect retry against a placement no fresh share
            # confirms: replicas whose row ledgers counted different
            # loads can leave a row nobody serves.  The record ledger's
            # rule (a fresh record names its owner), evaluated lazily
            # for the one row asked about — drop the cached entry and
            # re-admit from converged load state.
            ledger.pop_at(index)
        members = view.members
        # Read per connect, not cached: place_replica can add a prefix
        # copy mid-run.
        prefixed = self.server.catalog.prefixed_replicas(self.title)
        if prefixed:
            members = [
                member for member in members if member.name not in prefixed
            ] or members
        # Never inside a settle window: row admissions only come from
        # connects, and the queue holds those back while one is open.
        chosen = choose_owner(client, ledger, members)
        ledger.set_at(index, chosen)
        return chosen

    # ==================================================================
    # The movie group: state sharing and re-distribution
    # ==================================================================
    def on_view(self, view: View) -> None:
        if not self.server.running:
            return
        self.view = view
        if view.joined and self.process not in view.joined:
            # State transfer to the newcomers: re-send the last periodic
            # snapshot so they can compute the same assignment and
            # resume clients from the last *shared* offset.  Cohort
            # state transfer rides the same mechanism: the last batched
            # share lists every row (pre-redistribution), so a joiner
            # can learn the cohort assignment and take its share.
            for share in self._last_shares:
                self.multicast(share)
        self.reevaluate()
        if self.cohort is not None:
            self.cohort.on_view(view)

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        if not self.server.running or sender == self.process:
            return
        if isinstance(payload, StateSync):
            self.state.merge_sync(payload, self.sim.now)
            self.reevaluate()
        elif isinstance(payload, CohortSync):
            if self.pool is not None:
                cohort = self.ensure_cohort()
                # A joiner that learned rows mid-settle re-runs the
                # join-regime redistribution, exactly like the record
                # ledger's settle-window recompute over freshly
                # transferred records (idempotent: rows already in
                # their round-robin place do not move again).
                if cohort.on_peer_sync(payload) and self.settling:
                    cohort.on_view(self.view)

    def tick(self) -> None:
        """One sync period: hand off, share, then self-check."""
        prefix.check_handoffs(self)
        self.sync()
        # Periodic self-check: peers' syncs trigger re-evaluation,
        # but a lone replica must still run the orphan repair.
        self.reevaluate()

    def multicast(self, payload: Any) -> None:
        """Share ``payload`` with the movie group if we are (still) an
        installed member, counting its bytes against the paper's
        synchronization-bandwidth budget."""
        if self.handle.is_member:
            size = payload.wire_bytes()
            self.handle.multicast(payload, size)
            self.server.state_sync_bytes_sent += size

    def sync(self) -> None:
        state = self.state
        now = self.sim.now
        own = []
        for _, session in self.sessions():
            record = session.record()
            state.put_record(record, now)
            own.append(record)
        # Periodically echo foreign records too (not only our own
        # sessions): a record whose server lost it mid-churn must still
        # reach new replicas, or the client would be orphaned forever.
        # Peers merge by updated_at, so echoes never mask fresher
        # state.  Echoing only every few periods keeps the paper's
        # <1/1000 synchronization-bandwidth budget.
        self._sync_round += 1
        if self._sync_round % 4 == 0:
            records = tuple(state.records.values())
        else:
            records = tuple(own)
        shares = [StateSync(
            server=self.process,
            movie=self.title,
            records=records,
            departed=state.recently_departed(),
        )]
        if self.handle.is_member:
            if self.cohort is not None:
                shares.append(self.cohort.sync_payload())
            for share in shares:
                self.multicast(share)
            self._last_shares = tuple(shares)

    def reevaluate(self) -> None:
        """Refresh the deterministic assignment; adjust sessions to match.

        The assignment is recomputed from scratch at each new view
        (with the commit-supplied joined set choosing between orphan
        takeover and even re-distribution).  Between views every fresh
        record naming a live member sets its client's owner, and only
        clients no such record places are admitted by the
        least-loaded rule.
        """
        view = self.view
        if view is None:
            return
        server = self.server
        state = self.state
        sessions = server.sessions
        now = self.sim.now
        fresh_age = server.config.freshness_ttl_s
        for _, session in self.sessions():
            state.put_record(session.record(), now)

        new_view = self._placed_view_id != view.view_id
        if new_view or now < self.settle_until:
            # Full deterministic recompute.  During the settle window a
            # joiner that receives the state transfer re-derives exactly
            # the assignment the existing members computed.
            assignment = self.assignment = OwnerMap(rebalance(
                state.records.values(), view.members, view.joined,
                can_serve=prefix.can_serve_rule(self),
            ))
            if new_view:
                self._placed_view_id = view.view_id
                self.settle_until = now + 2.0 * server.config.sync_interval_s
        else:
            assignment = self.assignment
            for client in [c for c in assignment if c not in state.records]:
                del assignment[client]
            for client in sorted(state.records):
                record = state.records[client]
                if (
                    client not in sessions
                    and record.server in view.member_set
                    and now - record.updated_at <= fresh_age
                ):
                    # A fresh record names its owner: what the group
                    # shares overrides whatever this ledger computed
                    # (a connect placed from a different load count, a
                    # prefix handoff naming its successor).  Two servers
                    # streaming one client are the session group's to
                    # resolve, not ours.
                    assignment[client] = record.server
                elif client not in assignment:
                    self.assign(client, record.offset)

        # Orphan repair: a served client's record is refreshed every
        # sync period by its server; a record that has gone stale means
        # nobody is serving the client (e.g. both old and new owner
        # dropped it during back-to-back membership churn).  Re-admit
        # stale clients through the deterministic least-loaded rule.
        # (The row ledger's counterpart is the stale-share probe in
        # assign_row: rows have no per-client record to go stale.)
        for client, record in state.records.items():
            if client in sessions or now - record.updated_at <= fresh_age:
                continue
            assignment.pop(client, None)
            self.assign(client, record.offset)

        me = self.process
        for client, owner in assignment.items():
            if owner == me:
                if client not in sessions:
                    record = state.record_of(client)
                    if record is not None:
                        # Resume "from the offset and transmission rate
                        # that were last heard from the previous server".
                        server.start_session(record, takeover=True)
            elif client in sessions and sessions[client].movie.title == self.title:
                self._shed_session(client)

    def _shed_session(self, client: ProcessId) -> None:
        """End a session the assignment gives to another replica."""
        tel = self.sim.telemetry
        if tel.active and tel.open_span("rebalance", key=str(client)) is None:
            # Ambient first: a rebalance is caused by the view change
            # in flight, not by whatever last happened to this client.
            cause = tel.cause or tel.cause_for(f"client:{client}")
            if cause is None:
                cause = tel.new_cause(f"rebalance.{self.server.name}")
            tel.attribute(f"client:{client}", cause)
            tel.span(
                "rebalance", key=str(client),
                from_server=self.server.name, cause=cause,
            )
        self.server.end_session(client, departed=False)

    # ==================================================================
    # Leaving
    # ==================================================================
    def stop(self) -> None:
        """Cancel everything this replica scheduled.  Its knowledge stays
        readable: observers look at a downed server's last records."""
        if self.cohort is not None:
            self.cohort.stop()
        self.admission.close()

    def release(self) -> None:
        """Leave the movie group gracefully, handing every viewer over.

        A final state share freshens the viewers' offsets *before*
        leaving — the paper's conservative handoff — then sessions and
        rows end without tombstoning their clients, and the group leave
        makes the surviving replicas adopt the orphans through the
        ordinary failure-regime redistribution."""
        if self.handle.is_member:
            self.sync()
        for client in [client for client, _ in self.sessions()]:
            self.server.end_session(client, departed=False)
        if self.cohort is not None:
            for index in self.cohort.rows():
                self.cohort.shed(index)
        self.stop()
        self.handle.leave()
