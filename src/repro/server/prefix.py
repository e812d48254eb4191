"""What a prefix-only copy changes about a movie group's placement.

A replica may store only the first seconds of a title (an edge/prefix
cache, see :mod:`repro.placement`).  That restricts *which* members the
placement rules of :mod:`repro.server.state` may choose for a client —
never how they choose — and adds one protocol step: a session about to
outrun the stored prefix is handed, mid-stream, to a replica that can
carry it further.  Every function takes the
:class:`~repro.server.replica.MovieReplica` it acts for.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.gcs.view import ProcessId
from repro.server.state import least_loaded
from repro.service.protocol import ClientRecord, StateSync

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.replica import MovieReplica


def carry_rule(
    replica: "MovieReplica",
) -> Optional[Callable[[int, ProcessId], bool]]:
    """``can_carry(offset, server)``: whether ``server``'s stored copy
    can carry a session at ``offset`` past the handoff margin — two sync
    periods of playback, so a successor adopts the session before the
    prefix runs dry.  None when no copy of the title is prefix-limited
    (the common case: the placement rules then run unrestricted and
    allocation-free).  A pure function of the shared catalog, so every
    replica applies the same restriction."""
    server = replica.server
    catalog = server.catalog
    title = replica.title
    if not catalog.prefixed_replicas(title):
        return None
    fps = catalog.movie(title).fps
    margin = max(1, int(2.0 * server.config.sync_interval_s * fps))

    def can_carry(offset: int, member: ProcessId) -> bool:
        limit = catalog.prefix_frames(title, member.name)
        return limit is None or offset < limit - margin

    return can_carry


def eligible_members(
    replica: "MovieReplica", members: Sequence[ProcessId], offset: int
) -> Sequence[ProcessId]:
    """Members that can carry a session at ``offset``.  Falls back to
    all members when nothing qualifies — a degraded stream beats an
    orphaned client."""
    can_carry = carry_rule(replica)
    if can_carry is None:
        return members
    return [m for m in members if can_carry(offset, m)] or members


def can_serve_rule(
    replica: "MovieReplica",
) -> Optional[Callable[[ProcessId, ProcessId], bool]]:
    """The ``can_serve`` predicate for :func:`rebalance` (each client
    judged at its shared record's offset), or None."""
    can_carry = carry_rule(replica)
    if can_carry is None:
        return None
    records = replica.state.records
    return lambda client, member: can_carry(records[client].offset, member)


def check_handoffs(replica: "MovieReplica") -> None:
    """Hand sessions approaching our stored prefix boundary to a
    full replica, mid-stream and glitch-free.

    For each such session we rewrite its record's ``server`` field
    to the chosen successor (the least-loaded eligible replica),
    multicast the rewritten records immediately, and end the local
    session.  Receivers need no handoff step: like any fresh record,
    the rewritten one names its owner in every replica's ledger
    (:meth:`~repro.server.replica.MovieReplica.reevaluate`), so the
    successor adopts without waiting for the record to go stale.  The
    margin is the headroom that keeps the viewer streaming through the
    switch."""
    server = replica.server
    sim = replica.sim
    view = replica.view
    if view is None or server.catalog.prefix_of(replica.title, server.name) is None:
        return
    can_carry = carry_rule(replica)
    assignment = replica.assignment
    handed_off: List[ClientRecord] = []
    for client, session in list(replica.sessions()):
        position = session.position
        if can_carry(position, replica.process):
            continue
        eligible = [
            member for member in view.members
            if member != replica.process and can_carry(position, member)
        ]
        if not eligible:
            # No live replica can carry the session further than we
            # can: keep streaming past the stored prefix rather
            # than strand the viewer (see docs/PLACEMENT.md).
            continue
        successor = least_loaded(eligible, assignment.load_of)
        record = replace(session.record(), server=successor, updated_at=sim.now)
        tel = sim.telemetry
        if tel.active:
            cause = tel.cause_for(f"client:{client}")
            if cause is None:
                cause = tel.new_cause(f"prefix.{server.name}")
            tel.attribute(f"client:{client}", cause)
            tel.span(
                "placement.handoff", key=str(client),
                from_server=server.name, to_server=successor.name,
                movie=replica.title, offset=record.offset, cause=cause,
            )
            tel.emit(
                "placement.prefix.handoff", server=server.name,
                to_server=successor.name, client=str(client),
                movie=replica.title, offset=record.offset, cause=cause,
            )
        server.end_session(client, departed=False)
        replica.state.put_record(record, sim.now)
        assignment[client] = successor
        handed_off.append(record)
    if handed_off:
        replica.multicast(StateSync(
            server=replica.process,
            movie=replica.title,
            records=tuple(handed_off),
            departed=replica.state.recently_departed(),
        ))
