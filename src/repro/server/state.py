"""Shared client state and the deterministic re-distribution rule.

Every serving server multicasts its clients' records in the movie group
twice a second; every replica merges what it hears into a
:class:`MovieState`.  When the movie-group view changes (crash, detach,
or a new server brought up), every member runs :func:`rebalance` on the
same inputs — the sorted record set and the sorted view membership — and
therefore reaches the same assignment without any extra agreement round.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import compress
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.gcs.view import ProcessId
from repro.service.protocol import ClientRecord, StateSync

#: How long a departure tombstone suppresses stale records (seconds).
TOMBSTONE_TTL = 5.0


@dataclass
class MovieState:
    """One replica's knowledge about the clients watching one movie."""

    movie: str
    records: Dict[ProcessId, ClientRecord] = field(default_factory=dict)
    _departed_at: Dict[ProcessId, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def put_record(self, record: ClientRecord, now: float) -> bool:
        """Insert/refresh a record; returns True if it was accepted."""
        departed_at = self._departed_at.get(record.client)
        if departed_at is not None:
            if record.updated_at <= departed_at:
                return False
            del self._departed_at[record.client]
        existing = self.records.get(record.client)
        if existing is not None and existing.updated_at > record.updated_at:
            return False
        self.records[record.client] = record
        return True

    def merge_sync(self, sync: StateSync, now: float) -> None:
        for record in sync.records:
            self.put_record(record, now)
        for client in sync.departed:
            self.mark_departed(client, now)
        self._expire_tombstones(now)

    def mark_departed(self, client: ProcessId, now: float) -> None:
        record = self.records.get(client)
        if record is not None and record.updated_at > now:
            return
        self.records.pop(client, None)
        self._departed_at[client] = now

    def _expire_tombstones(self, now: float) -> None:
        expired = [
            client
            for client, at in self._departed_at.items()
            if now - at > TOMBSTONE_TTL
        ]
        for client in expired:
            del self._departed_at[client]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def record_of(self, client: ProcessId) -> Optional[ClientRecord]:
        return self.records.get(client)

    def clients(self) -> List[ProcessId]:
        return sorted(self.records)

    def recently_departed(self) -> Tuple[ProcessId, ...]:
        return tuple(sorted(self._departed_at))

    def __len__(self) -> int:
        return len(self.records)


class OwnerMap:
    """A client -> server map that maintains per-server load counts.

    The deterministic admission rule is least-loaded-lowest-id; naively
    recomputing the load by scanning the whole map makes admitting N
    clients O(N^2), which is exactly what the flyweight path exists to
    avoid.  This map keeps the counts incrementally, so an admission is
    O(live servers) regardless of population.  It is the record ledger
    (full sessions); :class:`RowLedger` is the cohort's row ledger, the
    same map stored by pool row."""

    __slots__ = ("_map", "load")

    def __init__(self, owners: Mapping[ProcessId, ProcessId] = ()) -> None:
        self._map: Dict[ProcessId, ProcessId] = dict(owners)
        self.load: Dict[ProcessId, int] = dict(Counter(self._map.values()))

    def __setitem__(self, client: ProcessId, server: ProcessId) -> None:
        previous = self._map.get(client)
        if previous is not None:
            self.load[previous] -= 1
        self._map[client] = server
        self.load[server] = self.load.get(server, 0) + 1

    def __delitem__(self, client: ProcessId) -> None:
        server = self._map.pop(client)
        self.load[server] -= 1

    def pop(self, client: ProcessId, default: object = None):
        if client in self._map:
            server = self._map.pop(client)
            self.load[server] -= 1
            return server
        return default

    def get(self, client: ProcessId, default: object = None):
        return self._map.get(client, default)

    def items(self):
        return self._map.items()

    def __getitem__(self, client: ProcessId) -> ProcessId:
        return self._map[client]

    def __contains__(self, client: object) -> bool:
        return client in self._map

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __bool__(self) -> bool:
        return bool(self._map)

    def load_of(self, server: ProcessId) -> int:
        return self.load.get(server, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OwnerMap({self._map!r})"


class RowLedger:
    """:class:`OwnerMap` for a flyweight pool's rows, stored by pool row.

    Every replica keeps one, so a row's entry is paid once per replica:
    here it is two bytes, the owner's slot in an ``array("H")`` indexed
    by pool row (0 = no owner), beside the slot table and the per-server
    load counts :func:`least_loaded` reads.  The ``*_at`` methods take
    the row index the caller already holds; the client-keyed methods
    make the ledger the same mapping as an :class:`OwnerMap`, which is
    what :func:`choose_owner` and :func:`rebalance` read.  Iteration
    runs in pool-row order, not insertion order."""

    __slots__ = ("_owner", "_servers", "_slot", "_load", "_count", "_pool",
                 "load_of")

    def __init__(self, pool) -> None:
        # Imported here, as in the cohort that makes the ledger: a run
        # without flyweight rows should not map the extension module.
        from array import array

        self._pool = pool
        self._owner = array("H", bytes(2 * len(pool)))
        # Slot -> server and back; slot 0 stands for "no owner".
        self._servers: List[Optional[ProcessId]] = [None]
        self._slot: Dict[ProcessId, int] = {}
        self._load: Dict[ProcessId, int] = defaultdict(int)
        #: A server's row count: the dict's own lookup (0 for a server
        #: it has not seen), so admission pays no Python frame per
        #: member.
        self.load_of: Callable[[ProcessId], int] = self._load.__getitem__
        self._count = 0

    # Row-indexed access ------------------------------------------------
    def owner_at(self, index: int) -> Optional[ProcessId]:
        owner = self._owner
        return self._servers[owner[index]] if index < len(owner) else None

    def set_at(self, index: int, server: ProcessId) -> None:
        owner = self._owner
        if index >= len(owner):  # the pool grew after the ledger began
            owner.frombytes(bytes(2 * (index + 1 - len(owner))))
        slot = self._slot.get(server)
        if slot is None:
            slot = self._slot[server] = len(self._servers)
            self._servers.append(server)
        previous = owner[index]
        if previous:
            self._load[self._servers[previous]] -= 1
        else:
            self._count += 1
        owner[index] = slot
        self._load[server] += 1

    def pop_at(self, index: int) -> Optional[ProcessId]:
        owner = self._owner
        previous = owner[index] if index < len(owner) else 0
        if not previous:
            return None
        owner[index] = 0
        server = self._servers[previous]
        self._load[server] -= 1
        self._count -= 1
        return server

    def _rows(self):
        owner = self._owner
        return compress(range(len(owner)), owner)

    # The OwnerMap surface, keyed by client ---------------------------
    def __getitem__(self, client: ProcessId) -> ProcessId:
        try:
            slot = self._owner[self._pool.row_of(client)]
        except IndexError:  # a row the pool added after the column grew
            slot = 0
        if not slot:
            raise KeyError(client)
        return self._servers[slot]

    def get(self, client: ProcessId, default: object = None):
        try:
            return self[client]
        except KeyError:
            return default

    def __setitem__(self, client: ProcessId, server: ProcessId) -> None:
        self.set_at(self._pool.row_of(client), server)

    def pop(self, client: ProcessId, default: object = None):
        server = self.get(client)
        if server is None:
            return default
        self.pop_at(self._pool.row_of(client))
        return server

    def __delitem__(self, client: ProcessId) -> None:
        if self.pop(client) is None:
            raise KeyError(client)

    def items(self):
        client_of = self._pool.client_of
        servers = self._servers
        owner = self._owner
        return ((client_of(index), servers[owner[index]]) for index in self._rows())

    def __contains__(self, client: object) -> bool:
        return self.get(client) is not None

    def __iter__(self):
        return map(self._pool.client_of, self._rows())

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowLedger({dict(self.items())!r})"


# ----------------------------------------------------------------------
# The placement rules.  Each exists once; both ledgers go through them.
# ----------------------------------------------------------------------
def join_regime_order(
    members: Sequence[ProcessId], joined: Sequence[ProcessId]
) -> List[ProcessId]:
    """Server order for the even re-distribution: newcomers first."""
    live = sorted(set(members))
    newcomers = sorted(set(joined) & set(live))
    return newcomers + [server for server in live if server not in newcomers]


def least_loaded(
    members: Sequence[ProcessId], load_of: Callable[[ProcessId], int]
) -> ProcessId:
    """The member carrying the fewest clients, ties to the lowest id."""
    best = None
    best_load = 0
    for member in members:
        load = load_of(member)
        if (
            best is None
            or load < best_load
            or (load == best_load and member < best)
        ):
            best, best_load = member, load
    if best is None:
        raise ValueError("least_loaded() of no members")
    return best


def choose_owner(
    client: ProcessId,
    ledger: Union[OwnerMap, RowLedger],
    members: Sequence[ProcessId],
    settling_joiners: Sequence[ProcessId] = (),
    also_known: Iterable[ProcessId] = (),
) -> ProcessId:
    """Deterministic admission: which of ``members`` serves a newcomer.

    Every replica that sees the connect request runs the same rule over
    (converging) ledger state, so they agree on who serves the newcomer
    without an explicit agreement round.  Normally that is the
    least-loaded eligible member.  While the view is still settling
    after a join (``settling_joiners`` non-empty) the newcomer goes
    where the settle-window full recompute (:func:`rebalance`'s join
    regime, round-robin newcomers-first over every client the replica
    knows: the ledger plus ``also_known``) will put it, or the client
    bounces between the two answers.
    """
    if settling_joiners:
        known = sorted({client}.union(ledger, also_known))
        order = join_regime_order(members, settling_joiners)
        return order[known.index(client) % len(order)]
    return least_loaded(members, ledger.load_of)


def rebalance(
    ledger: Union[
        Iterable[ClientRecord], Mapping[ProcessId, ProcessId], OwnerMap, RowLedger
    ],
    servers: Sequence[ProcessId],
    joined: Sequence[ProcessId] = (),
    can_serve: Optional[Callable[[ProcessId, ProcessId], bool]] = None,
) -> Dict[ProcessId, ProcessId]:
    """Deterministic client re-distribution at a membership change.

    ``ledger`` is what the replica knows about who serves whom, in
    either of its shapes: the merged :class:`ClientRecord` set (full
    sessions) or a client -> server map (the cohort's row ledger).

    Two regimes, matching the paper's Section 5.2:

    * **A server joined** ("new servers are brought up to alleviate the
      load"): clients are evenly re-distributed round-robin over the
      live servers, *newcomers first*, so a freshly started server picks
      up load immediately — this is why the paper's single client
      migrates to the new server at load-balance time.
    * **Only failures/leaves** ("the remaining servers take over the
      clients of the crashed server"): clients of surviving servers stay
      put; orphans go to the least-loaded survivors.

    ``can_serve(client, server)`` restricts which servers may carry a
    given client — e.g. a prefix-only replica cannot serve a playhead
    beyond its stored prefix (see ``repro.placement``).  It must be a
    pure function of state every replica shares (the catalog and the
    client's shared record), or replicas would disagree.  When no
    eligible server exists the restriction is waived for that client: a
    degraded stream beats an orphaned client.

    All replicas call this with the same view (and the commit-supplied
    ``joined`` set) and converging ledgers, so they agree without an
    extra protocol round.  Returns a client -> server mapping in the
    order the moves must be applied: sorted by client (survivors'
    clients, which do not move, ahead of orphans).
    """
    live = sorted(set(servers))
    if not live:
        return {}
    if not hasattr(ledger, "items"):
        ledger = {record.client: record.server for record in ledger}
    clients = sorted(ledger)

    def eligible(client: ProcessId, pool: List[ProcessId]) -> List[ProcessId]:
        if can_serve is None:
            return pool
        allowed = [server for server in pool if can_serve(client, server)]
        return allowed or pool

    if set(joined) & set(live):
        order = join_regime_order(live, joined)
        if can_serve is None:
            # The common case (and every cohort row): no per-client
            # closure call on a 20k-row ledger.
            return {
                client: order[position % len(order)]
                for position, client in enumerate(clients)
            }
        assignment = {}
        for position, client in enumerate(clients):
            pool = eligible(client, order)
            assignment[client] = pool[position % len(pool)]
        return assignment

    assignment: Dict[ProcessId, ProcessId] = {}
    load = dict.fromkeys(live, 0)
    orphans: List[ProcessId] = []
    for client in clients:
        owner = ledger[client]
        if owner in load and (can_serve is None or can_serve(client, owner)):
            assignment[client] = owner
            load[owner] += 1
        else:
            orphans.append(client)
    for client in orphans:
        target = least_loaded(eligible(client, live), load.__getitem__)
        assignment[client] = target
        load[target] += 1
    return assignment
