"""Pluggable replication strategies: ``build(ctx) -> PlacementPlan``.

The menu the experiments compare:

* :class:`StaticPlacement` — an explicit hand-authored map.
* :class:`StaticKWay` — the seed's round-robin k-way spread, now as a
  strategy.  Ignores popularity and failure domains, which is exactly
  why it loses the correlated-crash comparison.
* :class:`PopularityProportional` — replica counts scale with Zipf
  share: the head of the catalog gets ``max_k`` copies, the tail the
  ``k`` floor.  Counts are monotone non-increasing in rank (property
  tested).
* :class:`MarkovAvailability` — per-server steady-state availability
  from the two-state Markov chain (PAPERS.md: "A Reliable Replication
  Strategy for VoD System using Markov Chain"); replicas are added
  greedily, **never two in the same failure domain before all domains
  are used**, until the title's analytic availability target is met.
* :class:`PrefixPlacement` — core servers hold k-way full copies,
  designated edge servers hold only the first ``prefix_s`` seconds of
  every title (PAPERS.md: "An Optimal Prefix Replication Strategy for
  VoD Services"); sessions hand off mid-stream (see
  ``repro.server.server``).

All strategies are deterministic (sorted tie-breaking, no RNG), honour
per-server ``capacity_s`` limits, and guarantee at least ``ctx.k`` full
replicas per title whenever capacity allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ServiceError
from repro.placement.plan import PlacementContext, PlacementPlan, ServerProfile


class PlacementStrategy:
    """Base class: subclasses implement :meth:`build`."""

    name = "abstract"

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        raise NotImplementedError


class _CapacityLedger:
    """Tracks remaining storage seconds per server during a build."""

    def __init__(self, servers: Sequence[ServerProfile]) -> None:
        self._remaining: Dict[str, Optional[float]] = {
            profile.name: profile.capacity_s for profile in servers
        }
        self._used: Dict[str, float] = {profile.name: 0.0 for profile in servers}

    def fits(self, server: str, seconds: float) -> bool:
        remaining = self._remaining[server]
        return remaining is None or remaining >= seconds

    def charge(self, server: str, seconds: float) -> None:
        self._used[server] += seconds
        if self._remaining[server] is not None:
            self._remaining[server] -= seconds

    def used(self, server: str) -> float:
        return self._used[server]


def _pick_replicas(
    ctx: PlacementContext,
    ledger: _CapacityLedger,
    candidates: Sequence[ServerProfile],
    duration: float,
    count: int,
) -> List[str]:
    """``count`` least-loaded candidates with room, ties by name."""
    chosen: List[str] = []
    for profile in sorted(
        candidates, key=lambda p: (ledger.used(p.name), p.name)
    ):
        if len(chosen) >= count:
            break
        if ledger.fits(profile.name, duration):
            chosen.append(profile.name)
            ledger.charge(profile.name, duration)
    return chosen


@dataclass
class StaticPlacement(PlacementStrategy):
    """An explicit ``{title: [servers]}`` (or ``{server: [titles]}``
    via :meth:`from_server_movies`) map, verbatim."""

    assignments: Mapping[str, Sequence[str]] = field(default_factory=dict)
    name: str = "static-explicit"

    @classmethod
    def from_server_movies(
        cls, server_movies: Mapping[str, Iterable[str]]
    ) -> "StaticPlacement":
        """Build from the per-server ``{server: [titles]}`` point of view."""
        assignments: Dict[str, List[str]] = {}
        for server, titles in server_movies.items():
            for title in titles:
                assignments.setdefault(title, []).append(server)
        return cls(assignments=assignments)

    def as_plan(self) -> PlacementPlan:
        return PlacementPlan.static(self.assignments, strategy=self.name)

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        known = {profile.name for profile in ctx.servers}
        for title, servers in self.assignments.items():
            if title not in ctx.catalog:
                raise ServiceError(f"static plan places unknown title {title!r}")
            for server in servers:
                if server not in known:
                    raise ServiceError(
                        f"static plan names unknown server {server!r}"
                    )
        plan = self.as_plan()
        plan.k = ctx.k
        return plan


@dataclass
class StaticKWay(PlacementStrategy):
    """Round-robin k-way spread: title ``i`` goes to servers
    ``i..i+k-1`` (mod n) in sorted server order.  ``k=None`` takes the
    context's fault-tolerance floor; ``k=len(servers)`` is the seed's
    full replication."""

    k: Optional[int] = None
    name: str = "static"

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        servers = sorted(ctx.servers, key=lambda p: p.name)
        k = ctx.k if self.k is None else self.k
        if not 1 <= k <= len(servers):
            raise ServiceError(
                f"need 1 <= k <= {len(servers)} servers, got k={k}"
            )
        ledger = _CapacityLedger(servers)
        plan = PlacementPlan(strategy=self.name, k=k)
        for position, title in enumerate(ctx.titles):
            duration = ctx.duration_of(title)
            placed = 0
            # Walk the ring from the title's home position, skipping
            # full servers, until k replicas land (or capacity is out).
            for offset in range(len(servers)):
                if placed >= k:
                    break
                profile = servers[(position + offset) % len(servers)]
                if ledger.fits(profile.name, duration):
                    ledger.charge(profile.name, duration)
                    plan.place(title, profile.name)
                    placed += 1
            if placed == 0:
                raise ServiceError(
                    f"no capacity anywhere for {title!r}"
                )
        return plan


@dataclass
class PopularityProportional(PlacementStrategy):
    """Replica counts proportional to Zipf share.

    Rank ``r`` gets ``k + round((max_k - k) * w_r / w_1)`` full
    replicas, where ``w_r = r**-alpha`` — a monotone non-increasing
    function of rank, so a hotter title never has fewer copies than a
    colder one.  Replicas land on the least-loaded servers
    (storage-wise) for balance.
    """

    max_k: Optional[int] = None
    name: str = "popularity"

    def replica_counts(self, ctx: PlacementContext) -> Dict[str, int]:
        n_servers = len(ctx.servers)
        max_k = n_servers if self.max_k is None else min(self.max_k, n_servers)
        if max_k < ctx.k:
            raise ServiceError(f"max_k={max_k} below the k={ctx.k} floor")
        span = max_k - ctx.k
        counts: Dict[str, int] = {}
        for rank, title in enumerate(ctx.titles, start=1):
            weight = rank ** (-ctx.alpha)  # w_1 == 1.0
            counts[title] = ctx.k + int(round(span * weight))
        return counts

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        counts = self.replica_counts(ctx)
        ledger = _CapacityLedger(ctx.servers)
        plan = PlacementPlan(strategy=self.name, k=ctx.k)
        for title in ctx.titles:
            duration = ctx.duration_of(title)
            chosen = _pick_replicas(
                ctx, ledger, ctx.servers, duration, counts[title]
            )
            if not chosen:
                raise ServiceError(f"no capacity anywhere for {title!r}")
            for server in chosen:
                plan.place(title, server)
        return plan


@dataclass
class MarkovAvailability(PlacementStrategy):
    """Availability-driven replication with failure-domain diversity.

    Each server's steady-state availability ``a = repair/(fail+repair)``
    comes from its two-state Markov chain.  For each title (in rank
    order) replicas are added greedily — preferring servers in *unused*
    failure domains, then highest availability, then lowest storage
    load — until ``P(all replicas down) = prod(1 - a_s)`` drops below
    the title's unavailability budget and the ``k`` floor is met.

    Hot titles get tighter budgets: the base ``target`` is scaled by
    the title's Zipf share relative to the uniform share, so the head
    of the catalog picks up extra replicas.  The domain-first ordering
    is what beats :class:`StaticKWay` under a correlated (whole-rack)
    crash: k-way happily lands both copies of some titles in one rack.
    """

    target: float = 0.999
    max_k: Optional[int] = None
    name: str = "markov"

    def required_unavailability(
        self, ctx: PlacementContext, title: str
    ) -> float:
        shares = ctx.shares()
        uniform = 1.0 / len(ctx.titles)
        boost = max(1.0, shares[title] / uniform)
        return (1.0 - self.target) / boost

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        ledger = _CapacityLedger(ctx.servers)
        plan = PlacementPlan(strategy=self.name, k=ctx.k)
        max_k = len(ctx.servers) if self.max_k is None else self.max_k
        for title in ctx.titles:
            duration = ctx.duration_of(title)
            budget = self.required_unavailability(ctx, title)
            chosen: List[str] = []
            used_domains: set = set()
            unavailable = 1.0
            while len(chosen) < max_k:
                candidates = [
                    profile
                    for profile in ctx.servers
                    if profile.name not in chosen
                    and ledger.fits(profile.name, duration)
                ]
                if not candidates:
                    break
                candidates.sort(
                    key=lambda p: (
                        p.domain in used_domains,  # fresh domains first
                        -p.availability,
                        ledger.used(p.name),
                        p.name,
                    )
                )
                profile = candidates[0]
                chosen.append(profile.name)
                used_domains.add(profile.domain)
                ledger.charge(profile.name, duration)
                unavailable *= 1.0 - profile.availability
                if len(chosen) >= ctx.k and unavailable <= budget:
                    break
            if not chosen:
                raise ServiceError(f"no capacity anywhere for {title!r}")
            for server in chosen:
                plan.place(title, server)
        return plan


@dataclass
class PrefixPlacement(PlacementStrategy):
    """Core k-way full copies plus prefix caches on edge servers.

    Servers whose profile has ``edge=True`` store only the first
    ``prefix_s`` seconds of each title (all titles by default; the most
    popular ``head_fraction`` of the catalog otherwise).  Full copies
    go k-way round-robin over the non-edge core.  Edge admission and
    the mid-stream handoff are the server's job — the plan only says
    who stores what.
    """

    prefix_s: float = 60.0
    head_fraction: float = 1.0
    core_k: Optional[int] = None
    name: str = "prefix"

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        edges = [profile for profile in ctx.servers if profile.edge]
        core = [profile for profile in ctx.servers if not profile.edge]
        if not core:
            raise ServiceError("prefix placement needs at least one core server")
        core_k = self.core_k if self.core_k is not None else min(ctx.k, len(core))
        core_ctx = PlacementContext(
            catalog=ctx.catalog,
            servers=core,
            k=min(ctx.k, len(core)),
            alpha=ctx.alpha,
            titles=ctx.titles,
        )
        plan = StaticKWay(k=core_k).build(core_ctx)
        plan.strategy = self.name
        plan.k = core_ctx.k
        ledger = _CapacityLedger(edges)
        head = max(1, int(round(self.head_fraction * len(ctx.titles))))
        for title in list(ctx.titles)[:head]:
            stored = min(self.prefix_s, ctx.duration_of(title))
            for profile in sorted(edges, key=lambda p: p.name):
                if ledger.fits(profile.name, stored):
                    ledger.charge(profile.name, stored)
                    plan.place(title, profile.name, prefix_s=self.prefix_s)
        return plan


#: CLI name -> zero-config strategy factory, for ``repro-vod placement``.
STRATEGIES: Dict[str, type] = {
    "static": StaticKWay,
    "popularity": PopularityProportional,
    "markov": MarkovAvailability,
    "prefix": PrefixPlacement,
}


def make_strategy(name: str, **kwargs: object) -> PlacementStrategy:
    """Instantiate a strategy from its CLI name."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ServiceError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    return factory(**kwargs)
