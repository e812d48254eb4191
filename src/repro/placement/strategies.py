"""Pluggable replication strategies: ``build(ctx) -> PlacementPlan``.

The menu the experiments compare:

* :class:`StaticPlacement` — an explicit hand-authored map.
* :class:`StaticKWay` — the seed's round-robin k-way spread, now as a
  strategy.  Ignores popularity and failure domains, which is exactly
  why it loses the correlated-crash comparison.
* :class:`PopularityProportional` — replica counts scale with Zipf
  share: the head of the catalog gets a copy on every server, the tail
  the ``k`` floor.  Counts are monotone non-increasing in rank (property
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

All strategies are deterministic (sorted tie-breaking, no RNG) and
place at least ``ctx.k`` full replicas per title.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ServiceError
from repro.placement.plan import PlacementContext, PlacementPlan, ServerProfile

#: The base availability a title must reach under
#: :class:`MarkovAvailability`, before the boost for hot titles.
AVAILABILITY_TARGET = 0.999


class PlacementStrategy:
    """Base class: subclasses implement :meth:`build`."""

    name = "abstract"

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        raise NotImplementedError


def _pick_replicas(
    used: Dict[str, float],
    candidates: Sequence[ServerProfile],
    duration: float,
    count: int,
) -> List[str]:
    """The ``count`` candidates storing the fewest seconds (``used``),
    ties by name; charges them ``duration``."""
    chosen = [
        profile.name
        for profile in sorted(candidates, key=lambda p: (used[p.name], p.name))
    ][:count]
    for name in chosen:
        used[name] += duration
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
        plan = PlacementPlan(strategy=self.name, k=k)
        for position, title in enumerate(ctx.titles):
            for offset in range(k):
                plan.place(title, servers[(position + offset) % len(servers)].name)
        return plan


@dataclass
class PopularityProportional(PlacementStrategy):
    """Replica counts proportional to Zipf share.

    Rank ``r`` gets ``k + round((n - k) * w_r / w_1)`` full replicas
    over ``n`` servers, where ``w_r = r**-alpha`` — a monotone
    non-increasing function of rank, so a hotter title never has fewer
    copies than a colder one, and the head of the catalog is on every
    server.  Replicas land on the least-loaded servers (storage-wise)
    for balance.
    """

    name: str = "popularity"

    def replica_counts(self, ctx: PlacementContext) -> Dict[str, int]:
        n_servers = len(ctx.servers)
        if n_servers < ctx.k:
            raise ServiceError(
                f"{n_servers} servers are below the k={ctx.k} floor"
            )
        span = n_servers - ctx.k
        counts: Dict[str, int] = {}
        for rank, title in enumerate(ctx.titles, start=1):
            weight = rank ** (-ctx.alpha)  # w_1 == 1.0
            counts[title] = ctx.k + int(round(span * weight))
        return counts

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        counts = self.replica_counts(ctx)
        used = {profile.name: 0.0 for profile in ctx.servers}
        plan = PlacementPlan(strategy=self.name, k=ctx.k)
        for title in ctx.titles:
            for server in _pick_replicas(
                used, ctx.servers, ctx.duration_of(title), counts[title]
            ):
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

    Hot titles get tighter budgets: the base :data:`AVAILABILITY_TARGET`
    is scaled by the title's Zipf share relative to the uniform share,
    so the head of the catalog picks up extra replicas.  The
    domain-first ordering is what beats :class:`StaticKWay` under a
    correlated (whole-rack) crash: k-way happily lands both copies of
    some titles in one rack.
    """

    name: str = "markov"

    def required_unavailability(
        self, ctx: PlacementContext, title: str
    ) -> float:
        shares = ctx.shares()
        uniform = 1.0 / len(ctx.titles)
        boost = max(1.0, shares[title] / uniform)
        return (1.0 - AVAILABILITY_TARGET) / boost

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        used = {profile.name: 0.0 for profile in ctx.servers}
        plan = PlacementPlan(strategy=self.name, k=ctx.k)
        for title in ctx.titles:
            duration = ctx.duration_of(title)
            budget = self.required_unavailability(ctx, title)
            chosen: List[str] = []
            used_domains: set = set()
            unavailable = 1.0
            while len(chosen) < len(ctx.servers):
                profile = min(
                    (p for p in ctx.servers if p.name not in chosen),
                    key=lambda p: (
                        p.domain in used_domains,  # fresh domains first
                        -p.availability,
                        used[p.name],
                        p.name,
                    ),
                )
                chosen.append(profile.name)
                used_domains.add(profile.domain)
                used[profile.name] += duration
                unavailable *= 1.0 - profile.availability
                if len(chosen) >= ctx.k and unavailable <= budget:
                    break
            for server in chosen:
                plan.place(title, server)
        return plan


@dataclass
class PrefixPlacement(PlacementStrategy):
    """Core k-way full copies plus prefix caches on edge servers.

    Servers whose profile has ``edge=True`` store only the first
    ``prefix_s`` seconds of every title.  Full copies go k-way
    round-robin over the non-edge core.  Edge admission and the
    mid-stream handoff are the server's job — the plan only says who
    stores what.
    """

    prefix_s: float = 60.0
    name: str = "prefix"

    def build(self, ctx: PlacementContext) -> PlacementPlan:
        edges = [profile for profile in ctx.servers if profile.edge]
        core = [profile for profile in ctx.servers if not profile.edge]
        if not core:
            raise ServiceError("prefix placement needs at least one core server")
        core_ctx = PlacementContext(
            catalog=ctx.catalog,
            servers=core,
            k=min(ctx.k, len(core)),
            alpha=ctx.alpha,
            titles=ctx.titles,
        )
        plan = StaticKWay().build(core_ctx)
        plan.strategy = self.name
        for title in ctx.titles:
            for profile in sorted(edges, key=lambda p: p.name):
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
