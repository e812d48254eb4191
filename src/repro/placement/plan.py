"""The placement data model: who stores which titles, and how much.

A :class:`PlacementPlan` is the *derived* replica map of a deployment:
scenarios declare a catalog plus a strategy (see
:mod:`repro.placement.strategies`) and the plan — title -> replica set,
with optional prefix-only entries — falls out.  The plan is pure data:
building one touches no simulator state, so strategies can be compared
offline (storage cost, analytic availability) before a single frame is
streamed.  ``plan.apply(catalog)`` materialises it onto a
:class:`~repro.media.catalog.MovieCatalog`, and
:meth:`~repro.service.deployment.Deployment.from_placement` builds a
running service from it.

The model distinguishes **full replicas** from **prefix replicas**
(servers holding only the first ``prefix_s`` seconds of a title — the
proxy/edge caching of "An Optimal Prefix Replication Strategy for VoD
Services").  Only full replicas count toward the paper's "replicated k
times tolerates k-1 failures" contract; prefix replicas absorb connect
floods and hand sessions off mid-stream (see docs/PLACEMENT.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.media.catalog import MovieCatalog


@dataclass(frozen=True)
class ServerProfile:
    """What a strategy knows about one (actual or planned) server.

    ``fail_rate`` / ``repair_rate`` parameterise the two-state Markov
    chain (up -> down at ``fail_rate``, down -> up at ``repair_rate``,
    both per hour) whose steady state is the server's availability.
    ``domain`` names the correlated-failure domain (rack, site, power
    feed): a correlated crash takes down a whole domain at once, so
    availability-driven strategies spread replicas across domains.
    ``edge`` marks prefix-cache candidates.
    """

    name: str
    domain: str = "default"
    fail_rate: float = 0.01
    repair_rate: float = 1.0
    edge: bool = False

    @property
    def availability(self) -> float:
        """Steady-state P(up) of the up/down Markov chain."""
        total = self.fail_rate + self.repair_rate
        if total <= 0:
            return 1.0
        return self.repair_rate / total


@dataclass
class PlacementContext:
    """Everything a strategy needs to build a plan.

    ``titles`` is the catalog in **popularity rank order** (rank 1
    first); it defaults to ``catalog.titles()`` — sorted order — which
    matches rank for catalogs built by :func:`build_zipf_catalog`
    (zero-padded names).  ``alpha`` is the Zipf exponent the request
    mix is expected to follow; ``k`` is the fault-tolerance floor every
    strategy must honour where capacity allows.
    """

    catalog: "MovieCatalog"
    servers: Sequence[ServerProfile]
    k: int = 2
    alpha: float = 0.8
    titles: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if self.titles is None:
            self.titles = self.catalog.titles()
        if not self.titles:
            raise ServiceError("placement context has an empty catalog")
        if not self.servers:
            raise ServiceError("placement context has no servers")
        if not 1 <= self.k:
            raise ServiceError(f"need k >= 1, got k={self.k}")
        names = [profile.name for profile in self.servers]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate server names in context: {names}")

    def shares(self) -> Dict[str, float]:
        """Analytic Zipf request share per title (rank order)."""
        weights = [
            1.0 / (rank ** self.alpha)
            for rank in range(1, len(self.titles) + 1)
        ]
        total = sum(weights)
        return {
            title: weight / total
            for title, weight in zip(self.titles, weights)
        }

    def duration_of(self, title: str) -> float:
        return self.catalog.movie(title).duration_s

    def profile(self, name: str) -> ServerProfile:
        for profile in self.servers:
            if profile.name == name:
                return profile
        raise ServiceError(f"no server profile named {name!r}")


@dataclass
class PlacementPlan:
    """title -> {server name -> prefix seconds (None = full copy)}.

    The canonical derived replica map.  Use :meth:`apply` to write it
    onto a catalog, and the query helpers for storage/availability
    accounting.
    """

    entries: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    strategy: str = "static"
    k: int = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def static(
        cls,
        assignments: Mapping[str, Iterable[str]],
        strategy: str = "static",
        k: int = 1,
    ) -> "PlacementPlan":
        """An explicit hand-authored title -> full-replica-set map."""
        entries = {
            title: {server: None for server in servers}
            for title, servers in assignments.items()
        }
        return cls(entries=entries, strategy=strategy, k=k)

    def place(
        self, title: str, server: str, prefix_s: Optional[float] = None
    ) -> None:
        self.entries.setdefault(title, {})[server] = prefix_s

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def titles(self) -> List[str]:
        return sorted(self.entries)

    def servers(self) -> List[str]:
        names = set()
        for holders in self.entries.values():
            names.update(holders)
        return sorted(names)

    def replicas(self, title: str) -> List[str]:
        """Servers holding a **full** copy of ``title`` (sorted)."""
        holders = self.entries.get(title, {})
        return sorted(
            server for server, prefix in holders.items() if prefix is None
        )

    def prefix_holders(self, title: str) -> Dict[str, float]:
        holders = self.entries.get(title, {})
        return {
            server: prefix
            for server, prefix in holders.items()
            if prefix is not None
        }

    def replication_degree(self, title: str) -> int:
        return len(self.replicas(title))

    def min_replication(self) -> int:
        if not self.entries:
            return 0
        return min(self.replication_degree(title) for title in self.entries)

    def movies_for(self, server: str) -> Optional[List[Tuple[str, Optional[float]]]]:
        """``(title, prefix_s)`` pairs stored at ``server`` (sorted),
        or None when the plan does not know the server at all — the
        deployment then falls back to its ``replicate_all`` default."""
        if server not in self.servers():
            return None
        return sorted(
            (title, holders[server])
            for title, holders in self.entries.items()
            if server in holders
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_s(self, catalog: "MovieCatalog") -> Dict[str, float]:
        """Stored video seconds per server (prefixes count partially)."""
        stored: Dict[str, float] = {}
        for title, holders in self.entries.items():
            duration = catalog.movie(title).duration_s
            for server, prefix in holders.items():
                seconds = duration if prefix is None else min(prefix, duration)
                stored[server] = stored.get(server, 0.0) + seconds
        return stored

    def storage_copies(self, catalog: "MovieCatalog") -> float:
        """Total storage as a multiple of one full catalog copy."""
        catalog_s = sum(
            catalog.movie(title).duration_s for title in self.entries
        )
        if catalog_s <= 0:
            return 0.0
        return sum(self.storage_s(catalog).values()) / catalog_s

    def validate(self, catalog: "MovieCatalog") -> None:
        """Raise :class:`ServiceError` unless every catalog title has at
        least one full replica and every placed title exists."""
        for title in self.entries:
            if title not in catalog:
                raise ServiceError(f"plan places unknown title {title!r}")
        for title in catalog.titles():
            if not self.replicas(title):
                raise ServiceError(
                    f"plan leaves {title!r} without a full replica"
                )

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def apply(self, catalog: "MovieCatalog") -> None:
        """Write the plan's replica map onto ``catalog``."""
        for title, holders in self.entries.items():
            for server, prefix in holders.items():
                catalog.place_replica(title, server, prefix_s=prefix)

    def describe(self) -> List[str]:
        lines = [f"plan[{self.strategy}] k={self.k}"]
        for title in self.titles():
            full = ",".join(self.replicas(title))
            prefixes = self.prefix_holders(title)
            extra = (
                " prefix=" + ",".join(
                    f"{server}:{seconds:.0f}s"
                    for server, seconds in sorted(prefixes.items())
                )
                if prefixes
                else ""
            )
            lines.append(f"  {title}: [{full}]{extra}")
        return lines


# ----------------------------------------------------------------------
# Analytic availability
# ----------------------------------------------------------------------
def title_availability(
    plan: PlacementPlan, title: str, profiles: Mapping[str, ServerProfile]
) -> float:
    """P(at least one full replica up), servers independent."""
    unavailable = 1.0
    for server in plan.replicas(title):
        profile = profiles.get(server)
        availability = profile.availability if profile is not None else 1.0
        unavailable *= 1.0 - availability
    return 1.0 - unavailable if plan.replicas(title) else 0.0


def plan_availability(plan: PlacementPlan, ctx: PlacementContext) -> float:
    """Popularity-weighted analytic availability of the whole plan."""
    profiles = {profile.name: profile for profile in ctx.servers}
    shares = ctx.shares()
    return sum(
        shares.get(title, 0.0) * title_availability(plan, title, profiles)
        for title in plan.titles()
    )


def surviving_availability(
    plan: PlacementPlan,
    ctx: PlacementContext,
    down_servers: Iterable[str],
) -> float:
    """Popularity-weighted fraction of titles that still have a live
    full replica once ``down_servers`` are all dead — the deterministic
    "availability under a correlated crash" of the placement
    experiment."""
    down = set(down_servers)
    shares = ctx.shares()
    total = 0.0
    for title in plan.titles():
        if any(server not in down for server in plan.replicas(title)):
            total += shares.get(title, 0.0)
    return total


# ----------------------------------------------------------------------
# Catalog building
# ----------------------------------------------------------------------
def build_zipf_catalog(
    n_titles: int,
    duration_s: float = 120.0,
    fps: int = 30,
) -> "MovieCatalog":
    """A catalog of ``n_titles`` synthetic movies whose sorted title
    order equals popularity rank order (zero-padded names,
    ``title0001`` first), so
    :class:`~repro.workloads.popularity.ZipfCatalogSampler` over
    ``catalog.titles()`` draws rank-1 most often."""
    from repro.media.catalog import MovieCatalog
    from repro.media.movie import Movie

    if n_titles < 1:
        raise ServiceError(f"need at least one title, got {n_titles}")
    return MovieCatalog(
        Movie.synthetic(f"title{rank:04d}", duration_s=duration_s, fps=fps)
        for rank in range(1, n_titles + 1)
    )
