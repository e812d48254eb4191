"""Content placement as a first-class subsystem.

Scenarios declare a catalog plus a strategy; the replica map — which
server stores which title, fully or prefix-only — becomes **derived
state** (:class:`PlacementPlan`) instead of hand-authored config.  See
docs/PLACEMENT.md for the strategy menu, the rebalancer's migration
semantics, and the ``placement.*`` telemetry vocabulary.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".plan": (
        "PlacementContext",
        "PlacementPlan",
        "ServerProfile",
        "build_zipf_catalog",
        "plan_availability",
        "surviving_availability",
        "title_availability",
    ),
    ".rebalancer": ("Rebalancer",),
    ".strategies": (
        "STRATEGIES",
        "MarkovAvailability",
        "PlacementStrategy",
        "PopularityProportional",
        "PrefixPlacement",
        "StaticKWay",
        "StaticPlacement",
        "make_strategy",
    ),
})
