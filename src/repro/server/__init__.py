"""The VoD server.

Each server streams movies to the clients assigned to it, adjusts each
client's transmission rate from flow-control feedback (with the decaying
emergency quota of Section 4.1), shares per-client state in the movie
groups every half second, and — on membership changes — deterministically
re-distributes clients so that crashed or detached servers are replaced
transparently and new servers pick up load.

``server`` holds the process (lifecycle, video plane, sessions),
``replica`` its membership in one movie group, ``state`` the placement
rules and ledgers, ``streamer`` the per-client and cohort sessions,
``admission`` the connect policy and queue, ``prefix`` what a
prefix-only copy changes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".rate_controller": ("EmergencyConfig", "RateController"),
    ".replica": ("MovieReplica",),
    ".server": ("ServerConfig", "VoDServer"),
    ".state": ("MovieState", "rebalance"),
    ".streamer": ("ClientSession",),
})
