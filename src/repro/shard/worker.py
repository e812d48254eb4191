"""Spawn-importable shard workers and the golden disjoint rig.

Everything here is addressable by module path — the contract spawned
workers live under (:mod:`repro.shard.runner`): top-level functions
and plain-data tasks only, simulation state constructed inside the
worker.

The *disjoint rig* is the windowed mode's golden configuration: ``n``
movie groups, each with its own head-end server, edge concentrator and
viewer cohort, deliberately built so the shard decomposition is exact
— shard *k* simulates ``server{k}``/``movie{k}``/viewers ``s{k}c*``
and nothing else, while the combined build runs all groups in one
kernel.  The per-group placement (``movie{k}`` only on ``server{k}``)
makes admission keep every viewer inside its group in the combined
build too, so the union of per-shard traces must equal the combined
trace — the equivalence ``tests/shard/test_sync_golden.py`` pins
against committed goldens.

Seeds: shard *k* runs under ``shard_seed(base, k)`` while the combined
build runs under ``base``.  That is sound *for this rig* because its
links are clean and loss-free — the simulator provably draws no random
numbers — and the golden test would catch any future divergence.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.shard.merge import MergeError
from repro.shard.plan import ShardTask

#: Golden-rig defaults (small on purpose: the golden pins equivalence,
#: not throughput).
VIEWERS_PER_SHARD = 12
BATCH_WINDOW_S = 1.0
CONNECT_WINDOW_S = 1.0
MOVIE_DURATION_S = 60.0


def build_disjoint_rig(
    n_shards: int,
    shard_id: Optional[int] = None,
    viewers_per_shard: int = VIEWERS_PER_SHARD,
    seed: int = 77,
    batch_window_s: float = BATCH_WINDOW_S,
    connect_window_s: float = CONNECT_WINDOW_S,
):
    """Build the golden rig — one shard of it, or the whole thing.

    ``shard_id=None`` builds the combined single-process deployment
    (all groups, one kernel); an integer builds that shard's group
    alone.  Returns ``(sim, deployment, pools, trace)`` where ``pools``
    maps movie title to its flyweight pool and ``trace`` is an attached
    :class:`~repro.experiments.scale.ConformanceTrace`.
    """
    from repro.client.flyweight import FlyweightConfig
    from repro.client.player import ClientConfig
    from repro.experiments.scale import ConformanceTrace, build_edge_lan
    from repro.media.catalog import MovieCatalog
    from repro.media.movie import Movie
    from repro.placement import PlacementContext, ServerProfile
    from repro.placement.strategies import StaticPlacement
    from repro.server.server import ServerConfig
    from repro.service.deployment import Deployment
    from repro.sim.core import Simulator

    if shard_id is not None and not 0 <= shard_id < n_shards:
        raise ReproError(
            f"shard id {shard_id} outside disjoint rig of {n_shards}"
        )
    groups = [shard_id] if shard_id is not None else list(range(n_shards))

    sim = Simulator(seed=seed)
    topology = build_edge_lan(sim, n_servers=len(groups), n_edges=len(groups))
    catalog = MovieCatalog(
        [
            Movie.synthetic(f"movie{group}", duration_s=MOVIE_DURATION_S)
            for group in groups
        ]
    )
    profiles = [ServerProfile(name=f"server{group}") for group in groups]
    static = StaticPlacement.from_server_movies(
        {f"server{group}": [f"movie{group}"] for group in groups}
    )
    plan = static.build(
        PlacementContext(catalog=catalog, servers=profiles, k=1)
    )
    deployment = Deployment.from_placement(
        topology,
        plan,
        catalog,
        server_hosts={
            f"server{group}": slot for slot, group in enumerate(groups)
        },
        server_config=ServerConfig(
            batch_window_s=batch_window_s, session_mux=True
        ),
        client_config=ClientConfig(session_mux=True),
    )
    trace = ConformanceTrace()
    deployment.add_server_observer(trace)

    pools: Dict[str, object] = {}
    for slot, group in enumerate(groups):
        pool = deployment.attach_flyweight(
            f"movie{group}", config=FlyweightConfig(senders_max=1)
        )
        edge_host = len(groups) + slot
        for index in range(viewers_per_shard):
            pool.add_viewer(edge_host, name=f"s{group}c{index}")
        pool.connect_all(connect_window_s)
        pools[f"movie{group}"] = pool
    return sim, deployment, pools, trace


class DisjointShard:
    """One golden-rig shard under the windowed barrier protocol."""

    def __init__(self, task: ShardTask) -> None:
        params = task.params
        self.shard_id = task.shard_id
        sim, deployment, pools, trace = build_disjoint_rig(
            n_shards=task.n_shards,
            shard_id=task.shard_id,
            viewers_per_shard=int(
                task.n_viewers or params.get(
                    "viewers_per_shard", VIEWERS_PER_SHARD
                )
            ),
            seed=task.seed,
            batch_window_s=float(
                params.get("batch_window_s", BATCH_WINDOW_S)
            ),
            connect_window_s=float(
                params.get("connect_window_s", CONNECT_WINDOW_S)
            ),
        )
        self.sim = sim
        self.deployment = deployment
        self.pool = next(iter(pools.values()))
        self.trace = trace
        self.events = 0
        self.digests: List[Dict] = []

    def step(self, target_t: float) -> None:
        while self.sim.now < target_t:
            self.events += self.sim.run_until(target_t)

    def boundary(self) -> Dict:
        return {
            "shard": self.shard_id,
            "now": self.sim.now,
            "events": self.events,
            "frames": int(self.pool.frames_served()),
        }

    def absorb(self, digest: Dict) -> None:
        # The capacity-coupling hook: an admission policy reading
        # cluster-wide load would consume the digest here, one window
        # late — exactly the conservative lag.  The golden rig only
        # records it.
        self.digests.append(digest)

    def finish(self) -> Dict:
        return {
            "shard": self.shard_id,
            "events": self.events,
            "windows": len(self.digests),
            "starts": {
                name: [list(entry) for entry in entries]
                for name, entries in sorted(self.trace.starts.items())
            },
            "final": {
                name: int(position)
                for name, position in sorted(self.pool.positions().items())
            },
        }


def build_golden_shard(task: ShardTask) -> DisjointShard:
    """Spawn-importable builder for :func:`repro.shard.sync.run_windowed`."""
    return DisjointShard(task)


def run_shard_straight(task: ShardTask, duration_s: float) -> Dict:
    """The same shard run flat-out (no windows) — the perturbation probe.

    Windowed and straight results must be bit-identical; any divergence
    means the barrier grid changed simulated behaviour, which the
    conservative contract forbids.
    """
    shard = DisjointShard(task)
    shard.step(duration_s)
    return shard.finish()


def run_disjoint_single(
    n_shards: int,
    duration_s: float,
    viewers_per_shard: int = VIEWERS_PER_SHARD,
    seed: int = 77,
    batch_window_s: float = BATCH_WINDOW_S,
    connect_window_s: float = CONNECT_WINDOW_S,
) -> Dict:
    """Run all groups in one single-process kernel (the reference)."""
    sim, deployment, pools, trace = build_disjoint_rig(
        n_shards=n_shards,
        shard_id=None,
        viewers_per_shard=viewers_per_shard,
        seed=seed,
        batch_window_s=batch_window_s,
        connect_window_s=connect_window_s,
    )
    events = sim.run_until(duration_s)
    final: Dict[str, int] = {}
    for pool in pools.values():
        final.update(
            (name, int(position))
            for name, position in pool.positions().items()
        )
    return {
        "events": events,
        "starts": {
            name: [list(entry) for entry in entries]
            for name, entries in sorted(trace.starts.items())
        },
        "final": {name: final[name] for name in sorted(final)},
    }


def merge_traces(shard_results: List[Dict]) -> Dict:
    """Union per-shard traces into the combined-run shape.

    Shards own disjoint viewers; a duplicate name means the shard map
    was wrong."""
    starts: Dict[str, List] = {}
    final: Dict[str, int] = {}
    for result in shard_results:
        for name, entries in result["starts"].items():
            if name in starts:
                raise MergeError(
                    f"client {name!r} traced by more than one shard"
                )
            starts[name] = [list(entry) for entry in entries]
        for name, position in result["final"].items():
            if name in final and final[name] != int(position):
                raise MergeError(
                    f"client {name!r} finished in more than one shard"
                )
            final[name] = int(position)
    return {
        "starts": {name: starts[name] for name in sorted(starts)},
        "final": {name: final[name] for name in sorted(final)},
    }
