"""Sharded parallel simulation: one deployment, many worker processes.

One Python process caps the reproduction's scale no matter how cheap
the per-viewer math gets (PR 5's flyweight rows hit ~100k viewers in a
single core).  This package exploits the structure the paper's service
already has — clients of different movie groups interact only through
shared links and the server group — to partition a run across
``multiprocessing`` workers, one shard per core, spawn-safe by
construction.

One mode, **shared-nothing** (:func:`repro.shard.runner.run_shards`):
independent head-ends, one per worker, each with a deterministic
per-shard seed (``crc32(f"{seed}:{shard_id}")``, mirroring the
scenario-matrix cell convention) and merged results — failover
latencies, QoE score histograms and flight-recorder incidents fold
together order-independently (:mod:`repro.shard.merge`).  This is what lets the scale rig publish
million-viewer numbers.

The same worker pool powers the scenario matrix
(:func:`repro.experiments.matrix.run_matrix` with ``workers=N``) so
independent cells execute in parallel with byte-identical verdicts.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".merge": ("ScoreHistogram", "slo_summary_from_windows"),
    ".plan": ("ShardPlan", "ShardTask", "shard_seed"),
    ".runner": ("ShardError", "map_tasks", "run_shards"),
})
