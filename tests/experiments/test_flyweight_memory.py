"""A flyweight viewer costs bytes, not objects: a memory guard.

The scale rig's per-viewer bookkeeping — the GCS daemons' open-send
duplicate ledgers and the cohorts' row columns — is flat data.  This
runs ``build_scale_rig(N, 1.0, mode="flyweight", seed=77)`` with the
most-loaded server crashed at 4 s to 8 s, at N = 1 000 and N = 2 000,
and bounds what the larger run retains per extra viewer (tracemalloc,
after the run, against before the build; a small run first loads every
module a run imports, so neither measured run pays for an import).

Measured when the ledgers became id runs and the rows columns:
529.9 bytes per viewer on CPython 3.11.7 (the boxed-int sets and row
tuples before it: 1 238.9).  The bound allows that plus 25 %.  The same
code measured 548.1 on 3.9.18, 520.7 on 3.12.1 and 520.6 on 3.13.0;
re-measure on another interpreter before reading a failure as a leak.
"""

import gc
import tracemalloc

from repro.experiments.scale import build_scale_rig, make_crash_most_loaded
from repro.sim.gcgate import paused_gc

MEASURED_BYTES_PER_VIEWER = 529.9


def run_rig(n_viewers):
    """(retained bytes, the deployment) after the crash rig's 8 s."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim, deployment, _pool, observer = build_scale_rig(
            n_viewers, 1.0, mode="flyweight", seed=77
        )
        sim.call_at(4.0, make_crash_most_loaded(deployment, observer))
        with paused_gc():
            sim.run_until(8.0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, deployment


def test_flyweight_bookkeeping_stays_flat_per_viewer():
    run_rig(100)
    small, _ = run_rig(1000)
    large, deployment = run_rig(2000)
    # Every (receiver, sending daemon) stream is one contiguous run of
    # ids, give or take one gap — never a set of boxed ints.
    domain = deployment.domain
    ledgers = [
        ledger
        for node in domain.daemon_nodes()
        for ledger in domain.endpoint(node)._open_seen.values()
    ]
    assert ledgers
    assert all(len(ledger.bounds) <= 4 for ledger in ledgers)
    per_viewer = (large - small) / 1000
    assert per_viewer < MEASURED_BYTES_PER_VIEWER * 1.25, per_viewer
