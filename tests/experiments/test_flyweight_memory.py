"""A flyweight viewer costs bytes, not objects: a memory guard.

The scale rig's per-viewer bookkeeping — the GCS daemons' open-send
duplicate ledgers, the cohorts' row columns and row ledgers, the
admission queues' held rows and the pool's scheduled connects — is flat
data.  This runs ``build_scale_rig(N, 1.0,
mode="flyweight", seed=77)`` with the most-loaded server crashed at 4 s
to 8 s (in 0.1 s slices), at N = 1 000 and N = 2 000 (and 4 000 for
the heap), and bounds what the larger run retains and what it peaks at
per extra viewer (tracemalloc, after the run and at its high-water
mark, against before the build; a small run first loads every module a
run imports, so no measured run pays for an import).

Measured when each replica's row ledger became a column of owner slots
(an ``OwnerMap`` dict keyed by client before it): 428.4 bytes per viewer
on CPython 3.11.7, against 529.9 before (and 1 238.9 with the boxed-int
sets and row tuples that the id runs and row columns replaced).  The
bound allows that plus 25 %.  The same code measured 442.0 on 3.9.18,
419.2 on 3.12.1 and 419.2 on 3.13.0; re-measure on another interpreter
before reading a failure as a leak.

The peak is set by the connect storm.  Measured when the admission
queue held a deferred row as a flag instead of its ``ConnectRequest``:
464.5 bytes per viewer on CPython 3.11.7 (478.2 on 3.9.18, 455.3 on
3.12.1, 455.2 on 3.13.0), against 863.3 with the requests held, and
1 202.7 before that, when each row's scheduled connect and connect
retry was an ``EventHandle`` in the kernel heap.  The bound again allows
25 %.
"""

import gc
import tracemalloc

from repro.experiments.scale import build_scale_rig
from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.sim.gcgate import paused_gc

MEASURED_BYTES_PER_VIEWER = 428.4
MEASURED_PEAK_BYTES_PER_VIEWER = 464.5


class Run:
    """What one crash rig left behind and peaked at."""

    def __init__(self, n_viewers):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim, self.deployment, _pool, observer = build_scale_rig(
                n_viewers, 1.0, mode="flyweight", seed=77
            )
            #: Live events right after the build: every row's connect.
            self.pending_after_build = sim.pending_count()
            FaultInjector(
                self.deployment, FaultPlan().crash_most_loaded(4.0)
            ).start()
            #: Kernel heap entries, largest at a slice boundary.
            self.heap_peak = len(sim._queue)
            with paused_gc():
                for tenth in range(1, 81):
                    sim.run_until(tenth / 10)
                    self.heap_peak = max(self.heap_peak, len(sim._queue))
            retained, peak = tracemalloc.get_traced_memory()
            self.retained = retained - before
            self.peak = peak - before
        finally:
            tracemalloc.stop()


def test_flyweight_bookkeeping_stays_flat_per_viewer():
    Run(100)
    small, large = Run(1000), Run(2000)
    # Every (receiver, sending daemon) stream is one contiguous run of
    # ids, give or take one gap — never a set of boxed ints.
    domain = large.deployment.domain
    ledgers = [
        ledger
        for node in domain.daemon_nodes()
        for ledger in domain.endpoint(node)._open_seen.values()
    ]
    assert ledgers
    assert all(len(ledger.bounds) <= 4 for ledger in ledgers)
    per_viewer = (large.retained - small.retained) / 1000
    assert per_viewer < MEASURED_BYTES_PER_VIEWER * 1.25, per_viewer
    peak_per_viewer = (large.peak - small.peak) / 1000
    assert peak_per_viewer < MEASURED_PEAK_BYTES_PER_VIEWER * 1.25, (
        peak_per_viewer
    )
    # Every row's connect is pending from the build on, yet the heap
    # holds the same few entries whatever N is: the lanes' heads, the
    # servers' and daemons' timers and the datagrams in flight (36 at
    # these three sizes; one per viewer more when each connect was a
    # heap entry of its own).
    runs = {1000: small, 2000: large, 4000: Run(4000)}
    # pending_count() is N plus the same few timers at every N.
    extra = {run.pending_after_build - n for n, run in runs.items()}
    assert len(extra) == 1 and min(extra) >= 0, extra
    assert len({run.heap_peak for run in runs.values()}) == 1, {
        n: run.heap_peak for n, run in runs.items()
    }
