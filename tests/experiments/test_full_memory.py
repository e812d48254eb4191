"""A full viewer's stream in flight costs bytes, not objects: a memory guard.

A full-object viewer on the batched path holds one precomputed window
of its stream at a time (a ``BurstTransfer``: delivery and send times,
transmitter-free times per hop, kinds and sizes as flat columns, each
``FramePacket`` built only when its frame is delivered) and its
client's 4 Hz probe keeps eight ``TimeSeries`` as float columns.  This
runs ``build_scale_rig(N, 1.0, mode="full", seed=77)`` with the busiest
server crashed at 3 s through a ``FaultInjector``, to 6 s in 0.25 s
slices with the cyclic GC paused, at N = 100 and N = 200.  It bounds
what the larger run retains and what it peaks at per extra viewer
(tracemalloc, after the run and at its high-water mark, against before
the build).  A small run first loads every module a run imports, so no
measured run pays for an import.

Measured on CPython 3.11.7.  With a ``_Record`` object per frame, a
list of ``(direction, tx_free)`` tuples per record, every window's
``FramePacket``s built when it was precomputed and the series as lists
of boxed floats: 50 588.3 bytes retained and 51 062.6 at the peak per
viewer.  With the columns: 30 255.6 and 31 709.9 (31 881.9 and
33 499.3 on 3.9.18, 29 930.8 and 31 389.3 on 3.12.1, 30 509.3 and
31 963.7 on 3.13.0).  The bounds allow the 3.11.7 figures plus 25 %;
re-measure on another interpreter before reading a failure as a leak.
"""

import gc
import tracemalloc

from repro.experiments.scale import build_scale_rig
from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.sim.gcgate import paused_gc

MEASURED_BYTES_PER_VIEWER = 30255.6
MEASURED_PEAK_BYTES_PER_VIEWER = 31709.9


def run(n_viewers):
    """``(retained, peak)`` bytes of one crash rig, from before its build."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim, deployment, _viewers, _observer = build_scale_rig(
            n_viewers, 1.0, mode="full", seed=77
        )
        FaultInjector(deployment, FaultPlan().crash_most_loaded(3.0)).start()
        with paused_gc():
            for quarter in range(1, 25):
                sim.run_until(quarter / 4)
        retained, peak = tracemalloc.get_traced_memory()
        return retained - before, peak - before
    finally:
        tracemalloc.stop()


def test_full_viewer_stream_stays_flat_per_viewer():
    run(10)
    small, large = run(100), run(200)
    per_viewer = (large[0] - small[0]) / 100
    peak_per_viewer = (large[1] - small[1]) / 100
    assert per_viewer < MEASURED_BYTES_PER_VIEWER * 1.25, per_viewer
    assert peak_per_viewer < MEASURED_PEAK_BYTES_PER_VIEWER * 1.25, (
        peak_per_viewer
    )
