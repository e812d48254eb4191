"""Calibrated seconds: timings expressed on a quiet reference box.

The shared 2-core box this benchmark was written on is quiet most of
the time and 1.2x - 1.5x slower in episodes lasting one to ten seconds;
the same ``fly20k_crash`` run took 5.6 s - 14.6 s of wall over 18 fresh
processes.  Two facts make a stable figure out of that:

* The simulated section is deterministic, so slice *i* does the same
  work in every repetition.  The cost of a run is therefore the sum,
  slice by slice, of the **fastest** wall any repetition measured for
  that slice (min-of-k at 0.1 s granularity: an episode has to hit the
  same slice in every repetition to be counted).
* A fixed pure-Python *chunk* runs after every slice.  The lower
  quartile of all chunk timings of a run is what the chunk costs while
  this box is quiet; dividing by it and multiplying by ``CAL_REF_S``
  turns quiet wall seconds into seconds on the reference box, so
  figures from boxes of different speed compare.

This module imports nothing from ``repro`` so a child interpreter can
calibrate before it pays for the program's imports.
"""

from __future__ import annotations

import gc
import statistics
from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Dict, List, Sequence

#: Wall seconds one chunk takes on the (quiet) reference box.  A
#: constant, not a measurement: changing it rescales every calibrated
#: figure, so it only ever changes together with the baselines.
CAL_REF_S = 0.006

#: Heap operations per chunk (~6 ms on the reference box): long
#: enough that timer resolution does not matter, short enough that a
#: chunk after every slice adds under 10 % to a run.
CHUNK_OPS = 10_000


def chunk() -> int:
    """Run the fixed calibration chunk; returns its wall time in ns.

    The work mirrors the simulator's inner loop — a binary heap of
    ``(time, seq)`` keys pushed in pseudo-random order and popped in
    time order — with a private LCG, so no RNG state is shared with the
    program under test.  The cyclic collector is held off for the
    chunk: its tuples would otherwise trigger collections whose cost is
    the size of the *program's* heap, not a property of the box.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        heap: list = []
        x = 12345
        started = perf_counter_ns()
        for seq in range(CHUNK_OPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            heappush(heap, (x * 1e-9, seq))
            if seq & 1:
                heappop(heap)
        return perf_counter_ns() - started
    finally:
        if was_enabled:
            gc.enable()


def quiet_chunk_ns(chunk_ns: Sequence[float]) -> float:
    """What the chunk costs while the box is quiet: the lower quartile."""
    if len(chunk_ns) < 2:
        return float(chunk_ns[0])
    return statistics.quantiles(chunk_ns, n=4)[0]


def calibrated_s(wall_ns: float, quiet_ns: float) -> float:
    """``wall_ns`` re-expressed in seconds on the reference box."""
    return wall_ns * 1e-9 * (CAL_REF_S * 1e9 / quiet_ns)


def fastest_slices(runs: Sequence[Sequence[float]]) -> List[float]:
    """Slice by slice, the fastest wall over the repetitions.

    Every repetition must have cut the run into the same slices (the
    simulation is deterministic; a mismatch means it is not).
    """
    lengths = {len(run) for run in runs}
    if len(lengths) != 1:
        raise ValueError(f"repetitions disagree on the slice count: {sorted(lengths)}")
    return [min(walls) for walls in zip(*runs)]


def run_cal_s(slice_runs: Sequence[Sequence[float]], quiet_ns: float) -> float:
    """Calibrated cost of the simulated section over k repetitions."""
    return calibrated_s(sum(fastest_slices(slice_runs)), quiet_ns)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles the way the benchmark driver takes them."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def slice_boundaries(duration_s: float, slice_s: float) -> List[float]:
    """End times of the simulated slices covering ``duration_s``."""
    n = max(1, round(duration_s / slice_s))
    return [duration_s if i == n else i * slice_s for i in range(1, n + 1)]
