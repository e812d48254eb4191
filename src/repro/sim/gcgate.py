"""Pausing the cyclic garbage collector around bounded hot runs.

Profiling the flyweight scale rig (N=20 000, 8 simulated seconds)
showed CPython's generational collector running 782 gen-0, 71 gen-1 and
6 gen-2 collections over the run and collecting **zero** objects every
single time — the simulator's object graph is reference-counted
acyclically (events, datagrams and frames are dropped deterministically
and ``EventHandle.cancel`` clears its references precisely so cycles
never form).  Those no-op collections still pay a full traversal of the
live heap, which at flyweight scale is 33% of wall time (12.1 s with
the collector on, 8.1 s with it off).

:func:`paused_gc` packages the safe way to claim that time back for a
*bounded* run: automatic collection is disabled on entry and restored
on exit, with one explicit ``gc.collect()`` at the end so anything a
run did leave cyclic is reclaimed before the process moves on.  Nesting
is safe (the previous enabled-state is restored, not assumed), and a
run that raises still restores the collector.

The scale experiment's measurement points run inside this gate;
long-lived interactive processes should not, which is why it is opt-in
rather than wired into ``Simulator``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def paused_gc(enabled: bool = True) -> Iterator[None]:
    """Disable automatic cyclic GC for the duration of a bounded run.

    ``enabled=False`` makes the gate a no-op, so callers can thread a
    single flag through instead of branching around the context
    manager.  On exit the collector's previous state is restored and —
    when the gate was active — one explicit collection runs to reclaim
    whatever the run left behind.
    """
    if not enabled:
        yield
        return
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()
