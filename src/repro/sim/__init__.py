"""Discrete-event simulation kernel.

The kernel provides a deterministic virtual clock, a cancellable event
queue, periodic timers, generator-based processes and named random
streams.  Every other subsystem in :mod:`repro` is driven by a single
:class:`Simulator` instance, which makes whole-system experiments exactly
reproducible from a seed.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("EventHandle", "Lane", "Simulator"),
    ".process": ("Process", "Timer", "sleep"),
    ".rng": ("RngRegistry",),
    "repro.telemetry.trace": ("TraceRecord", "Tracer"),
})
