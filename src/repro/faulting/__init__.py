"""Deterministic fault injection and invariant checking.

This package turns the ad-hoc fault scripting of the experiments into a
first-class subsystem:

* :mod:`repro.faulting.plan` — the :class:`FaultPlan` DSL: immutable,
  seeded, replayable schedules of crashes, restarts, partitions, host
  impairments and false suspicions.  Each action is one class that also
  fires itself.
* :mod:`repro.faulting.injector` — :class:`FaultInjector` schedules a
  plan on a running deployment, checks its host indices, resolves
  symbolic targets at fire time and logs what fired.
* :mod:`repro.faulting.invariants` — :class:`InvariantChecker` asserts
  the paper's fault-tolerance contract at runtime (exactly-one
  adoption, offset continuity within the 0.5 s staleness bound, no
  double delivery, every underrun recorded as a glitch).
* :mod:`repro.faulting.chaos` — seeded random sweeps: N plans, zero
  expected violations.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".chaos": (
        "ChaosResult",
        "chaos_table",
        "run_chaos_trial",
        "total_violations",
    ),
    ".injector": ("FaultInjector",),
    ".invariants": ("InvariantChecker", "Violation"),
    ".plan": (
        "CrashMostLoaded",
        "CrashServer",
        "CrashServing",
        "FalseSuspicion",
        "FaultAction",
        "FaultPlan",
        "HealAll",
        "HealHost",
        "ImpairHost",
        "IsolateHost",
        "Partition",
        "RestartServer",
        "ServerUp",
        "StopServer",
    ),
})
