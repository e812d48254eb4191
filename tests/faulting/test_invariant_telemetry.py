"""Invariant violations reach the telemetry bus (and only when active).

The flight recorder treats ``invariant.violation`` as an incident
trigger, so the checker's ``_violation`` hook must emit onto the bus —
but only when someone is listening (the inactive-bus fast path costs
one attribute check, like every other instrumented site).
"""

from types import SimpleNamespace

from repro.faulting.invariants import InvariantChecker
from repro.telemetry.bus import Telemetry


def _checker():
    sim = SimpleNamespace(now=7.5)
    sim.telemetry = Telemetry(clock=lambda: sim.now)
    deployment = SimpleNamespace(sim=sim, network=None)
    return InvariantChecker(deployment)


def test_violation_emits_when_bus_is_active():
    checker = _checker()
    seen = []
    checker.sim.telemetry.subscribe(
        lambda e: seen.append(e), prefixes=("invariant.",)
    )
    checker._violation("exactly-one-adoption", "client3", "orphaned 9s")
    assert len(checker.violations) == 1
    assert len(seen) == 1
    event = seen[0]
    assert event.kind == "invariant.violation"
    assert event.time == 7.5
    assert event.fields == {
        "rule": "exactly-one-adoption",
        "client": "client3",
        "detail": "orphaned 9s",
    }


def test_violation_is_silent_on_inactive_bus():
    checker = _checker()
    assert not checker.sim.telemetry.active
    checker._violation("offset-continuity", None, "regressed")
    assert len(checker.violations) == 1  # recorded either way
