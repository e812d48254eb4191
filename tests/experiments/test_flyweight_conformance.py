"""Flyweight == full-object conformance, pinned against a golden trace.

The flyweight fast path replaces per-client sessions with columnar rows
whose playheads are closed-form arithmetic.  Its contract is *exact*
behavioural equivalence on clean links with the same seed: every viewer
starts on the same server at the same offset, every crash fails the same
viewers over to the same survivors with the same measured latencies, and
every final playhead matches to the frame.

The rig (`conformance_trace`) makes that equivalence checkable: one
sorted admission batch (window 0), a daemon set small enough to be
identical across modes, and flow control silenced by a deep prebuffer.
The traces are compared both mode-against-mode (equivalence today) and
against a committed golden (no silent drift of *both* modes at once).

The rig runs S = 3 servers only, so the crash case proves served-once
at S = 3 and nowhere else: at S >= 4 one early crash loses rows
(``tests/experiments/test_early_crash_rows.py``).
"""

import json
import os

import pytest

from repro.experiments.scale import conformance_trace

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data",
    "flyweight_conformance_golden.json",
)


def canonical(trace):
    """JSON round-trip: tuples become lists, floats keep exact reprs."""
    return json.loads(json.dumps(trace))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traces():
    return {
        ("full", "clean"): conformance_trace(mode="full"),
        ("flyweight", "clean"): conformance_trace(mode="flyweight"),
        ("full", "crash"): conformance_trace(mode="full", crash_at=4.0),
        ("flyweight", "crash"): conformance_trace(
            mode="flyweight", crash_at=4.0
        ),
    }


def test_clean_run_flyweight_equals_full(traces):
    assert traces[("flyweight", "clean")] == traces[("full", "clean")]


def test_crash_run_flyweight_equals_full(traces):
    """Takeover placement, resume offsets AND failover latencies match
    to the float — the cohort mirrors the full path's deterministic
    rules, not an approximation of them."""
    assert traces[("flyweight", "crash")] == traces[("full", "crash")]


@pytest.mark.parametrize("mode", ["full", "flyweight"])
def test_clean_run_matches_golden(traces, golden, mode):
    assert canonical(traces[(mode, "clean")]) == golden["clean"]


@pytest.mark.parametrize("mode", ["full", "flyweight"])
def test_crash_run_matches_golden(traces, golden, mode):
    assert canonical(traces[(mode, "crash")]) == golden["crash"]


def test_crash_trace_is_a_real_failover(traces):
    """Guard the guard: the pinned crash trace must actually exercise
    takeover, or golden equality would vacuously pass."""
    trace = traces[("flyweight", "crash")]
    assert len(trace["failover_latencies"]) > 0
    assert any(
        takeover for entries in trace["starts"].values()
        for _, _, takeover in entries
    )
    # Everyone kept streaming after the crash: final playheads advanced
    # beyond every recorded start offset.
    for name, entries in trace["starts"].items():
        assert trace["final"][name] >= max(offset for _, offset, _ in entries)
