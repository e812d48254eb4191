"""Regression tests for connect-flood admission (the session ping-pong
bug, and the fault-free livelock after it).

A connect flood landing while the movie group's first view was still
settling used to be admitted straight into the join-regime full
recompute, which round-robins the (growing) record set differently on
every sync receipt — at N=1000 that bounced sessions between replicas
~90 000 times before converging.  The :class:`AdmissionQueue` defers
the flood until the view settles and admits it in sorted client order,
so the placement is reproducible.  It is not agreed: the replicas drain
a fraction of a millisecond apart, and a share that lands between two
drains leaves their ledgers counting different loads.  What makes them
agree is the ledger rule — a fresh record names its owner — which the
seed-27 rig below exercises with the scale rig's default 2 s connect
window.
"""

import pytest

from repro.experiments.scale import build_scale_rig
from repro.faulting import FaultInjector, FaultPlan, InvariantChecker


def run_flood(n_clients=64, duration_s=8.0, seed=77):
    """A t=0 connect flood (no spread window, no artificial delay)."""
    sim, deployment, clients, _ = build_scale_rig(
        n_clients, 0.5, connect_window_s=0.0, seed=seed
    )
    starts = {}

    class SessionCounter:
        def on_session_start(self, server, record, takeover):
            starts[record.client] = starts.get(record.client, 0) + 1

    deployment.add_server_observer(SessionCounter())
    sim.run_until(duration_s)
    return sim, deployment, clients, starts


def served_counts(deployment):
    """client -> how many live servers stream it."""
    counts = {}
    for server in deployment.live_servers():
        for client in server.sessions:
            counts[client] = counts.get(client, 0) + 1
    return counts


def ledgers(deployment):
    return [
        dict(server.movies["feature"].assignment.items())
        for server in deployment.live_servers()
    ]


@pytest.fixture(scope="module")
def seed27():
    """``build_scale_rig(400, 1.0, mode="full", seed=27)`` with its
    default 2 s connect window and no fault, sampled at 3, 9.5 and
    12 s."""
    sim, deployment, _, _ = build_scale_rig(400, 1.0, mode="full", seed=27)
    checker = InvariantChecker(deployment).install()
    sim.run_until(3.0)
    served_at_3 = served_counts(deployment)
    sim.run_until(9.5)
    violations = list(checker.violations)
    sim.run_until(12.0)
    return {
        "served_at_3": served_at_3,
        "violations_at_9_5": violations,
        "served_at_12": served_counts(deployment),
        "ledgers": ledgers(deployment),
        "loads": sorted(s.n_clients for s in deployment.live_servers()),
    }


def test_connect_flood_admits_every_client_exactly_once():
    sim, deployment, clients, starts = run_flood()
    # Every client is playing...
    assert len(starts) == len(clients)
    assert all(c.serving_server is not None for c in clients)
    # ...and no session ever moved: zero ping-pong.
    ping_pong = sum(count - 1 for count in starts.values() if count > 1)
    assert ping_pong == 0


def test_connect_flood_goes_through_the_admission_queue():
    # The queue must actually engage (the flood lands before the movie
    # group's first view exists), or this file tests nothing.
    _, deployment, clients, _ = run_flood(n_clients=32, duration_s=6.0)
    deferred = [
        s.movies["feature"].admission.deferred_total
        for s in deployment.live_servers()
    ]
    assert all(count > 0 for count in deferred)


@pytest.mark.parametrize("rig", ["flood48", "seed27"])
def test_replicas_agree_on_the_whole_assignment(rig, request):
    # Every replica must compute the same owner for every client, or
    # clients whose replicas disagree are never served (each side
    # thinks the other one is serving).
    if rig == "seed27":
        measured = request.getfixturevalue("seed27")
        assignments, loads = measured["ledgers"], measured["loads"]
    else:
        _, deployment, _, _ = run_flood(n_clients=48, duration_s=8.0)
        assignments = ledgers(deployment)
        loads = sorted(s.n_clients for s in deployment.live_servers())
    for other in assignments[1:]:
        assert other == assignments[0]
    # The load split is even (least-loaded placement over one ledger).
    assert loads[-1] - loads[0] <= 1


def test_every_viewer_is_served_once_with_the_default_window(seed27):
    assert len(seed27["served_at_3"]) == 400
    assert [c for c, n in seed27["served_at_12"].items() if n > 1] == []
    assert seed27["violations_at_9_5"] == []


def test_every_victim_is_taken_over_with_the_default_window():
    sim, deployment, _, observer = build_scale_rig(
        400, 1.0, mode="full", seed=27
    )
    FaultInjector(deployment, FaultPlan().crash_most_loaded(6.0)).start()
    sim.run_until(7.0)
    assert observer.latencies  # the crashed server was serving someone
    assert observer.victim_clients == set()


@pytest.mark.xfail(
    strict=True,
    reason="two servers admit 147 viewers in the same 1.42 s drain; each "
    "owner's session-group view then holds only itself and the viewer, "
    "and of the 588 Presence beacons the two coordinators send for those "
    "groups from 2.85 s to 8 s the other owner's daemon receives none, so "
    "the views never merge and the smallest-id duplicate rule never runs "
    "(597 of 1000 served, 147 by two servers); the rig's clean links "
    "drop only at queues.  Whether the beacons are lost in each tick's "
    "beacon burst is unverified",
)
def test_every_viewer_is_served_once_at_n1000():
    sim, deployment, _, _ = build_scale_rig(1000, 1.0, mode="full", seed=3)
    sim.run_until(6.0)
    counts = served_counts(deployment)
    assert len(counts) == 1000
    assert [c for c, n in counts.items() if n > 1] == []


def test_retry_while_settling_is_deduplicated():
    sim, deployment, clients, starts = run_flood(n_clients=16, duration_s=0.0)
    admission = deployment.live_servers()[0].movies["feature"].admission
    before = admission.pending()
    if before:
        # Replay every queued request: the queue must not grow.
        for request in list(admission._pending.values()):
            assert admission.defer(request)
        assert admission.pending() == before
