"""Regression tests for connect-flood admission (the session ping-pong
bug).

A connect flood landing while the movie group's first view was still
settling used to be admitted straight into the join-regime full
recompute, which round-robins the (growing) record set differently on
every sync receipt — at N=1000 that bounced sessions between replicas
~90 000 times before converging.  The :class:`AdmissionQueue` defers
the flood until the view settles and admits it in sorted client order,
so every replica runs the identical admission sequence exactly once.
"""

from repro.experiments.scale import build_scale_rig


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


def test_replicas_agree_on_the_whole_assignment():
    # Sorted-order drain: every replica must compute the same owner for
    # every client, or clients whose replicas disagree are never served
    # (each side thinks the other one is serving).
    _, deployment, clients, _ = run_flood(n_clients=48, duration_s=8.0)
    assignments = [
        dict(server.movies["feature"].assignment.items())
        for server in deployment.live_servers()
    ]
    for other in assignments[1:]:
        assert other == assignments[0]
    # The load split is even (least-loaded placement over a queue
    # drained in one deterministic batch).
    loads = sorted(s.n_clients for s in deployment.live_servers())
    assert loads[-1] - loads[0] <= 1


def test_retry_while_settling_is_deduplicated():
    sim, deployment, clients, starts = run_flood(n_clients=16, duration_s=0.0)
    admission = deployment.live_servers()[0].movies["feature"].admission
    before = admission.pending()
    if before:
        # Replay every queued request: the queue must not grow.
        for request in list(admission._pending.values()):
            assert admission.defer(request)
        assert admission.pending() == before
