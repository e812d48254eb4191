"""Unit tests for the flyweight viewer pool.

A flyweight viewer is one row across the pool's columns; its playhead is
closed-form arithmetic inside the serving server's cohort.  A row stays
a row for life.  These tests pin that life — admit, stream, fail over,
finish — and the invariants the fast path must keep: exact frame-rate
advancement, conservative takeover offsets, rows and full clients
sharing an edge, and rows served alike whether or not the servers and
clients run ``session_mux``.
"""

from repro.client.flyweight import SENDERS_MAX
from repro.client.player import CONNECT_RETRY_S, ClientConfig
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_edge_lan
from repro.server.server import ServerConfig
from repro.service.deployment import Deployment
from repro.sim.core import Simulator


def build_rig(n_viewers=8, movie_s=30.0, seed=77, n_servers=2,
              session_mux=True):
    sim = Simulator(seed=seed)
    topology = build_edge_lan(sim, n_servers, 1)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=movie_s)])
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(n_servers)),
        server_config=ServerConfig(session_mux=session_mux),
        client_config=ClientConfig(
            session_mux=session_mux, prebuffer_frames=330
        ),
    )
    pool = deployment.attach_flyweight("feature")
    for _ in range(n_viewers):
        pool.add_viewer(n_servers)
    pool.connect_all(0.0)
    return sim, deployment, pool


def test_pool_serves_rows_without_session_mux():
    """A row never starts a per-client session, so the mux flag cannot
    change how rows are admitted, streamed or failed over: a rig
    without it serves every row exactly as the mux rig does."""

    def crashed_run(session_mux):
        sim, deployment, pool = build_rig(session_mux=session_mux)
        sim.run_until(5.0)
        victim = max(deployment.live_servers(), key=lambda s: s.n_clients)
        victim.crash()
        sim.run_until(8.0)
        return pool.positions(), pool.serving_counts()

    positions, counts = crashed_run(session_mux=False)
    assert sum(counts.values()) == 8
    assert (positions, counts) == crashed_run(session_mux=True)


def test_rows_retry_at_the_deployments_connect_cadence():
    """A row's connect retry is the full client's, whatever the
    deployment's ``session_mux``."""
    sim = Simulator(seed=77)
    topology = build_edge_lan(sim, 1, 1)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=30.0)])
    deployment = Deployment(topology, catalog, server_nodes=[])
    pool = deployment.attach_flyweight("feature")
    for _ in range(4):
        pool.add_viewer(1)
    pool.connect_all(0.0)
    sim.run_until(3.5)  # no server: attempts at 0, 1, 2 and 3 s
    assert CONNECT_RETRY_S == 1.0
    assert pool.connects_sent == 4 * 4
    assert not any(pool.started)


def test_viewers_stream_balanced():
    sim, deployment, pool = build_rig()
    sim.run_until(5.0)
    counts = pool.serving_counts()
    assert sum(counts.values()) == 8
    assert max(counts.values()) - min(counts.values()) <= 1
    assert all(pool.started)
    assert pool.frames_served() > 0


def test_rows_advance_at_exactly_the_frame_rate():
    """The closed form must tick like the live timer chain: +fps frames
    per second on a clean link, for every row."""
    sim, deployment, pool = build_rig()
    sim.run_until(4.0)
    first = pool.positions()
    sim.run_until(6.0)
    second = pool.positions()
    for name in first:
        assert second[name] - first[name] == 2 * 30


def test_every_viewer_finishes_a_short_movie():
    sim, deployment, pool = build_rig(movie_s=4.0)
    sim.run_until(12.0)
    assert all(pool.finished)
    assert sum(pool.serving_counts().values()) == 0
    movie_frames = 4 * 30
    assert pool.frames_served() == 8 * movie_frames
    assert all(off == movie_frames + 1 for off in pool.last_offsets)


def test_crash_fails_rows_over_with_conservative_resume():
    sim, deployment, pool = build_rig()
    sim.run_until(5.0)
    before = pool.positions()
    victim = max(deployment.live_servers(), key=lambda s: s.n_clients)
    survivor = next(
        s for s in deployment.live_servers() if s is not victim
    )
    victim_rows = set(victim.movies["feature"].cohort.clients())
    assert victim_rows
    victim.crash()
    sim.run_until(8.0)
    counts = pool.serving_counts()
    assert counts == {survivor.name: 8}
    cohort = survivor.movies["feature"].cohort
    for client in victim_rows:
        name = client.name
        # Takeover resumed from the last *shared* offset: at or behind
        # the true playhead (never ahead — no skipped frames), within
        # one sync interval of it, and still advancing afterwards.
        resumed_base = cohort.row(client)[0]
        assert resumed_base <= before[name] + 1
        assert before[name] - resumed_base <= 30  # <= one 0.5s share + slack
        assert pool.positions()[name] > before[name]


def test_full_clients_and_rows_share_an_edge_through_a_crash():
    """An edge node that hosts full clients already runs a GCS daemon;
    the pool must reuse it (it used to die with a bare ValueError), and
    the mixed population must ride a crash like either kind alone."""
    sim = Simulator(seed=77)
    topology = build_edge_lan(sim, 3, 1)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=60.0)])
    deployment = Deployment(
        topology, catalog, server_nodes=[0, 1, 2],
        server_config=ServerConfig(session_mux=True),
        client_config=ClientConfig(session_mux=True, prebuffer_frames=330),
    )
    edge = deployment.domain.ensure_endpoint(topology.host(3))
    fulls = [
        deployment.attach_client(3, endpoint=edge, video_port=None)
        for _ in range(6)
    ]
    for client in fulls:
        sim.call_at(0.0, client.request_movie, "feature")
    pool = deployment.attach_flyweight("feature")
    for _ in range(12):
        pool.add_viewer(3, name=f"row{len(pool)}")
    pool.connect_all(0.0)
    sim.run_until(4.0)
    victim = max(deployment.live_servers(), key=lambda s: s.n_clients)
    orphans = set(victim.served_clients())
    assert orphans
    received = [client.stats.received for client in fulls]
    victim.crash()
    sim.run_until(8.0)
    served = [c for s in deployment.live_servers() for c in s.served_clients()]
    assert len(served) == len(set(served)) == 18
    assert orphans <= set(served)
    assert all(pool.started)
    assert all(
        client.stats.received > before
        for client, before in zip(fulls, received)
    )


def test_rows_past_the_sender_cap_pick_the_same_daemons_as_before():
    """Past ``SENDERS_MAX`` a row round-robins over the sorted sender
    nodes, which are sorted once: the picks are the rule's, row by row."""
    sim = Simulator(seed=77)
    topology = build_edge_lan(sim, 1, 9)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=30.0)])
    deployment = Deployment(topology, catalog, server_nodes=[0])
    pool = deployment.attach_flyweight("feature")
    # Edges in a scrambled order, so the sorted senders differ from the
    # order they were started in.
    hosts = [1 + (7 * index) % 9 for index in range(40)]
    for host in hosts:
        pool.add_viewer(host)
    senders, expected = set(), []
    for index, host in enumerate(hosts):
        node = topology.host(host)
        if node in senders or len(senders) < SENDERS_MAX:
            senders.add(node)
            expected.append(node)
        else:
            nodes = sorted(senders)
            expected.append(nodes[index % len(nodes)])
    assert pool._senders == expected
    assert len(set(expected)) == SENDERS_MAX
