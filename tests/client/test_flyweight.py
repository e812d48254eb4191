"""Unit and property tests for the flyweight viewer pool.

A flyweight viewer is one row across the pool's columns; its playhead is
closed-form arithmetic inside the serving server's cohort.  These tests
pin the life cycle — admit, stream, fail over, promote to a full
client, demote back — and the invariants the fast path must keep: exact
frame-rate advancement, conservative takeover offsets, and playhead
monotonicity through promote/demote round trips.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.flyweight import FlyweightPool
from repro.client.player import ClientConfig
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.server.server import ServerConfig
from repro.service.deployment import Deployment
from repro.errors import ServiceError, SessionError
from repro.sim.core import Simulator
from repro.experiments.scale import build_edge_lan


def build_rig(n_viewers=8, movie_s=30.0, seed=77, n_servers=2):
    sim = Simulator(seed=seed)
    topology = build_edge_lan(sim, n_servers, 1)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=movie_s)])
    deployment = Deployment(
        topology, catalog, server_nodes=list(range(n_servers)),
        server_config=ServerConfig(session_mux=True, batch_window_s=1.0),
        client_config=ClientConfig(session_mux=True, prebuffer_frames=330),
    )
    pool = deployment.attach_flyweight("feature")
    for _ in range(n_viewers):
        pool.add_viewer(n_servers)
    pool.connect_all(0.0)
    return sim, deployment, pool


def test_pool_requires_session_mux():
    sim = Simulator(seed=1)
    topology = build_edge_lan(sim, 2, 1)
    catalog = MovieCatalog([Movie.synthetic("feature", duration_s=10.0)])
    deployment = Deployment(
        topology, catalog, server_nodes=[0, 1],
        server_config=ServerConfig(session_mux=True),
    )
    with pytest.raises(ServiceError):
        FlyweightPool(
            deployment, "feature",
            client_config=ClientConfig(session_mux=False),
        )


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
    victim_rows = set(victim.movies["feature"].cohort.rows)
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
        resumed_base = cohort.rows[client][0]
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
        server_config=ServerConfig(session_mux=True, batch_window_s=1.0),
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


def test_promote_to_full_client_continues_playback():
    sim, deployment, pool = build_rig()
    sim.run_until(5.0)
    before = pool.positions()["client0"]
    client = pool.promote("client0")
    sim.run_until(7.0)
    assert sum(pool.serving_counts().values()) == 7
    assert client.serving_server is not None
    assert client.displayed_total > 0
    assert client.combined_occupancy > 0
    # The promoted session picked up at the row's playhead, not at the
    # start of the movie.
    server = next(
        s for s in deployment.live_servers()
        if s.process == client.serving_server
    )
    assert server.sessions[client.process].position >= before


def test_promote_then_demote_returns_the_row():
    sim, deployment, pool = build_rig()
    sim.run_until(5.0)
    before = pool.positions()["client0"]
    client = pool.promote("client0")
    sim.run_until(6.5)
    client.pause()
    sim.run_until(7.0)
    client.resume()
    sim.run_until(7.5)
    client.seek(20.0)
    sim.run_until(8.5)
    pool.demote(client)
    sim.run_until(9.0)
    counts = pool.serving_counts()
    assert sum(counts.values()) == 8
    index = pool.row_of(client.process)
    assert index not in pool._promoted
    # The seek bumped the epoch; the demoted row carries it along with
    # the repositioned playhead.
    assert pool.epochs[index] >= 1
    assert pool.positions()["client0"] >= 20 * 30
    assert pool.positions()["client0"] >= before


def test_promotion_errors():
    sim, deployment, pool = build_rig()
    sim.run_until(5.0)
    with pytest.raises(SessionError):
        pool.promote("nobody")
    client = pool.promote("client1")
    with pytest.raises(SessionError):
        pool.promote("client1")
    sim.run_until(6.0)
    pool.demote(client)
    with pytest.raises(SessionError):
        pool.demote(client)


@given(
    row=st.integers(min_value=0, max_value=3),
    promote_tick=st.integers(min_value=0, max_value=10),
    dwell_ticks=st.integers(min_value=1, max_value=10),
    cycles=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=15, deadline=None)
def test_promote_demote_round_trip_properties(
    row, promote_tick, dwell_ticks, cycles
):
    """Whenever a viewer is promoted and demoted, and however often:
    the pool never loses or double-serves a viewer, and the viewer's
    server-side playhead never moves backwards."""
    sim, deployment, pool = build_rig(n_viewers=4, movie_s=120.0)
    sim.run_until(4.0)
    name = pool.names[row]
    watermark = pool.positions()[name]
    for _ in range(cycles):
        sim.run_until(sim.now + promote_tick * 0.1)
        client = pool.promote(name)
        assert sum(pool.serving_counts().values()) == 3
        sim.run_until(sim.now + dwell_ticks * 0.2)
        pool.demote(client)
        assert sum(pool.serving_counts().values()) == 4
        position = pool.positions()[name]
        assert position >= watermark
        watermark = position
    sim.run_until(sim.now + 2.0)
    # Still streaming as a row afterwards.
    assert pool.positions()[name] > watermark
    assert not pool.finished[row]
