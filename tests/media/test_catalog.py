"""Unit tests for the movie catalog and replication map."""

import pytest

from repro.errors import UnknownMovieError
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie


@pytest.fixture
def catalog():
    return MovieCatalog(
        [Movie.synthetic("a", duration_s=1.0), Movie.synthetic("b", duration_s=1.0)]
    )


def test_titles_sorted(catalog):
    assert catalog.titles() == ["a", "b"]


def test_contains(catalog):
    assert "a" in catalog
    assert "zzz" not in catalog


def test_movie_lookup(catalog):
    assert catalog.movie("a").title == "a"
    with pytest.raises(UnknownMovieError):
        catalog.movie("zzz")


def test_replica_placement(catalog):
    catalog.place_replica("a", "s1")
    catalog.place_replica("a", "s2")
    assert catalog.replicas("a") == {"s1", "s2"}
    assert catalog.replication_degree("a") == 2


def test_replicate_unknown_movie_raises(catalog):
    with pytest.raises(UnknownMovieError):
        catalog.place_replica("zzz", "s1")


def test_replicas_of_unknown_movie_raises(catalog):
    with pytest.raises(UnknownMovieError):
        catalog.replicas("zzz")


def test_movies_of_server(catalog):
    catalog.place_replica("a", "s1")
    catalog.place_replica("b", "s1")
    catalog.place_replica("a", "s2")
    assert catalog.movies_of("s1") == ["a", "b"]
    assert catalog.movies_of("s2") == ["a"]
    assert catalog.movies_of("nobody") == []


def test_remove_replica(catalog):
    catalog.place_replica("a", "s1")
    catalog.remove_replica("a", "s1")
    assert catalog.replicas("a") == set()
    catalog.remove_replica("a", "never-there")  # no-op


def test_add_movie_later():
    catalog = MovieCatalog()
    catalog.add_movie(Movie.synthetic("late", duration_s=1.0))
    assert "late" in catalog


def test_replicas_returns_copy(catalog):
    catalog.place_replica("a", "s1")
    catalog.replicas("a").add("intruder")
    assert catalog.replicas("a") == {"s1"}


def test_partial_replication_end_to_end():
    """k=2-of-3 placement: a movie's clients survive one failure of its
    replica set, and other movies are untouched."""
    from repro.net.topologies import build_lan
    from repro.service.deployment import Deployment
    from repro.sim.core import Simulator

    sim = Simulator(seed=44)
    topology = build_lan(sim, n_hosts=5)
    catalog = MovieCatalog(
        [Movie.synthetic(f"m{i}", duration_s=60.0) for i in range(3)]
    )
    for title, servers in (("m0", "s0 s1"), ("m1", "s1 s2"), ("m2", "s2 s0")):
        for server in servers.split():
            catalog.place_replica(title, server)
    deployment = Deployment(topology, catalog, replicate_all=False)
    for index, name in enumerate(("s0", "s1", "s2")):
        deployment.add_server(index, name)
    client = deployment.attach_client(3)
    client.request_movie("m0")  # replicated on s0 and s1
    sim.run_until(15.0)
    serving = client.serving_server
    assert serving is not None and serving.name in ("s0", "s1")
    deployment.server(serving.name).crash()
    sim.run_until(30.0)
    assert client.serving_server is not None
    assert client.serving_server.name in ("s0", "s1")
    assert client.decoder.stats.stall_time_s <= 1.0
