"""The cohort's row ledger does each job in one pass — against the
single-row definitions it must keep agreeing with.

``CohortSession.sync_payload`` evaluates the closed-form playhead inline
for every row; ``position_of`` stays the one-row API and the reference.
``least_loaded`` compares ``(load, member)`` without building the pair;
``min`` over exactly that key is the reference.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcs.view import ProcessId
from repro.media.movie import DEFAULT_FPS, Movie
from repro.server.server import ServerConfig
from repro.server.state import least_loaded
from repro.server.streamer import CohortSession
from repro.sim.core import Simulator

MOVIE = Movie.synthetic("feature", duration_s=4.0)
LIMIT = len(MOVIE) + 1
DELTA = 1.0 / DEFAULT_FPS
CLIENTS = [ProcessId(40 - i % 7, f"client{i}") for i in range(24)]


class _Pool(SimpleNamespace):
    """Stub pool: the cohort sizes its row columns by the pool."""

    def __len__(self):
        return len(CLIENTS)


def cohort_at(now, rows):
    """A cohort holding ``rows`` (pool index -> (base, anchor))
    at simulated time ``now``, over a stub pool and server: the share
    reads nothing else of either."""
    sim = Simulator(seed=1)
    server = SimpleNamespace(
        sim=sim, config=ServerConfig(), process=ProcessId(1, "server0"),
        name="server0",
    )
    pool = _Pool(
        row_of={CLIENTS[index]: index for index in rows}.__getitem__,
        client_of=CLIENTS.__getitem__,
    )
    cohort = CohortSession(server, MOVIE, pool)
    for index, (base, anchor) in rows.items():
        cohort._put(index, base, anchor)
    sim.run_until(now)
    return cohort


# Anchors and share times on and around tick boundaries: k / 30 exactly
# as the timer chain computes it, one ulp-ish off either side, and free.
instants = st.one_of(
    st.integers(0, 200).map(lambda k: k * DELTA),
    st.integers(0, 200).map(lambda k: k / 30),
    st.tuples(st.integers(1, 200), st.sampled_from([-1e-9, 1e-9, -1e-12, 1e-12]))
    .map(lambda pair: pair[0] * DELTA + pair[1]),
    st.floats(0.0, 7.0, allow_nan=False),
)
row = st.tuples(st.integers(1, LIMIT), instants)


@given(
    rows=st.dictionaries(st.integers(0, len(CLIENTS) - 1), row, max_size=12),
    now=instants,
)
@settings(max_examples=300, deadline=None)
def test_sync_payload_is_position_of_for_every_row_in_row_order(rows, now):
    cohort = cohort_at(now, rows)
    now = cohort.sim.now
    share = cohort.sync_payload()
    assert share.rows == tuple(sorted(rows))
    assert share.offsets == tuple(
        cohort.position_of(CLIENTS[index], now) for index in share.rows
    )
    assert share.at == now and share.server == cohort.server.process
    assert all(1 <= offset <= LIMIT for offset in share.offsets)


def test_sync_payload_corner_rows():
    """The three corners by hand: a row anchored after the share time
    (negative ticks count as none), one past the end (clamped to one
    past the movie) and one exactly on a tick boundary."""
    now = 90 * DELTA
    cohort = cohort_at(now, {
        5: (7, now + 1.0),
        2: (LIMIT - 3, 0.0),
        9: (1, now - 30 * DELTA),
        0: (LIMIT, 0.0),
    })
    share = cohort.sync_payload()
    assert share.rows == (0, 2, 5, 9)
    assert share.offsets == (LIMIT, LIMIT, 7, 31)


@given(
    members=st.lists(st.sampled_from(CLIENTS), min_size=1, max_size=10),
    loads=st.lists(st.integers(0, 3), min_size=len(CLIENTS), max_size=len(CLIENTS)),
)
@settings(max_examples=300, deadline=None)
def test_least_loaded_is_min_by_load_then_member(members, loads):
    load = dict(zip(CLIENTS, loads))
    assert least_loaded(members, load.__getitem__) == min(
        members, key=lambda member: (load[member], member)
    )


def test_least_loaded_of_nobody_raises_like_min():
    with pytest.raises(ValueError):
        least_loaded([], {}.__getitem__)
