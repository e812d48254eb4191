"""Property-based tests for the deterministic redistribution rule."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcs.view import ProcessId
from repro.net.address import Endpoint
from repro.server.state import OwnerMap, join_regime_order, rebalance
from repro.service.protocol import ClientRecord

SERVERS = [ProcessId(i, f"server{i}") for i in range(1, 6)]
CLIENTS = [ProcessId(20 + i, f"client{i}") for i in range(12)]


def record(client, server):
    return ClientRecord(
        client=client,
        movie="m",
        session=f"s.{client.name}",
        video_endpoint=Endpoint(client.node, 8000),
        offset=1,
        rate_fps=30,
        quality_fps=None,
        paused=False,
        epoch=0,
        server=server,
        updated_at=0.0,
    )


@st.composite
def situations(draw):
    n_servers = draw(st.integers(min_value=1, max_value=5))
    live = SERVERS[:n_servers]
    n_joined = draw(st.integers(min_value=0, max_value=n_servers))
    joined = live[:n_joined]
    n_clients = draw(st.integers(min_value=0, max_value=12))
    records = [
        record(CLIENTS[i], draw(st.sampled_from(SERVERS)))
        for i in range(n_clients)
    ]
    return records, live, joined


def as_owner_ledger(records):
    """The cohort's input shape: a client -> server OwnerMap."""
    return OwnerMap({rec.client: rec.server for rec in records})


@given(situation=situations())
@settings(max_examples=200, deadline=None)
def test_owner_ledger_shape_gives_the_same_answer(situation):
    """One rule, two ledgers: fed the row ledger (a client -> server
    map) instead of the record set, the result — and the order the
    moves are applied in — is identical."""
    records, live, joined = situation
    from_records = rebalance(records, live, joined)
    from_ledger = rebalance(as_owner_ledger(records), live, joined)
    assert list(from_ledger.items()) == list(from_records.items())
    assert rebalance(dict(from_ledger), live, joined=()) == from_ledger


def cohort_moves_reference(assignment, members, joined):
    """The row redistribution as the cohort used to spell it out itself
    (kept here as the reference the shared rule is compared against):
    the ordered ``(client, new owner)`` moves."""
    member_set = set(members)
    if set(joined) & member_set:
        order = join_regime_order(members, joined)
        moves = {
            client: order[position % len(order)]
            for position, client in enumerate(sorted(assignment))
        }
    else:
        moves = {}
        load = {m: 0 for m in members}
        orphans = []
        for client in sorted(assignment):
            owner = assignment[client]
            if owner in member_set:
                load[owner] += 1
            else:
                orphans.append(client)
        for client in orphans:
            target = min(members, key=lambda m: (load[m], m))
            load[target] += 1
            moves[client] = target
    return [(c, t) for c, t in moves.items() if assignment[c] != t]


@given(situation=situations())
@settings(max_examples=500, deadline=None)
def test_owner_ledger_moves_match_the_cohort_reference(situation):
    records, live, joined = situation
    if not live:
        return
    ledger = as_owner_ledger(records)
    moves = [
        (client, target)
        for client, target in rebalance(ledger, live, joined).items()
        if ledger[client] != target
    ]
    assert moves == cohort_moves_reference(ledger, tuple(live), tuple(joined))


@given(situation=situations(), cutoff=st.integers(min_value=0, max_value=12))
@settings(max_examples=200, deadline=None)
def test_can_serve_restricts_both_regimes_or_is_waived(situation, cutoff):
    records, live, joined = situation
    barred = CLIENTS[:cutoff]  # clients the first live server cannot carry

    def can_serve(client, server):
        return not (server == live[0] and client in barred)

    assignment = rebalance(records, live, joined, can_serve=can_serve)
    assert set(assignment) == {r.client for r in records}
    for client, server in assignment.items():
        # Waived only when nothing else is live.
        assert can_serve(client, server) or len(live) == 1


@given(situation=situations())
@settings(max_examples=200, deadline=None)
def test_every_client_assigned_to_a_live_server(situation):
    records, live, joined = situation
    assignment = rebalance(records, live, joined)
    assert set(assignment) == {r.client for r in records}
    assert set(assignment.values()) <= set(live)


@given(situation=situations())
@settings(max_examples=200, deadline=None)
def test_deterministic_and_input_order_independent(situation):
    records, live, joined = situation
    a = rebalance(records, live, joined)
    b = rebalance(list(reversed(records)), list(reversed(live)),
                  list(reversed(joined)))
    assert a == b


@given(situation=situations())
@settings(max_examples=200, deadline=None)
def test_join_regime_is_even(situation):
    records, live, joined = situation
    if not joined or not records:
        return
    assignment = rebalance(records, live, joined)
    loads = {server: 0 for server in live}
    for server in assignment.values():
        loads[server] += 1
    assert max(loads.values()) - min(loads.values()) <= 1


@given(situation=situations())
@settings(max_examples=200, deadline=None)
def test_failure_regime_keeps_survivor_clients(situation):
    records, live, _joined = situation
    assignment = rebalance(records, live, joined=())
    for rec in records:
        if rec.server in live:
            assert assignment[rec.client] == rec.server


@given(situation=situations())
@settings(max_examples=100, deadline=None)
def test_failure_regime_idempotent(situation):
    records, live, _joined = situation
    first = rebalance(records, live, joined=())
    re_records = [record(c, s) for c, s in first.items()]
    second = rebalance(re_records, live, joined=())
    assert first == second
