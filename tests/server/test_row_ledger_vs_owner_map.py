"""``RowLedger`` is ``OwnerMap`` stored by pool row: driven through the
same operation sequences, the two give the same answer at every step.

``OwnerMap`` is the reference (the record ledger, a dict).  The row
ledger keeps the owner as a slot column and the load counts per slot;
what :func:`choose_owner` and :func:`rebalance` read of it — membership,
owners, load counts, the sorted clients — must not depend on which
shape the ledger has.  The pool grows under the ledger too: a flyweight
pool can take viewers after a cohort (and its ledger) exists.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcs.view import ProcessId
from repro.server.state import OwnerMap, RowLedger, least_loaded, rebalance

SERVERS = [ProcessId(i, f"server{i}") for i in range(1, 6)]
# Nodes out of step with names, so sorting by client is not row order.
CLIENTS = [ProcessId(40 - i % 7, f"client{i}") for i in range(24)]


class GrowingPool:
    """The two lookups and the length the ledger reads of a pool."""

    def __init__(self, size: int) -> None:
        self._clients = []
        self._index = {}
        self.row_of = self._index.__getitem__
        self.client_of = self._clients.__getitem__
        self.grow(size)

    def grow(self, size: int) -> None:
        for client in CLIENTS[len(self._clients):size]:
            self._index[client] = len(self._clients)
            self._clients.append(client)

    def __len__(self) -> int:
        return len(self._clients)


client = st.integers(0, len(CLIENTS) - 1)
server = st.sampled_from(SERVERS)
operation = st.one_of(
    st.tuples(st.just("set"), client, server, st.booleans()),
    st.tuples(st.just("pop"), client, st.booleans()),
    st.tuples(st.just("del"), client),
    st.tuples(st.just("get"), client),
    st.tuples(st.just("in"), client),
    st.tuples(st.just("grow"), st.integers(1, 6)),
    st.tuples(
        st.just("rebalance"), st.integers(1, len(SERVERS)),
        st.integers(0, len(SERVERS)),
    ),
)


def assert_same(rows: RowLedger, owners: OwnerMap) -> None:
    assert len(rows) == len(owners)
    assert bool(rows) == bool(owners)
    assert sorted(rows) == sorted(owners)
    assert sorted(rows.items()) == sorted(owners.items())
    for member in SERVERS:
        assert rows.load_of(member) == owners.load_of(member)
    assert least_loaded(SERVERS, rows.load_of) == least_loaded(
        SERVERS, owners.load_of
    )


@given(initial=st.integers(0, 12), operations=st.lists(operation, max_size=40))
@settings(max_examples=400, deadline=None)
def test_row_ledger_answers_like_owner_map(initial, operations):
    pool = GrowingPool(initial)
    rows = RowLedger(pool)
    owners = OwnerMap()
    for op in operations:
        kind = op[0]
        if kind == "grow":
            pool.grow(len(pool) + op[1])
        elif kind == "rebalance":
            live = SERVERS[:op[1]]
            joined = live[:op[2]]
            moves = rebalance(rows, live, joined)
            assert list(moves.items()) == list(
                rebalance(owners, live, joined).items()
            )
            for moved, target in moves.items():  # as a cohort applies them
                rows[moved] = owners[moved] = target
        else:
            who = CLIENTS[op[1]]
            in_pool = op[1] < len(pool)
            if kind == "set":
                if not in_pool:
                    continue  # only a pool row can have an owner
                if op[3]:
                    rows.set_at(pool.row_of(who), op[2])
                else:
                    rows[who] = op[2]
                owners[who] = op[2]
            elif kind == "pop":
                if op[2] and in_pool:
                    assert rows.pop_at(pool.row_of(who)) == owners.pop(who)
                else:
                    assert rows.pop(who, "none") == owners.pop(who, "none")
            elif kind == "del":
                outcomes = []
                for ledger in (rows, owners):
                    try:
                        del ledger[who]
                        outcomes.append("deleted")
                    except KeyError:
                        outcomes.append("KeyError")
                assert outcomes[0] == outcomes[1]
            elif kind == "get":
                assert rows.get(who) == owners.get(who)
                assert rows.get(who, "none") == owners.get(who, "none")
                if in_pool:
                    assert rows.owner_at(pool.row_of(who)) == owners.get(who)
            else:
                assert (who in rows) == (who in owners)
        assert_same(rows, owners)


def test_a_row_the_ledger_never_saw_has_no_owner():
    """Rows past the column (the pool grew) read as unowned, and setting
    one grows the column."""
    pool = GrowingPool(2)
    rows = RowLedger(pool)
    pool.grow(10)
    assert rows.owner_at(9) is None and rows.pop_at(9) is None
    assert CLIENTS[9] not in rows and rows.get(CLIENTS[9]) is None
    rows[CLIENTS[9]] = SERVERS[0]
    assert rows[CLIENTS[9]] == SERVERS[0]
    assert list(rows) == [CLIENTS[9]] and rows.load_of(SERVERS[0]) == 1
