"""The admission queue holds flyweight rows as flags, full clients as
requests, and drains both in one sorted client order.

A queued row keeps no :class:`ConnectRequest`: the pool's columns say
what the request said, so the queue stores one byte per pool row and
the drain admits the row by index.  What must not change is the order
(every replica drains the same sorted client sequence, rows and full
clients interleaved), the count (a retry replaces, never adds) and the
idle state (nothing of a delivered request stays alive).
"""

import gc
from types import SimpleNamespace

from repro.gcs.view import ProcessId
from repro.net.address import Endpoint
from repro.server.admission import AdmissionQueue
from repro.service.protocol import ConnectRequest
from repro.sim.core import Simulator

# Nodes interleave the two kinds, so only a merged drain is sorted.
ROWS = [ProcessId(node, f"row{node}") for node in (9, 2, 7, 4)]
FULL = [ProcessId(node, f"full{node}") for node in (8, 1, 5)]


class RowsPool(list):
    """The rows' clients by pool row: what the queue reads of a pool."""

    def client_of(self, index):
        return self[index]


class StubReplica:
    """What the queue reads of a replica, recording what it admits."""

    def __init__(self) -> None:
        self.sim = Simulator(seed=1)
        self.pool = RowsPool(ROWS)
        self.view = None  # the movie group's first view is still forming
        self.settling = False
        self.settle_until = 0.0
        self.server = SimpleNamespace(
            running=True, name="server0",
            config=SimpleNamespace(sync_interval_s=0.5),
        )
        self.title = "feature"
        self.admitted = []
        self.syncs = 0

    def connect(self, request, sync=True):
        assert not sync  # the drain shares once, at the end
        self.admitted.append(("full", request.client))

    def connect_row(self, index):
        self.admitted.append(("row", ROWS[index]))

    def sync(self):
        self.syncs += 1


def request_for(client):
    return ConnectRequest(
        client=client, movie="feature",
        video_endpoint=Endpoint(client.node, 30000),
        session=f"vod.session.{client.name}",
    )


def test_rows_and_full_clients_drain_in_one_sorted_client_order():
    replica = StubReplica()
    queue = AdmissionQueue(replica)
    for index in (3, 0, 2):
        assert queue.defer_row(index)
    for client in FULL:
        assert queue.defer(request_for(client))
    assert queue.defer_row(1)
    assert queue.pending() == len(ROWS) + len(FULL)
    replica.view = object()  # a view, not settling: the drain admits
    replica.sim.run_until(1.0)
    expected = sorted(
        [("row", client) for client in ROWS]
        + [("full", client) for client in FULL],
        key=lambda entry: entry[1],
    )
    assert replica.admitted == expected
    assert [client for _, client in replica.admitted] == sorted(ROWS + FULL)
    assert replica.syncs == 1
    assert queue.pending() == 0


def test_a_row_retry_does_not_count_twice():
    replica = StubReplica()
    queue = AdmissionQueue(replica)
    assert queue.defer_row(2)
    assert queue.defer(request_for(FULL[0]))
    assert queue.defer_row(2)  # the row's 1 s retry, still settling
    assert queue.defer(request_for(FULL[0]))
    assert queue.pending() == 2
    assert queue.deferred_total == 4  # every deferral, retries included
    replica.view = object()
    replica.sim.run_until(1.0)
    assert replica.admitted == [("row", ROWS[2]), ("full", FULL[0])]


def test_nothing_waits_once_the_view_has_settled():
    replica = StubReplica()
    replica.view = object()
    queue = AdmissionQueue(replica)
    assert not queue.defer_row(0)
    assert not queue.defer(request_for(FULL[0]))
    assert queue.pending() == 0 and queue.deferred_total == 0


def test_close_forgets_queued_rows():
    replica = StubReplica()
    queue = AdmissionQueue(replica)
    queue.defer_row(3)
    queue.defer(request_for(FULL[1]))
    queue.close()
    assert queue.pending() == 0
    replica.view = object()
    replica.sim.run_until(2.0)
    assert replica.admitted == []


def test_a_deferred_row_keeps_no_reference_to_its_request():
    """The real connect path: a row's request delivered while the view
    forms is absorbed and dropped; a full client's is held."""
    from repro.experiments.scale import build_scale_rig

    sim, deployment, pool, _ = build_scale_rig(
        30, 1.0, mode="flyweight", connect_window_s=0.0
    )
    sim.run_until(1.2)
    replica = deployment.server("server0").movies["feature"]
    admission = replica.admission
    assert admission.pending() == 30  # the movie group is still settling
    deferred = admission.deferred_total

    row_request = pool.connect_request(len(pool) - 1)
    replica.connect(row_request)
    assert admission.deferred_total == deferred + 1  # absorbed...
    assert admission.pending() == 30  # ...as the retry of a queued row
    queue_state = [admission.__dict__, admission._pending, admission._rows]
    referrers = gc.get_referrers(row_request)
    assert not any(
        held is referrer for referrer in referrers for held in queue_state
    )

    # The check has teeth: a full client's request is held by the queue.
    full_request = request_for(ProcessId(99, "full99"))
    replica.connect(full_request)
    assert any(
        referrer is admission._pending
        for referrer in gc.get_referrers(full_request)
    )
