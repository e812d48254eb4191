"""Unit tests for the GCS daemon endpoint services."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gcs.endpoint as endpoint_module
from repro.errors import GroupError
from repro.gcs import GcsDomain, GroupListener
from repro.gcs.endpoint import SEEN_CAP
from repro.gcs.messages import OpenGroupSend, PointToPoint
from repro.gcs.view import ProcessId
from repro.net.topologies import build_lan
from repro.sim.core import Simulator


@pytest.fixture
def rig():
    sim = Simulator(seed=6)
    topo = build_lan(sim, n_hosts=3)
    domain = GcsDomain(sim, topo.network)
    endpoints = [domain.create_endpoint(topo.host(i)) for i in range(3)]
    return sim, topo, domain, endpoints


def test_one_member_per_group_per_daemon(rig):
    _sim, _topo, _domain, endpoints = rig
    endpoints[0].join("g", "a", GroupListener())
    with pytest.raises(GroupError):
        endpoints[0].join("g", "b", GroupListener())


def test_rejoin_after_leave_allowed(rig):
    sim, _topo, _domain, endpoints = rig
    endpoints[0].join("g", "a", GroupListener())
    sim.run_until(1.0)
    endpoints[0].leave_group("g")
    endpoints[0].join("g", "a2", GroupListener())


def test_duplicate_daemon_on_node_rejected(rig):
    _sim, topo, domain, _endpoints = rig
    with pytest.raises(ValueError):
        domain.create_endpoint(topo.host(0))


def test_daemon_recreate_after_crash(rig):
    sim, topo, domain, endpoints = rig
    endpoints[0].crash()
    topo.network.node(topo.host(0)).restart()
    fresh = domain.create_endpoint(topo.host(0))
    assert not fresh.closed


def test_group_view_lookup(rig):
    sim, _topo, _domain, endpoints = rig
    endpoints[0].join("g", "a", GroupListener())
    endpoints[1].join("g", "b", GroupListener())
    sim.run_until(2.0)
    view = endpoints[0].group_view("g")
    assert view is not None and len(view.members) == 2
    assert endpoints[2].group_view("g") is None


def test_shutdown_leaves_groups(rig):
    sim, _topo, _domain, endpoints = rig
    views = []
    endpoints[0].join("g", "a", GroupListener(on_view=views.append))
    endpoints[1].join("g", "b", GroupListener())
    sim.run_until(2.0)
    endpoints[1].shutdown()
    sim.run_until(3.0)
    assert len(views[-1].members) == 1
    assert endpoints[1].closed


def test_operations_on_closed_endpoint_raise(rig):
    _sim, _topo, _domain, endpoints = rig
    endpoints[0].shutdown()
    with pytest.raises(GroupError):
        endpoints[0].join("g", "a", GroupListener())
    with pytest.raises(GroupError):
        endpoints[0].send_to_group("g", "x")


def test_open_group_send_without_members_is_harmless(rig):
    sim, _topo, _domain, endpoints = rig
    endpoints[0].send_to_group("empty-group", "hello")
    sim.run_until(1.0)  # nobody joined: nothing happens, nothing crashes


def test_open_group_local_delivery(rig):
    sim, _topo, _domain, endpoints = rig
    got = []
    endpoints[0].join("g", "a", GroupListener())
    endpoints[0].register_open_group_handler("g", lambda s, p: got.append(p))
    sim.run_until(1.0)
    endpoints[0].send_to_group("g", "self-call")
    sim.run_until(2.0)
    assert got == ["self-call"]


def test_p2p_to_dead_daemon_gives_up(rig):
    sim, topo, _domain, endpoints = rig
    topo.network.node(topo.host(1)).crash()
    endpoints[1].crash()
    endpoints[0].send_p2p(ProcessId(topo.host(1), "ghost"), "hello")
    sim.run_until(10.0)
    assert endpoints[0]._p2p_pending == {}  # retries exhausted, cleaned up


def test_p2p_handler_per_process_name(rig):
    sim, _topo, _domain, endpoints = rig
    got_a, got_b = [], []
    endpoints[1].register_p2p_handler("a", lambda s, p: got_a.append(p))
    endpoints[1].register_p2p_handler("b", lambda s, p: got_b.append(p))
    endpoints[0].send_p2p(ProcessId(endpoints[1].daemon_id, "b"), "for-b")
    sim.run_until(2.0)
    assert got_a == []
    assert got_b == ["for-b"]


def test_control_traffic_accounted(rig):
    sim, _topo, _domain, endpoints = rig
    endpoints[0].join("g", "a", GroupListener())
    endpoints[1].join("g", "b", GroupListener())
    sim.run_until(3.0)
    assert endpoints[0].control_bytes_sent > 0
    assert endpoints[0].control_packets_sent > 0


def test_heartbeats_only_to_co_members(rig):
    sim, _topo, _domain, endpoints = rig
    endpoints[0].join("g", "a", GroupListener())
    endpoints[1].join("g", "b", GroupListener())
    # endpoint 2 joins nothing shared.
    sim.run_until(3.0)
    targets = endpoints[0]._heartbeat_targets()
    assert endpoints[1].daemon_id in targets
    assert endpoints[2].daemon_id not in targets


def test_heartbeats_reciprocate_recent_senders(rig):
    """A daemon answers daemons that are heartbeating *it*, even when its
    own views list none of their processes — one-way view divergence
    after a partition merge must not read as daemon death."""
    sim, _topo, _domain, endpoints = rig
    endpoints[0].join("g", "a", GroupListener())
    sim.run_until(1.5)
    stranger = endpoints[2].daemon_id
    assert stranger not in endpoints[0]._heartbeat_targets()
    # A fresh heartbeat from the stranger makes it a target...
    endpoints[0]._hb_heard[stranger] = sim.now
    assert stranger in endpoints[0]._heartbeat_targets()
    # ...but only while it keeps sending: a stale entry ages out.
    endpoints[0]._hb_heard[stranger] = sim.now - endpoints[0].fd.timeout - 0.01
    assert stranger not in endpoints[0]._heartbeat_targets()


def test_heard_within_tracks_any_traffic(rig):
    sim, _topo, _domain, endpoints = rig
    endpoints[0].join("g", "a", GroupListener())
    endpoints[1].join("g", "b", GroupListener())
    sim.run_until(3.0)
    # Co-members exchange heartbeats constantly.
    assert endpoints[0].heard_within(endpoints[1].daemon_id, 0.5)
    # The silent third daemon has never been heard from.
    assert not endpoints[0].heard_within(endpoints[2].daemon_id, 0.5)
    # A daemon always counts as having heard itself.
    assert endpoints[0].heard_within(endpoints[0].daemon_id, 0.5)


def test_crashing_a_stopped_daemon_again_leaves_its_successor_registered(rig):
    """``crash()`` on a daemon object that already stopped must not take
    the daemon since restarted on that node out of the domain (it used
    to: ``remove_endpoint`` went by node id)."""
    sim, topo, domain, endpoints = rig
    node = topo.host(0)
    old = endpoints[0]
    topo.network.node(node).crash()
    old.crash()
    topo.network.node(node).restart()
    fresh = domain.ensure_endpoint(node)
    got = []
    fresh.join("g", "a", GroupListener())
    fresh.register_open_group_handler("g", lambda s, p: got.append(p))
    sim.run_until(1.0)

    old.crash()
    old.shutdown()
    assert domain.endpoint(node) is fresh
    assert node in domain.daemon_nodes()
    assert domain.group_daemons("g") == (node,)
    endpoints[1].send_to_group("g", "still here")
    sim.run_until(2.0)
    assert got == ["still here"]


def test_a_restarted_daemons_requests_are_not_taken_for_its_predecessors(rig):
    """Receivers suppress duplicates by (sender, id) — open-group
    requests and reliable p2p alike.  A restarted daemon must not re-use
    its predecessor's ids, or its first k messages vanish as duplicates
    (the p2p ones acknowledged, so never retried)."""
    sim, topo, domain, endpoints = rig
    node = topo.host(0)
    server = ProcessId(endpoints[1].daemon_id, "server")
    got, direct = [], []
    endpoints[1].join("g", "server", GroupListener())
    endpoints[1].register_open_group_handler("g", lambda s, p: got.append(p))
    endpoints[1].register_p2p_handler("server", lambda s, p: direct.append(p))
    sim.run_until(1.0)
    first_ids = []
    for i in range(3):
        first_ids.append(
            endpoints[0].send_to_group("g", f"first-{i}", sender_name="client")
        )
        endpoints[0].send_p2p(server, f"first-{i}", sender_name="client")
    sim.run_until(2.0)

    topo.network.node(node).crash()
    endpoints[0].crash()
    topo.network.node(node).restart()
    fresh = domain.ensure_endpoint(node)
    second_id = fresh.send_to_group("g", "second-0", sender_name="client")
    fresh.send_p2p(server, "second-0", sender_name="client")
    sim.run_until(3.0)
    assert got == direct == ["first-0", "first-1", "first-2", "second-0"]
    assert second_id not in first_ids
    # The incarnation rides inside the id, which stays within the 8 bytes
    # OpenGroupSend / PointToPoint.wire_bytes() charge for it.
    assert 0 < second_id < 2 ** 64


def _open_send(sender_daemon, request_id, payload, name="client"):
    return OpenGroupSend("g", ProcessId(sender_daemon, name), payload, 64, request_id)


def _receiver(rig):
    sim, _topo, _domain, endpoints = rig
    got = []
    receiver = endpoints[1]
    receiver.join("g", "server", GroupListener())
    receiver.register_open_group_handler("g", lambda s, p: got.append(p))
    sim.run_until(1.0)
    return receiver, got


def test_open_sends_are_deduplicated_per_sending_daemon(rig):
    """Request ids are per daemon: a repeat from the same daemon is a
    duplicate whichever process name sent it, the same id minted by
    another daemon (or by the same node's next incarnation) is not."""
    receiver, got = _receiver(rig)
    a, b = rig[3][0].daemon_id, rig[3][2].daemon_id
    receiver._deliver_open_send(_open_send(a, 1, "a1"), a)
    receiver._deliver_open_send(_open_send(a, 1, "a1 again"), a)
    receiver._deliver_open_send(_open_send(a, 1, "a1 renamed", name="other"), a)
    receiver._deliver_open_send(_open_send(b, 1, "b1"), b)
    receiver._deliver_open_send(_open_send(a, (1 << 32) + 1, "a1 reborn"), a)
    receiver._deliver_open_send(_open_send(a, 2, "a2"), a)
    assert got == ["a1", "b1", "a1 reborn", "a2"]


def test_a_duplicate_straddling_the_open_send_cap_is_still_suppressed(rig):
    """At the cap the receiver used to forget *every* id, so a fault-plan
    duplicate (``duplicate_delay_s``) of the send that crossed it was
    delivered twice.  Now the older half folds into a low-water mark."""
    receiver, got = _receiver(rig)
    a, b = rig[3][0].daemon_id, rig[3][2].daemon_id
    receiver._deliver_open_send(_open_send(b, 7, "b7"), b)
    for request_id in range(1, SEEN_CAP + 2):
        receiver._deliver_open_send(_open_send(a, request_id, request_id), a)
    assert len(got) == SEEN_CAP + 2
    for late in (SEEN_CAP + 1, SEEN_CAP, SEEN_CAP // 2 + 2, SEEN_CAP // 2, 1):
        receiver._deliver_open_send(_open_send(a, late, "duplicate"), a)
    receiver._deliver_open_send(_open_send(b, 7, "duplicate"), b)
    assert len(got) == SEEN_CAP + 2
    assert len(receiver._open_seen[a]) <= SEEN_CAP // 2 + 1
    # New ids keep flowing, from this incarnation and the next.
    receiver._deliver_open_send(_open_send(a, SEEN_CAP + 2, "next"), a)
    receiver._deliver_open_send(_open_send(a, (1 << 32) + 1, "reborn"), a)
    assert got[-2:] == ["next", "reborn"]


def test_a_duplicate_straddling_the_p2p_cap_is_still_suppressed(rig):
    """Reliable p2p: past the cap the oldest half (by arrival) goes, not
    everything, so a retransmission of a recent message stays one."""
    _sim, _topo, _domain, endpoints = rig
    receiver, sender = endpoints[1], ProcessId(endpoints[0].daemon_id, "client")
    target = ProcessId(receiver.daemon_id, "server")
    got = []
    receiver.register_p2p_handler("server", lambda s, p: got.append(p))
    receiver.send_to_daemon = lambda daemon, message: None  # acks: not under test
    for seq in range(1, SEEN_CAP + 2):
        receiver._on_p2p(PointToPoint(sender, target, seq, seq, 64), sender.node)
    assert len(got) == SEEN_CAP + 1
    for late in (SEEN_CAP + 1, SEEN_CAP, SEEN_CAP // 2 + 2):
        receiver._on_p2p(PointToPoint(sender, target, late, "duplicate", 64), sender.node)
    assert len(got) == SEEN_CAP + 1
    assert len(receiver._p2p_seen) <= SEEN_CAP // 2 + 1


def test_local_open_sends_skip_the_dedupe_ledger(rig):
    """A send a daemon hands its own members never crosses the network,
    so nothing can duplicate it: the sender keeps no ledger entry, and
    the one remote member holds the whole stream as a single run."""
    sim, _topo, _domain, endpoints = rig
    member, sender = endpoints[1], endpoints[0]
    got = []
    member.join("g", "m", GroupListener())
    member.register_open_group_handler("g", lambda s, p: got.append(p))
    sim.run_until(1.0)
    for n in range(1000):  # 1 ms apart: one burst would overflow the uplink
        sim.call_at(1.0 + n * 0.001, sender.send_to_group, "g", n)
    sim.run_until(2.5)
    assert got == list(range(1000))
    assert not sender._open_seen
    assert len(member._open_seen[sender.daemon_id]) == 1000
    assert len(member._open_seen[sender.daemon_id].bounds) == 2


class _ReferenceLedger:
    """The dedupe as a plain set per sending daemon plus the low-water
    fold: what ``_deliver_open_send`` suppresses, by definition."""

    def __init__(self, cap):
        self.cap = cap
        self.seen = {}
        self.low = {}

    def accept(self, daemon, request_id):
        seen = self.seen.setdefault(daemon, set())
        if request_id in seen or request_id <= self.low.get(daemon, 0):
            return False
        seen.add(request_id)
        if len(seen) > self.cap:
            older = sorted(seen)[: len(seen) // 2]
            self.low[daemon] = older[-1]
            seen.difference_update(older)
        return True


@st.composite
def _open_send_streams(draw):
    """Two daemons' id streams, interleaved: each a run of ids (some
    from the next incarnation, ``1 << 32`` up) with permanent gaps,
    duplicates and bounded reordering."""
    arrivals = []
    for daemon in (2, 3):
        n = draw(st.integers(0, 40))
        reborn = draw(st.integers(0, 8))
        ids = list(range(1, n + 1)) + [(1 << 32) + k for k in range(1, reborn + 1)]
        lost = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        sent = [i for i, gone in zip(ids, lost) if not gone]
        late = draw(st.lists(st.integers(0, 6), min_size=len(sent), max_size=len(sent)))
        stream = [(pos + delay, daemon, i) for pos, (i, delay) in enumerate(zip(sent, late))]
        if sent:
            copies = draw(st.lists(
                st.tuples(st.integers(0, len(sent) + 6), st.sampled_from(sent)),
                max_size=10,
            ))
            stream += [(at, daemon, i) for at, i in copies]
        arrivals += stream
    order = draw(st.permutations(range(len(arrivals))))
    # Sort by arrival slot; ties broken by a drawn permutation, so the
    # two daemons' streams interleave every which way.
    keyed = sorted(zip(arrivals, order), key=lambda pair: (pair[0][0], pair[1]))
    return [(daemon, i) for (_at, daemon, i), _ in keyed]


def test_the_run_ledger_suppresses_exactly_what_a_plain_set_does(rig, monkeypatch):
    """Differential: the run-length ledger against a plain set with the
    same low-water fold, over reordered, duplicated, gapped streams
    across an incarnation jump, with a cap small enough to fold often."""
    receiver, got = _receiver(rig)

    @given(stream=_open_send_streams(), cap=st.integers(1, 12))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def check(stream, cap):
        monkeypatch.setattr(endpoint_module, "SEEN_CAP", cap)
        receiver._open_seen.clear()
        receiver._open_low.clear()
        got.clear()
        reference = _ReferenceLedger(cap)
        want = []
        for k, (daemon, request_id) in enumerate(stream):
            receiver._deliver_open_send(_open_send(daemon, request_id, k), daemon)
            if reference.accept(daemon, request_id):
                want.append(k)
        assert got == want
        for daemon, seen in reference.seen.items():
            assert len(receiver._open_seen[daemon]) == len(seen)
            assert receiver._open_low.get(daemon, 0) == reference.low.get(daemon, 0)

    check()
