"""Integration tests for the group communication system.

Each test builds daemons on a simulated LAN (or WAN), drives membership
churn and traffic, and checks the GCS contract the VoD layer relies on:
view agreement, reliable FIFO multicast, join/leave/crash/partition
handling, open-group sends and reliable point-to-point.
"""

import pytest

from repro.gcs import GcsDomain, GroupListener
from repro.gcs.membership import MemberState
from repro.gcs.messages import JoinRequest, LeaveRequest
from repro.net.link import LinkParams
from repro.net.topologies import build_lan, build_wan
from repro.sim.core import Simulator


class Member:
    """A test process: joins a group and records what it observes."""

    def __init__(self, domain, host, group="g", name=None):
        self.name = name or f"p{host}"
        self.endpoint = domain.create_endpoint(host)
        self.views = []
        self.messages = []
        self.handle = self.endpoint.join(
            group,
            self.name,
            GroupListener(
                on_view=self.views.append,
                on_message=lambda s, p: self.messages.append((s, p)),
            ),
        )

    @property
    def process(self):
        return self.handle.process

    def current_members(self):
        view = self.handle.view
        return set(view.members) if view else set()

    def payloads(self):
        return [payload for _sender, payload in self.messages]


def make_cluster(n, seed=1, hosts=None):
    sim = Simulator(seed=seed)
    topo = build_lan(sim, n_hosts=max(n, hosts or n) + 1)
    domain = GcsDomain(sim, topo.network)
    members = [Member(domain, topo.host(i)) for i in range(n)]
    return sim, topo, domain, members


class TestJoin:
    def test_members_converge_to_one_view(self):
        sim, _topo, _domain, members = make_cluster(3)
        sim.run_until(2.0)
        views = [m.current_members() for m in members]
        assert views[0] == views[1] == views[2]
        assert len(views[0]) == 3

    def test_view_ids_agree(self):
        sim, _topo, _domain, members = make_cluster(3)
        sim.run_until(2.0)
        ids = {m.handle.view.view_id for m in members}
        assert len(ids) == 1

    def test_single_member_forms_singleton(self):
        sim, _topo, _domain, members = make_cluster(1)
        sim.run_until(1.0)
        assert members[0].current_members() == {members[0].process}

    def test_late_joiner_admitted(self):
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        late = Member(domain, topo.host(2))
        sim.run_until(4.0)
        for m in members + [late]:
            assert len(m.current_members()) == 3

    def test_joiner_does_not_see_old_messages(self):
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        members[0].handle.multicast("before-join", 16)
        sim.run_until(3.0)
        late = Member(domain, topo.host(2))
        sim.run_until(5.0)
        assert "before-join" not in late.payloads()

    def test_joiner_receives_new_messages(self):
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        late = Member(domain, topo.host(2))
        sim.run_until(4.0)
        members[0].handle.multicast("after-join", 16)
        sim.run_until(5.0)
        assert "after-join" in late.payloads()


class TestMulticast:
    def test_delivered_to_all_members_including_sender(self):
        sim, _topo, _domain, members = make_cluster(3)
        sim.run_until(2.0)
        members[1].handle.multicast("hello", 16)
        sim.run_until(3.0)
        for m in members:
            assert "hello" in m.payloads()

    def test_fifo_per_sender(self):
        sim, _topo, _domain, members = make_cluster(3)
        sim.run_until(2.0)
        for i in range(20):
            sim.call_at(2.0 + i * 0.01, members[0].handle.multicast, i, 16)
        sim.run_until(4.0)
        for m in members:
            ints = [p for p in m.payloads() if isinstance(p, int)]
            assert ints == list(range(20))

    def test_reliable_under_loss(self):
        # A lossy LAN: every packet has a 10% chance of vanishing.
        sim = Simulator(seed=3)
        lossy = LinkParams(delay_s=0.0005, loss_prob=0.10, bandwidth_bps=1e8)
        topo = build_lan(sim, n_hosts=4, link=lossy)
        domain = GcsDomain(sim, topo.network)
        members = [Member(domain, topo.host(i)) for i in range(3)]
        sim.run_until(3.0)
        for i in range(50):
            sim.call_at(3.0 + i * 0.02, members[0].handle.multicast, i, 16)
        sim.run_until(8.0)
        for m in members:
            ints = [p for p in m.payloads() if isinstance(p, int)]
            assert ints == list(range(50))

    def test_multicast_while_flushing_is_queued_not_lost(self):
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        # Trigger a view change and multicast during it.
        late = Member(domain, topo.host(2))
        sim.call_at(2.05, members[0].handle.multicast, "during-change", 16)
        sim.run_until(5.0)
        assert "during-change" in members[1].payloads()
        del late


class TestCrash:
    def crash(self, topo, domain, member, host):
        topo.network.node(topo.host(host)).crash()
        member.endpoint.crash()

    def test_crash_removes_member_from_views(self):
        sim, topo, domain, members = make_cluster(3)
        sim.run_until(2.0)
        self.crash(topo, domain, members[2], 2)
        sim.run_until(4.0)
        expected = {members[0].process, members[1].process}
        assert members[0].current_members() == expected
        assert members[1].current_members() == expected

    def test_crash_detected_within_a_second(self):
        sim, topo, domain, members = make_cluster(3)
        sim.run_until(2.0)
        self.crash(topo, domain, members[2], 2)
        sim.run_until(3.2)
        assert len(members[0].current_members()) == 2

    def test_coordinator_crash_handled(self):
        sim, topo, domain, members = make_cluster(3)
        sim.run_until(2.0)
        coordinator = members[0].handle.view.coordinator
        victim = next(m for m in members if m.process == coordinator)
        index = members.index(victim)
        self.crash(topo, domain, victim, index)
        sim.run_until(5.0)
        survivors = [m for m in members if m is not victim]
        for m in survivors:
            assert len(m.current_members()) == 2
            assert coordinator not in m.current_members()

    def test_messages_before_crash_delivered_to_survivors(self):
        sim, topo, domain, members = make_cluster(3)
        sim.run_until(2.0)
        members[2].handle.multicast("last-words", 16)
        sim.call_at(2.001, lambda: self.crash(topo, domain, members[2], 2))
        sim.run_until(5.0)
        assert "last-words" in members[0].payloads()
        assert "last-words" in members[1].payloads()

    def test_multicast_works_after_crash_recovery(self):
        sim, topo, domain, members = make_cluster(3)
        sim.run_until(2.0)
        self.crash(topo, domain, members[0], 0)
        sim.run_until(4.0)
        members[1].handle.multicast("post-crash", 16)
        sim.run_until(5.0)
        assert "post-crash" in members[2].payloads()


class TestLeave:
    def test_graceful_leave_updates_views_quickly(self):
        sim, _topo, _domain, members = make_cluster(3)
        sim.run_until(2.0)
        members[1].handle.leave()
        sim.run_until(2.5)  # no FD timeout needed
        assert members[1].process not in members[0].current_members()
        assert len(members[0].current_members()) == 2

    def test_leaver_can_rejoin(self):
        sim, topo, domain, members = make_cluster(2)
        sim.run_until(2.0)
        members[1].endpoint.leave_group("g")
        sim.run_until(3.0)
        assert len(members[0].current_members()) == 1
        rejoined_views = []
        members[1].endpoint.join(
            "g", "p1-again", GroupListener(on_view=rejoined_views.append)
        )
        sim.run_until(5.0)
        assert len(members[0].current_members()) == 2
        assert rejoined_views and len(rejoined_views[-1].members) == 2

    def test_multicast_after_leave_raises(self):
        from repro.errors import NotMemberError

        sim, _topo, _domain, members = make_cluster(2)
        sim.run_until(2.0)
        members[0].handle.leave()
        with pytest.raises(NotMemberError):
            members[0].handle.multicast("zombie", 16)


class TestLeaveDuringJoinFlush:
    """A process that joins and leaves again before the flush admitting
    it has finished must not stay in the proposal: its daemon is alive,
    so no failure detector will ever remove it, and it will never send
    the flush vector the proposer waits for."""

    def assert_settled(self, sim, members, until):
        sim.run_until(until)
        for m in members:
            assert m.handle._member.state == MemberState.NORMAL
            assert m.handle._member.proposal is None
            assert m.current_members() == {x.process for x in members}
        members[1].handle.multicast("after", 16)
        sim.run_until(until + 0.5)
        assert "after" in members[0].payloads()

    def test_leave_follows_join(self):
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        fickle = Member(domain, topo.host(2))
        sim.call_at(2.0002, fickle.handle.leave)
        self.assert_settled(sim, members, 5.0)

    def test_leave_follows_join_under_loss(self):
        sim = Simulator(seed=3)
        lossy = LinkParams(delay_s=0.0005, loss_prob=0.10, bandwidth_bps=1e8)
        topo = build_lan(sim, n_hosts=4, link=lossy)
        domain = GcsDomain(sim, topo.network)
        members = [Member(domain, topo.host(i)) for i in range(2)]
        sim.run_until(3.0)
        fickle = Member(domain, topo.host(2))
        sim.call_at(3.0002, fickle.handle.leave)
        self.assert_settled(sim, members, 8.0)

    def test_leave_overtakes_join(self):
        """On a jittery path the LeaveRequest can reach the proposer
        first; the JoinRequest that follows names a process that is
        already gone."""
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        gone = domain.create_endpoint(topo.host(2))
        ghost = gone.process_id("p-gone")
        for m in members:
            m.endpoint._dispatch(LeaveRequest("g", ghost), gone.daemon_id)
            m.endpoint._dispatch(JoinRequest("g", ghost), gone.daemon_id)
        self.assert_settled(sim, members, 5.0)

    def test_rejoin_after_the_early_leave_is_admitted(self):
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        fickle = Member(domain, topo.host(2))
        sim.call_at(2.0002, fickle.handle.leave)
        sim.run_until(4.0)
        again = fickle.endpoint.join(
            "g", fickle.name, GroupListener(on_view=fickle.views.append)
        )
        sim.run_until(6.0)
        assert len(again.view.members) == 3
        for m in members:
            assert len(m.current_members()) == 3


class TestPartition:
    def test_partition_forms_component_views(self):
        sim = Simulator(seed=3)
        topo = build_wan(sim, 2, 2)
        domain = GcsDomain(sim, topo.network)
        members = [Member(domain, topo.host(i)) for i in range(4)]
        sim.run_until(3.0)
        topo.network.set_link_state(0, 2, False)  # cut the WAN trunk
        sim.run_until(8.0)
        side_a = {members[0].process, members[1].process}
        side_b = {members[2].process, members[3].process}
        assert members[0].current_members() == side_a
        assert members[1].current_members() == side_a
        assert members[2].current_members() == side_b

    def test_merge_after_heal(self):
        sim = Simulator(seed=3)
        topo = build_wan(sim, 2, 2)
        domain = GcsDomain(sim, topo.network)
        members = [Member(domain, topo.host(i)) for i in range(4)]
        sim.run_until(3.0)
        topo.network.set_link_state(0, 2, False)
        sim.run_until(8.0)
        members[0].handle.multicast("a-side", 16)
        members[2].handle.multicast("b-side", 16)
        sim.run_until(10.0)
        topo.network.set_link_state(0, 2, True)
        sim.run_until(20.0)
        everyone = {m.process for m in members}
        for m in members:
            assert m.current_members() == everyone
        # Multicast flows across the merged group again.
        members[3].handle.multicast("post-merge", 16)
        sim.run_until(21.0)
        for m in members:
            assert "post-merge" in m.payloads()


class TestOpenGroupAndP2p:
    def test_open_group_send_reaches_members(self):
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        received = []
        members[0].endpoint.register_open_group_handler(
            "g", lambda s, p: received.append((s, p))
        )
        outsider = domain.create_endpoint(topo.host(2))
        outsider.send_to_group("g", "knock", 16, sender_name="outsider")
        sim.run_until(3.0)
        assert received and received[0][1] == "knock"
        assert received[0][0].name == "outsider"

    def test_open_group_duplicate_requests_suppressed(self):
        sim, topo, domain, members = make_cluster(2, hosts=3)
        sim.run_until(2.0)
        received = []
        members[0].endpoint.register_open_group_handler(
            "g", lambda s, p: received.append(p)
        )
        outsider = domain.create_endpoint(topo.host(2))
        request_id = outsider.send_to_group("g", "knock", 16)
        sim.run_until(3.0)
        assert len(received) == 1
        del request_id

    def test_p2p_delivery_and_dedup(self):
        sim, topo, domain, members = make_cluster(2)
        sim.run_until(2.0)
        got = []
        members[1].endpoint.register_p2p_handler(
            members[1].name, lambda s, p: got.append(p)
        )
        members[0].endpoint.send_p2p(
            members[1].process, "direct", 16, sender_name="p0"
        )
        sim.run_until(3.0)
        assert got == ["direct"]

    def test_p2p_survives_loss(self):
        sim = Simulator(seed=9)
        lossy = LinkParams(delay_s=0.0005, loss_prob=0.4, bandwidth_bps=1e8)
        topo = build_lan(sim, n_hosts=2, link=lossy)
        domain = GcsDomain(sim, topo.network)
        a = domain.create_endpoint(topo.host(0))
        b = domain.create_endpoint(topo.host(1))
        got = []
        b.register_p2p_handler("target", lambda s, p: got.append(p))
        from repro.gcs.view import ProcessId

        a.send_p2p(ProcessId(topo.host(1), "target"), "please", 16)
        sim.run_until(5.0)
        assert got == ["please"]


class TestVirtualSynchronyFlavour:
    def test_same_messages_before_view_change(self):
        """Messages sent before a crash are delivered to both survivors
        (all-or-none within the surviving component)."""
        sim, topo, domain, members = make_cluster(3)
        sim.run_until(2.0)
        for i in range(10):
            members[0].handle.multicast(("pre", i), 16)
        topo.network.node(topo.host(0)).crash()
        members[0].endpoint.crash()
        sim.run_until(6.0)
        set_1 = {p for p in members[1].payloads() if isinstance(p, tuple)}
        set_2 = {p for p in members[2].payloads() if isinstance(p, tuple)}
        assert set_1 == set_2

    def test_view_sequence_monotonic(self):
        sim, topo, domain, members = make_cluster(3)
        sim.run_until(2.0)
        topo.network.node(topo.host(2)).crash()
        members[2].endpoint.crash()
        sim.run_until(5.0)
        for m in members[:2]:
            ids = [v.view_id for v in m.views]
            assert all(a < b for a, b in zip(ids, ids[1:]))


class TestSilentLossRecovery:
    def test_single_lost_message_recovered_via_heartbeat_vectors(self):
        """A lost multicast with NO follow-up traffic is still
        recovered: heartbeat ack-vectors expose the deficit and the
        normal NACK machinery fills it (regression: a lost one-shot
        control message like PAUSE used to vanish forever)."""
        sim = Simulator(seed=41)
        # Deterministic single loss: drop exactly the first multicast.
        topo = build_lan(sim, n_hosts=2)
        domain = GcsDomain(sim, topo.network)
        members = [Member(domain, topo.host(i)) for i in range(2)]
        sim.run_until(2.0)

        # Intercept the link to drop the next Multicast datagram once.
        from repro.gcs.messages import Multicast as McastMsg

        link = topo.network.link(topo.host(0), topo.infrastructure[0])
        direction = link.direction(topo.host(0))
        original_transmit = direction.transmit
        dropped = []

        def dropping_transmit(datagram, deliver, guaranteed=False):
            if isinstance(datagram.payload, McastMsg) and not dropped:
                dropped.append(datagram)
                return  # silently lost
            original_transmit(datagram, deliver, guaranteed)

        direction.transmit = dropping_transmit
        members[0].handle.multicast("one-shot", 16)
        sim.run_until(4.0)
        assert dropped, "interception did not fire"
        assert "one-shot" in members[1].payloads()
