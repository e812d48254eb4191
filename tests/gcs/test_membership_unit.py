"""Unit tests for the GroupMember state machine with a scripted endpoint.

The integration tests exercise the protocol over the network; these pin
down individual transitions with full control over message injection.
"""

import pytest

from repro.gcs.membership import GroupMember, MemberState
from repro.gcs.messages import (
    FlushOk,
    FlushVector,
    JoinRequest,
    LeaveRequest,
    Multicast,
    Propose,
    ViewCommit,
)
from repro.gcs.view import ProcessId, ViewId

ME = ProcessId(1, "me")
PEER = ProcessId(2, "peer")
THIRD = ProcessId(3, "third")


class FakeEndpoint:
    """Scripted endpoint: records sends, exposes a controllable clock."""

    def __init__(self):
        self.now = 0.0
        self.daemon_id = 1
        self.sent = []  # (daemon, message)
        self.broadcasts = []
        self._suspected = set()

    def send_to_daemon(self, daemon, message):
        self.sent.append((daemon, message))

    def broadcast_domain(self, message):
        self.broadcasts.append(message)

    def suspected_daemons(self):
        return set(self._suspected)

    @staticmethod
    def daemon_of(process):
        return process.node

    def note_proposal(self):
        pass

    def note_installed_view(self, group, view):
        pass

    def note_left_process(self, group, process):
        pass

    def is_tombstoned(self, group, process):
        return False

    def sent_of_type(self, cls):
        return [m for _d, m in self.sent if isinstance(m, cls)]

    def broadcast_of_type(self, cls):
        return [m for m in self.broadcasts if isinstance(m, cls)]


@pytest.fixture
def member():
    endpoint = FakeEndpoint()
    views, messages = [], []
    gm = GroupMember(
        endpoint, "g", ME,
        on_view=views.append,
        on_message=lambda s, p: messages.append((s, p)),
    )
    return endpoint, gm, views, messages


def install_singleton(endpoint, gm):
    endpoint.now = 1.0
    gm.tick()  # past JOIN_SINGLETON_TIMEOUT
    assert gm.state == MemberState.NORMAL


def test_join_broadcasts_request(member):
    endpoint, gm, _v, _m = member
    assert len(endpoint.broadcast_of_type(JoinRequest)) == 1


def test_join_retries_until_view(member):
    endpoint, gm, _v, _m = member
    endpoint.now = 0.3
    gm.tick()
    assert len(endpoint.broadcast_of_type(JoinRequest)) == 2


def test_singleton_installed_after_timeout(member):
    endpoint, gm, views, _m = member
    install_singleton(endpoint, gm)
    assert views[-1].members == (ME,)
    assert views[-1].coordinator == ME


def test_join_request_triggers_proposal_from_coordinator(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    proposals = endpoint.sent_of_type(Propose)
    assert proposals and set(proposals[-1].members) == {ME, PEER}
    assert proposals[-1].prior == (ME,)


def test_duplicate_join_request_no_second_proposal(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    count = len(endpoint.sent_of_type(Propose))
    gm.on_join_request(JoinRequest("g", PEER))
    assert len(endpoint.sent_of_type(Propose)) == count


def test_flush_completes_with_peer_vector_and_ok(member):
    endpoint, gm, views, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    vid = gm.proposal.view_id
    gm.on_flush_vector(FlushVector("g", vid, PEER, {}))
    gm.on_flush_ok(FlushOk("g", vid, PEER))
    assert gm.state == MemberState.NORMAL
    assert set(views[-1].members) == {ME, PEER}
    commits = endpoint.sent_of_type(ViewCommit)
    assert commits and commits[-1].view_id == vid


def test_stale_proposal_rejected(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    old = Propose("g", ViewId(0, PEER), (ME, PEER))
    gm.on_propose(old)
    assert gm.proposal is None  # older than the installed view


def test_proposal_not_including_me_ignored(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    foreign = Propose("g", ViewId(9, PEER), (PEER, THIRD))
    gm.on_propose(foreign)
    assert gm.proposal is None


def test_higher_concurrent_proposal_wins(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    mine = gm.proposal.view_id
    higher = Propose(
        "g", ViewId(mine.counter, THIRD), (ME, PEER, THIRD)
    )
    assert ViewId(mine.counter, THIRD) > mine  # THIRD sorts after ME
    gm.on_propose(higher)
    assert gm.proposal.view_id == higher.view_id


def test_lower_concurrent_proposal_ignored(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", THIRD))
    mine = gm.proposal.view_id
    lower = Propose("g", ViewId(mine.counter, ProcessId(0, "a")), (ME, PEER))
    gm.on_propose(lower)
    assert gm.proposal.view_id == mine


def test_multicast_blocked_during_flush_released_on_install(member):
    endpoint, gm, _v, messages = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    assert gm.state == MemberState.FLUSHING
    gm.multicast("queued", 8)
    assert not endpoint.sent_of_type(Multicast)
    vid = gm.proposal.view_id
    gm.on_flush_vector(FlushVector("g", vid, PEER, {}))
    gm.on_flush_ok(FlushOk("g", vid, PEER))
    sent = endpoint.sent_of_type(Multicast)
    assert [m.payload for m in sent] == ["queued"]
    assert ("queued" in [p for _s, p in messages])  # local delivery too


def test_suspected_member_removed_by_coordinator(member):
    endpoint, gm, views, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    vid = gm.proposal.view_id
    gm.on_flush_vector(FlushVector("g", vid, PEER, {}))
    gm.on_flush_ok(FlushOk("g", vid, PEER))
    assert set(views[-1].members) == {ME, PEER}
    endpoint._suspected = {PEER.node}
    gm.on_suspicion_change()
    # With a single live member the flush completes synchronously.
    assert gm.state == MemberState.NORMAL
    assert views[-1].members == (ME,)
    assert views[-1].departed == (PEER,)


def test_leave_request_triggers_removal(member):
    endpoint, gm, views, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    vid = gm.proposal.view_id
    gm.on_flush_vector(FlushVector("g", vid, PEER, {}))
    gm.on_flush_ok(FlushOk("g", vid, PEER))
    gm.on_leave_request(LeaveRequest("g", PEER))
    # Single-survivor flush commits synchronously.
    assert views[-1].members == (ME,)


def test_left_member_ignores_everything(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    gm.leave()
    assert gm.state == MemberState.LEFT
    gm.on_join_request(JoinRequest("g", PEER))
    assert gm.proposal is None


def test_commit_for_installed_view_answered_from_cache(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    vid = gm.proposal.view_id
    gm.on_flush_vector(FlushVector("g", vid, PEER, {}))
    gm.on_flush_ok(FlushOk("g", vid, PEER))
    endpoint.sent.clear()
    # PEER lost the commit and re-sends its FlushOk.
    gm.on_flush_ok(FlushOk("g", vid, PEER))
    resent = endpoint.sent_of_type(ViewCommit)
    assert resent and resent[-1].view_id == vid


def test_reproposal_same_members_keeps_flush_episode_clock(member):
    """A FLUSH_TIMEOUT re-proposal over the same member set must carry
    the flush episode start forward: resetting it would starve the
    FLUSH_STALL_ADOPT escape (FLUSH_TIMEOUT < FLUSH_STALL_ADOPT) and a
    proposer whose cut demands messages a merged-in component already
    evicted as stable would re-propose forever."""
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    first = gm.proposal
    assert first.flush_since == first.started_at

    endpoint.now = first.started_at + 0.9  # past FLUSH_TIMEOUT
    gm.tick()
    second = gm.proposal
    assert second.view_id.counter == first.view_id.counter + 1
    assert set(second.members) == set(first.members)
    assert second.started_at == endpoint.now
    assert second.flush_since == first.flush_since


def test_reproposal_changed_members_resets_flush_episode_clock(member):
    endpoint, gm, _v, _m = member
    install_singleton(endpoint, gm)
    gm.on_join_request(JoinRequest("g", PEER))
    first = gm.proposal

    # A third process asks to join mid-flush: the changed member set
    # starts a fresh flush episode.
    endpoint.now = first.started_at + 0.5
    gm.on_join_request(JoinRequest("g", THIRD))
    second = gm.proposal
    assert set(second.members) == {ME, PEER, THIRD}
    assert second.flush_since == endpoint.now
    assert second.flush_since != first.flush_since
