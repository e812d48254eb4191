"""Open-group sends address the group: the domain's group directory.

``GcsEndpoint.send_to_group`` sends one copy to each daemon
``GcsDomain.group_daemons`` lists instead of one to every daemon of the
deployment.  The differential test keeps the old domain-wide fan-out as
a reference (here only) and drives both through the same random
schedule of joins, leaves, crashes, restarts, partitions and sends: the
handlers that fire and their per-receiver order are the same, no
delivery is later, and wherever no skipped copy sat ahead on an idle
uplink the instants are identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.flyweight import FlyweightPool
from repro.experiments.scale import build_scale_rig
from repro.gcs import GcsDomain, GroupListener
from repro.gcs.messages import Heartbeat, OpenGroupSend
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.service.protocol import SERVER_GROUP
from repro.sim.core import Simulator

HOSTS = 5
GROUPS = ("g", "h")


def domain_wide_send(endpoint, group, payload, payload_bytes=64, sender_name="anon"):
    """The reference: ``send_to_group`` as it was, one unicast to every
    other daemon of the domain whether or not it can answer."""
    endpoint._ensure_open()
    endpoint._open_next_id += 1
    message = OpenGroupSend(
        group, endpoint.process_id(sender_name), payload, payload_bytes,
        endpoint._open_next_id,
    )
    endpoint.broadcast_domain(message)
    endpoint._deliver_open_send(message, endpoint.daemon_id)
    return endpoint._open_next_id


class World:
    """Five daemons on a switched LAN, driven by a list of operations."""

    def __init__(self, reference: bool) -> None:
        self.reference = reference
        self.sim = Simulator(seed=7)
        self.topo = build_lan(self.sim, n_hosts=HOSTS)
        self.network = self.topo.network
        self.domain = GcsDomain(self.sim, self.network)
        self.nodes = [self.topo.host(i) for i in range(HOSTS)]
        #: per host: (time, group, sender, payload) in handler order
        self.deliveries = [[] for _ in range(HOSTS)]
        #: payload -> (sent at, host, receiver node -> skipped copies ahead)
        self.sends = {}
        for node in self.nodes:
            self.domain.create_endpoint(node)

    def endpoint(self, host):
        node = self.nodes[host]
        if node in self.domain.daemon_nodes():
            return self.domain.endpoint(node)
        return None

    def apply(self, op) -> None:
        kind, host, arg, gap = op
        endpoint = self.endpoint(host)
        if kind == "join" and endpoint is not None:
            group = GROUPS[arg % len(GROUPS)]
            if not endpoint.has_joined(group):
                endpoint.join(group, f"p{host}", GroupListener())
                endpoint.register_open_group_handler(
                    group, self._recorder(host, group)
                )
        elif kind == "leave" and endpoint is not None:
            endpoint.leave_group(GROUPS[arg % len(GROUPS)])
        elif kind == "crash" and endpoint is not None:
            self.network.node(self.nodes[host]).crash()
            endpoint.crash()
        elif kind == "restart" and endpoint is None:
            self.network.node(self.nodes[host]).restart()
            self.domain.ensure_endpoint(self.nodes[host])
        elif kind == "partition":
            # ``arg`` is a bitmask of hosts cut off from the switch.
            cut = [self.nodes[i] for i in range(HOSTS) if arg >> i & 1]
            rest = [n for n in range(len(self.network.nodes)) if n not in cut]
            self.network.partition(cut, rest)
        elif kind == "heal":
            self.network.heal()
        elif kind == "send" and endpoint is not None:
            group = GROUPS[arg % len(GROUPS)]
            burst = 1 + arg // len(GROUPS) % 3
            for _ in range(burst):
                self._send(host, endpoint, group)
        self.check_directory()
        self.sim.run_until(self.sim.now + gap)

    def _send(self, host, endpoint, group) -> None:
        payload = len(self.sends)
        listed = set(self.domain.group_daemons(group))
        others = [d for d in self.domain.daemon_nodes() if d != endpoint.daemon_id]
        self.sends[payload] = (
            self.sim.now,
            host,
            {r: sum(d < r and d not in listed for d in others) for r in others},
        )
        # One sender name per host across restarts: request ids carry
        # the daemon's incarnation, so a restarted daemon's requests are
        # never taken for its predecessor's.
        name = f"s{host}"
        if self.reference:
            domain_wide_send(endpoint, group, payload, sender_name=name)
        else:
            endpoint.send_to_group(group, payload, sender_name=name)

    def _recorder(self, host, group):
        def record(sender, payload):
            self.deliveries[host].append((self.sim.now, group, sender, payload))

        return record

    def check_directory(self) -> None:
        for group in GROUPS:
            joined = sorted(
                node
                for node in self.domain.daemon_nodes()
                if group in self.domain.endpoint(node)._members
            )
            assert list(self.domain.group_daemons(group)) == joined


_host = st.integers(min_value=0, max_value=HOSTS - 1)
_arg = st.integers(min_value=0, max_value=5)
# Same-instant operations, a gap just wider than one fan-out's
# serialization, a few heartbeats, and long enough for a view change.
_gap = st.sampled_from([0.0, 0.001, 0.02, 0.3, 0.7])
_op = st.one_of(
    st.tuples(st.just("join"), _host, _arg, _gap),
    st.tuples(st.just("join"), _host, _arg, _gap),
    st.tuples(st.just("leave"), _host, _arg, _gap),
    st.tuples(st.just("send"), _host, _arg, _gap),
    st.tuples(st.just("send"), _host, _arg, _gap),
    st.tuples(st.just("send"), _host, _arg, _gap),
    st.tuples(st.just("crash"), _host, _arg, _gap),
    st.tuples(st.just("restart"), _host, _arg, _gap),
    st.tuples(
        st.just("partition"), _host,
        st.integers(min_value=1, max_value=2**HOSTS - 2), _gap,
    ),
    st.tuples(st.just("heal"), _host, _arg, _gap),
)


# Memberships in place (and their views settled) before the schedule
# starts, so that most sends have somebody to reach.
_settled = st.lists(st.tuples(st.just("join"), _host, _arg, st.just(0.0)), max_size=8)


@given(settled=_settled, ops=st.lists(_op, min_size=10, max_size=50))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_group_addressed_sends_equal_the_domain_wide_fan_out(settled, ops):
    addressed, reference = World(reference=False), World(reference=True)
    for world in (addressed, reference):
        for op in settled:
            world.apply(op)
        world.sim.run_until(1.5)
    for op in ops:
        addressed.apply(op)
        reference.apply(op)
    for world in (addressed, reference):
        world.sim.run_until(world.sim.now + 0.5)
    sends = addressed.sends
    for host in range(HOSTS):
        got, want = addressed.deliveries[host], reference.deliveries[host]
        # The same handlers fire for the same senders and payloads, in
        # the order the requests were sent.  Requests sent at the same
        # instant by *different* daemons race on the wire — under the
        # reference the winner was whoever had fewer non-member copies
        # queued first — so among those only each sender's own order is
        # compared.
        for deliveries in (got, want):
            instants = [sends[d[3]][0] for d in deliveries]
            assert instants == sorted(instants)
        assert sorted(d[1:] for d in got) == sorted(d[1:] for d in want)
        assert _per_sender(got) == _per_sender(want)
        node = addressed.nodes[host]
        at_reference = {d[3]: d[0] for d in want}
        for t_new, _group, _sender, payload in got:
            t_old = at_reference[payload]
            _at, _host, skipped_ahead = sends[payload]
            neighbours = _sends_within_half_a_millisecond(sends, payload)
            # Unless another daemon's request raced it to the receiver's
            # downlink, never later than the reference ...
            if all(sends[other][1] == sends[payload][1] for other in neighbours):
                assert t_new <= t_old
            # ... and at the identical instant when the uplink was idle
            # and no copy to a non-member used to go out first.
            if not neighbours and not skipped_ahead.get(node):
                assert t_new == t_old


def _sends_within_half_a_millisecond(sends, payload):
    """Other requests close enough to share a queue with this one (five
    100-byte copies serialize in 40 us on this LAN; one hop is 100 us)."""
    at = sends[payload][0]
    return [
        other
        for other, (other_at, _host, _skipped) in sends.items()
        if other != payload and abs(other_at - at) < 0.0005
    ]


def _per_sender(deliveries):
    out = {}
    for _time, group, sender, payload in deliveries:
        out.setdefault(sender, []).append((group, payload))
    return out


def _spaced_sends(members, senders, gap_s):
    """Both worlds, ``members`` joined to ``g``, forty requests."""
    worlds = World(reference=False), World(reference=True)
    for world in worlds:
        for host in members:
            world.apply(("join", host, 0, 0.0))
        world.sim.run_until(1.5)
        for i in range(40):
            world.apply(("send", senders[i % len(senders)], 0, gap_s))
        world.sim.run_until(world.sim.now + 0.5)
    return worlds


def test_members_on_the_lowest_nodes_hear_spaced_sends_at_the_same_instant():
    """The layout of every rig in the repo: servers are built first, so
    their daemons sort ahead of the client-side ones and the copies the
    directory drops were all queued *behind* the ones it keeps."""
    addressed, reference = _spaced_sends(members=(0, 1), senders=(3, 4), gap_s=0.001)
    assert addressed.deliveries == reference.deliveries
    assert [len(d) for d in addressed.deliveries] == [40, 40, 0, 0, 0]


def test_a_flood_reaches_members_earlier_than_it_used_to():
    """Same-instant requests used to queue each member copy behind the
    non-member copies of the requests before it."""
    addressed, reference = _spaced_sends(members=(0, 1), senders=(4,), gap_s=0.0)
    for got, want in zip(addressed.deliveries, reference.deliveries):
        assert [d[1:] for d in got] == [d[1:] for d in want]
        assert all(new[0] <= old[0] for new, old in zip(got, want))
    assert addressed.deliveries[0][-1][0] < reference.deliveries[0][-1][0]


def test_a_non_member_daemon_no_longer_sees_the_send():
    """What a daemon outside the group loses: the packet, and with it
    the ``_open_seen`` entry, the ``_last_heard`` stamp and the
    ``fd.heard_from`` refresh it used to take from the sender."""
    sim = Simulator(seed=1)
    topo = build_lan(sim, n_hosts=3)
    domain = GcsDomain(sim, topo.network)
    member, outsider, sender = (domain.create_endpoint(topo.host(i)) for i in range(3))
    got = []
    member.join("g", "m", GroupListener())
    member.register_open_group_handler("g", lambda s, p: got.append(p))
    sim.run_until(1.0)
    assert domain.group_daemons("g") == (member.daemon_id,)
    sender.send_to_group("g", "hello")
    sim.run_until(1.1)
    assert got == ["hello"]
    assert sender.control_packets_sent == 1
    assert not outsider._open_seen
    assert sender.daemon_id not in outsider._last_heard
    assert not outsider.heard_within(sender.daemon_id, 1.0)
    assert sender.daemon_id in member._last_heard


def test_the_directory_forgets_a_stopped_daemon_and_a_left_group():
    sim = Simulator(seed=1)
    topo = build_lan(sim, n_hosts=3)
    domain = GcsDomain(sim, topo.network)
    a, b, c = (domain.create_endpoint(topo.host(i)) for i in range(3))
    for endpoint in (a, b, c):
        endpoint.join("g", f"p{endpoint.daemon_id}", GroupListener())
    assert domain.group_daemons("g") == (a.daemon_id, b.daemon_id, c.daemon_id)
    assert domain.group_daemons("elsewhere") == ()
    b.leave_group("g")
    assert domain.group_daemons("g") == (a.daemon_id, c.daemon_id)
    c.crash()
    assert domain.group_daemons("g") == (a.daemon_id,)
    a.shutdown()
    assert domain.group_daemons("g") == ()
    again = domain.ensure_endpoint(topo.host(2))
    assert domain.group_daemons("g") == ()
    again.join("g", "back", GroupListener())
    assert domain.group_daemons("g") == (again.daemon_id,)


def test_a_served_clients_daemon_is_heard_through_heartbeats_alone():
    """``VoDServer._on_session_view`` is the one reader of the liveness a
    non-member used to take from connect copies: it asks
    ``heard_within(client.node, fd.timeout)`` before believing a session
    view that dropped the client.  The server it runs on has joined the
    client's session group, so the client's daemon heartbeats it: those
    alone must keep the answer true."""
    sim = Simulator(seed=23)
    topology = build_lan(sim, n_hosts=4)
    catalog = MovieCatalog([Movie.synthetic("m", duration_s=60.0)])
    deployment = Deployment(topology, catalog, server_nodes=[0, 1])
    client = deployment.attach_client(2)
    client.request_movie("m")
    sim.run_until(3.0)
    (server,) = [s for s in deployment.live_servers() if client.process in s.sessions]
    endpoint = server.endpoint
    beats = []
    on_heartbeat = endpoint._handlers[Heartbeat]

    def spy(message, from_daemon):
        if from_daemon == client.node_id:
            beats.append(sim.now)
        on_heartbeat(message, from_daemon)

    endpoint._handlers[Heartbeat] = spy
    sim.run_until(13.0)
    assert client.serving_server == server.process
    gaps = [later - earlier for earlier, later in zip([3.0] + beats, beats + [13.0])]
    assert max(gaps) < endpoint.fd.timeout
    assert endpoint.heard_within(client.node_id, endpoint.fd.timeout)


def test_one_control_packet_per_connect_attempt_per_live_server_daemon():
    sim, deployment, pool, _observer = build_scale_rig(
        600, 1.0, n_servers=3, seed=1, mode="flyweight"
    )
    assert isinstance(pool, FlyweightPool)
    domain = deployment.domain
    senders = [
        domain.endpoint(node)
        for node in domain.daemon_nodes()
        if not domain.endpoint(node).group_members()
    ]

    def packets():
        return sum(endpoint.control_packets_sent for endpoint in senders)

    # Crash inside the 2 s connect window: attempts on both sides of it.
    sim.run_until(1.0)
    assert len(domain.group_daemons(SERVER_GROUP)) == 3
    attempts_before, packets_before = pool.connects_sent, packets()
    assert attempts_before > 100
    assert packets_before == 3 * attempts_before
    deployment.busiest_server().crash()
    assert len(domain.group_daemons(SERVER_GROUP)) == 2
    sim.run_until(4.0)
    attempts_after = pool.connects_sent - attempts_before
    assert attempts_after > 100
    assert packets() - packets_before == 2 * attempts_after
