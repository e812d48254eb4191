"""``GcsEndpoint._heartbeat_targets`` keeps its co-member half cached.

The daemons of every co-member are recomputed only after a join, a
leave, a proposal or a view installation, not on every heartbeat and
member tick.  The differential tests keep the uncached function as a
reference (here only) and check every call the simulation makes, over
random schedules of joins, leaves, crashes, restarts and partitions:
the same daemons, in the same iteration order (heartbeats go out in
that order, so a different order would move every digest).  The
daemons sit on nodes 1, 9, 17, ... 41, which share a slot in a set's
8- and 32-slot tables: the order then depends on how the set was
filled, not only on what it holds.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scale import build_scale_rig
from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.gcs import GcsDomain, GroupListener
from repro.gcs.endpoint import GcsEndpoint
from repro.net.topologies import build_lan
from repro.sim.core import Simulator

HOSTS = 6
SPACING = 8
GROUPS = ("g", "h", "k")


def reference_targets(endpoint):
    """The function as it was: every set rebuilt from the views."""
    targets = set()
    for member in endpoint._members.values():
        if member.view is not None:
            targets.update(p.node for p in member.view.members)
        if member.proposal is not None:
            targets.update(p.node for p in member.proposal.members)
    now = endpoint.sim.now
    targets.update(
        daemon
        for daemon, heard_at in endpoint._hb_heard.items()
        if now - heard_at <= endpoint.fd.timeout
    )
    targets.discard(endpoint.daemon_id)
    return targets


@contextmanager
def checked():
    """Patches ``_heartbeat_targets`` to compare every answer with the
    reference; counts the calls, and those that reused a cached
    co-member half."""
    counts = {"calls": 0, "warm": 0}
    cached = GcsEndpoint._heartbeat_targets

    def check(endpoint):
        counts["calls"] += 1
        counts["warm"] += endpoint._comembers is not None
        got = cached(endpoint)
        assert list(got) == list(reference_targets(endpoint))
        return got

    with mock.patch.object(GcsEndpoint, "_heartbeat_targets", check):
        yield counts


class World:
    """Six daemons on a switched LAN, driven by a list of operations."""

    def __init__(self) -> None:
        self.sim = Simulator(seed=7)
        self.topo = build_lan(self.sim, n_hosts=HOSTS * SPACING)
        self.network = self.topo.network
        self.domain = GcsDomain(self.sim, self.network)
        self.nodes = [self.topo.host(i * SPACING) for i in range(HOSTS)]
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
        group = GROUPS[arg % len(GROUPS)]
        if kind == "join" and endpoint is not None:
            if not endpoint.has_joined(group):
                endpoint.join(group, f"p{host}", GroupListener())
        elif kind == "leave" and endpoint is not None:
            endpoint.leave_group(group)
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
        self.sim.run_until(self.sim.now + gap)


_host = st.integers(min_value=0, max_value=HOSTS - 1)
_arg = st.integers(min_value=0, max_value=5)
# Same-instant operations, a heartbeat or two, and long enough for a
# view change.
_gap = st.sampled_from([0.0, 0.2, 0.7])
_op = st.one_of(
    st.tuples(st.just("join"), _host, _arg, _gap),
    st.tuples(st.just("join"), _host, _arg, _gap),
    st.tuples(st.just("leave"), _host, _arg, _gap),
    st.tuples(st.just("crash"), _host, _arg, _gap),
    st.tuples(st.just("restart"), _host, _arg, _gap),
    st.tuples(
        st.just("partition"), _host,
        st.integers(min_value=1, max_value=2**HOSTS - 2), _gap,
    ),
    st.tuples(st.just("heal"), _host, _arg, _gap),
)


@given(ops=st.lists(_op, min_size=5, max_size=25))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cached_targets_equal_the_rebuilt_ones_under_churn(ops):
    world = World()
    with checked() as counts:
        for host in range(HOSTS):
            world.apply(("join", host, host, 0.0))
        for op in ops:
            world.apply(op)
        world.sim.run_until(world.sim.now + 1.0)
    assert counts["calls"] > 0


def test_cached_targets_on_a_scale_rig_through_a_crash():
    """Hundreds of two-member session groups per server daemon: the
    case the cache is for (one rebuild, then ticks reuse it)."""
    with checked() as counts:
        sim, deployment, _viewers, observer = build_scale_rig(
            60, n_servers=3, seed=3, mode="full"
        )
        FaultInjector(deployment, FaultPlan().crash_most_loaded(3.0)).start()
        sim.run_until(6.0)
    assert observer.latencies
    assert counts["warm"] > counts["calls"] // 2
