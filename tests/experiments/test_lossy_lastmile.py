"""A 2 % lossy last mile and no server fault: every viewer served, once.

The scale rig with the matrix's ``lossy-lastmile`` impairment
(``LinkFault(drop_prob=0.02, extra_delay_s=0.005)``) on every edge host
from t = 0, and nothing else injected.  Every viewer must be listed by
a live server by 12 s, and by no more than one at 24 s.

Full mode at N = 400 breaks both at seeds 1 and 2: 14 and 13 viewers
are unserved at 12 s, and 3 and 2 are listed twice at 24 s.  The strict
xfails pin that until the owner of a new viewer is a pure function of
the agreed view: a patch that merely hides these two seeds (retry
jitter, another tie-break in ``least_loaded``) flips them and must be
argued for.  The flyweight rig at N = 2 000 passes today and is
asserted as it comes out.
"""

from typing import Dict

import pytest

from repro.experiments.scale import build_scale_rig
from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.net.link import LinkFault

LOSSY_LASTMILE = LinkFault(drop_prob=0.02, extra_delay_s=0.005)
N_SERVERS = 3
SERVED_BY_S = 12.0
ONCE_AT_S = 24.0

LIVELOCK = (
    "lossy-last-mile admission livelock: lost datagrams leave duplicate "
    "sessions behind, so the replicas' private ledgers count loads that "
    "differ by one; each 1 s connect retry reaches all three replicas and "
    "least-loaded placement over its own ledger puts it on a peer at every "
    "one, so no replica admits the viewer (the drained-ledger livelock, kept "
    "alive by loss; fixed by first placement from the agreed view, not by a "
    "retry tweak)"
)


def lossy_rig(n_viewers: int, mode: str, seed: int):
    sim, deployment, _viewers, _observer = build_scale_rig(
        n_viewers, 1.0, n_servers=N_SERVERS, mode=mode, seed=seed
    )
    plan = FaultPlan()
    for host in range(N_SERVERS, len(deployment.topology.hosts)):
        plan = plan.impair_host(0.0, host=host, fault=LOSSY_LASTMILE)
    FaultInjector(deployment, plan).start()
    return sim, deployment


def served_counts(deployment) -> Dict[object, int]:
    """client -> how many live servers list it (sessions and rows)."""
    counts: Dict[object, int] = {}
    for server in deployment.live_servers():
        for client in server.served_clients():
            counts[client] = counts.get(client, 0) + 1
    return counts


def assert_every_viewer_served_once(n_viewers: int, mode: str, seed: int) -> None:
    sim, deployment = lossy_rig(n_viewers, mode, seed)
    sim.run_until(SERVED_BY_S)
    assert len(served_counts(deployment)) == n_viewers
    sim.run_until(ONCE_AT_S)
    twice = [c for c, n in served_counts(deployment).items() if n > 1]
    assert twice == []


@pytest.mark.xfail(strict=True, reason=LIVELOCK)
@pytest.mark.parametrize("seed", [1, 2])
def test_full_viewers_are_served_once_on_a_lossy_last_mile(seed):
    assert_every_viewer_served_once(400, "full", seed)


def test_flyweight_rows_are_served_once_on_a_lossy_last_mile():
    assert_every_viewer_served_once(2000, "flyweight", 1)
