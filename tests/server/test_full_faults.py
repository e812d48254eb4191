"""Full-object viewers off the happy path: twelve viewers under three faults.

This runs the scale rig's full-object world with twelve viewers at
S = 3 and S = 4 servers, each viewer streamed frame by frame by its own
session, under:

* a crash of the most-loaded server at 4 s;
* a partition that cuts server host 0 off at 4 s and heals at 6 s;
* a 2 % lossy last mile on every edge host from t = 0
  (``LinkFault(drop_prob=0.02, extra_delay_s=0.005)``).

After a crash or a partition every viewer must play frames sent 2 s or
more after the fault (the heal, for the partition) by the end of the
run; on the lossy last mile every viewer must play at all.  All twelve
viewers sit behind one concentrator, so every stream crosses the same
core -> edge transmitter.

After the partition heals, every viewer must keep receiving: none may go
more than 2 s without a delivery from the heal to the end of the run.
At S = 3 the isolated server's viewers do not (a strict xfail below);
at S = 4 they do.
"""

from functools import lru_cache

import pytest

from repro.experiments.scale import build_scale_rig
from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.net.link import LinkFault

N_VIEWERS = 12
VIEWERS = {f"client{i}" for i in range(N_VIEWERS)}
FAULT_AT = 4.0
HEAL_AT = 6.0
RUN_TO = 16.0
LOSSY_LASTMILE = LinkFault(drop_prob=0.02, extra_delay_s=0.005)

#: When each fault's disturbance ends: viewers must play frames sent
#: at least 2 s after it.
SETTLED_AT = {"crash": FAULT_AT, "partition": HEAL_AT}

#: The longest a viewer may go without a delivery after the heal.
MAX_GAP_AFTER_HEAL_S = 2.0


@lru_cache(maxsize=None)
def deliveries(n_servers, fault):
    """Every frame delivery of one run: ``(time, viewer, frame index,
    sent_at, epoch)`` in delivery order."""
    sim, deployment, viewers, _observer = build_scale_rig(
        N_VIEWERS, n_servers=n_servers, seed=77, mode="full"
    )
    got = []
    for client in viewers:
        def spy(packet, deliver=client._on_frame, name=client.name):
            got.append(
                (sim.now, name, packet.frame.index, packet.sent_at, packet.epoch)
            )
            deliver(packet)
        client._on_frame = spy
    plan = FaultPlan()
    if fault == "crash":
        plan = plan.crash_most_loaded(FAULT_AT)
    elif fault == "partition":
        plan = plan.isolate(FAULT_AT, host=0).heal_all(HEAL_AT)
    else:
        for host in range(n_servers, len(deployment.topology.hosts)):
            plan = plan.impair_host(0.0, host=host, fault=LOSSY_LASTMILE)
    FaultInjector(deployment, plan).start()
    sim.run_until(RUN_TO)
    return tuple(got)


@pytest.mark.parametrize("fault", ["crash", "partition"])
@pytest.mark.parametrize("n_servers", [3, 4])
def test_every_viewer_plays_after_the_fault(n_servers, fault):
    settled = SETTLED_AT[fault] + 2.0
    playing = {
        viewer
        for _t, viewer, _index, sent_at, _epoch in deliveries(n_servers, fault)
        if sent_at >= settled
    }
    assert playing == VIEWERS


@pytest.mark.parametrize("n_servers", [3, 4])
def test_every_viewer_plays_on_a_lossy_last_mile(n_servers):
    playing = {viewer for _t, viewer, *_ in deliveries(n_servers, "lossy")}
    assert playing == VIEWERS


def gaps_after_the_heal(n_servers):
    """Each viewer's longest stretch without a delivery between the heal
    and the end of the run."""
    received = {viewer: [HEAL_AT] for viewer in VIEWERS}
    for t, viewer, _index, _sent_at, _epoch in deliveries(n_servers, "partition"):
        if t > HEAL_AT:
            received[viewer].append(t)
    return {
        viewer: max(b - a for a, b in zip(times, times[1:] + [RUN_TO]))
        for viewer, times in received.items()
    }


@pytest.mark.parametrize("n_servers", [
    pytest.param(3, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the healed partition stalls the isolated server's viewers "
        "client3, client6 and client9: nothing arrives from 6.93 s to 13.03 s",
    )),
    4,
])
def test_no_viewer_stalls_after_the_heal(n_servers):
    stalled = {
        viewer: round(gap, 3)
        for viewer, gap in gaps_after_the_heal(n_servers).items()
        if gap > MAX_GAP_AFTER_HEAL_S
    }
    assert not stalled, stalled
