"""Every fault action's ``describe()`` line, fired note, ``fault.fired``
action name and cause id, pinned exactly on one small LAN rig.

The strings are what reports, exports and causal chains show, so a
change to how an action fires must leave every one of them as it is.
The rig also drives each action's no-op branch (a crash of a server
that is already down, a crash of a host with no live server, nothing
left to crash).
"""

import dataclasses

from repro.faulting.injector import FaultInjector
from repro.faulting.plan import FaultPlan
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.link import LinkFault
from repro.net.topologies import build_lan
from repro.service.deployment import Deployment
from repro.sim.core import Simulator


def crash_host_action():
    """The ``_CrashHost`` a seeded random plan draws (it has no builder)."""
    plan = FaultPlan.random(
        seed=2, duration_s=90.0, server_hosts=[0, 1, 2], client_host=3
    )
    return next(a for a in plan.actions if type(a).__name__ == "_CrashHost")


def every_action_plan():
    crash_host = crash_host_action()
    return (
        FaultPlan()
        .false_suspicion(5.0, 1, mute_for_s=0.4)
        .impair_host(6.0, 3, LinkFault(drop_prob=0.01, extra_delay_s=0.002))
        .impair_host(7.0, 3, None)
        .isolate(8.0, 2)
        .heal_host(9.0, 2)
        .partition(10.0, [0], [1, 2])
        .heal_all(11.0)
        .crash_serving(15.0)
        .server_up(20.0)
        .crash(25.0, "server1")
        .crash(26.0, "server1")
        .restart(30.0, "server1")
        .stop(35.0, "server0")
        .stop(36.0, "server0")
        .server_up(40.0, host=4)
        .crash_most_loaded(45.0)
        ._with(dataclasses.replace(crash_host, at=50.0))
        ._with(dataclasses.replace(crash_host, at=51.0))
        .crash_most_loaded(55.0)
        .crash_most_loaded(56.0)
        .crash_serving(57.0)
    )


IMPAIRMENT = (
    "LinkFault(drop_prob=0.01, extra_delay_s=0.002, jitter_s=0.0, "
    "duplicate_prob=0.0, duplicate_delay_s=0.001)"
)

DESCRIBED = [
    "t=   5.00s  falsely suspect host 1 (mute 0.4s)",
    f"t=   6.00s  impair host 3: {IMPAIRMENT}",
    "t=   7.00s  impair host 3: clear",
    "t=   8.00s  isolate host 2",
    "t=   9.00s  heal host 2",
    "t=  10.00s  partition [0] | [1, 2]",
    "t=  11.00s  heal all partitions",
    "t=  15.00s  crash server serving <default client>",
    "t=  20.00s  server up on auto host",
    "t=  25.00s  crash server1",
    "t=  26.00s  crash server1",
    "t=  30.00s  restart host of server1",
    "t=  35.00s  shutdown server0",
    "t=  36.00s  shutdown server0",
    "t=  40.00s  server up on host 4",
    "t=  45.00s  crash the most-loaded server",
    "t=  50.00s  crash server on host 2",
    "t=  51.00s  crash server on host 2",
    "t=  55.00s  crash the most-loaded server",
    "t=  56.00s  crash the most-loaded server",
    "t=  57.00s  crash server serving <default client>",
]

FIRED = [
    (5.0, "falsely suspected daemon 2 at 2 peers (muted 0.40s)"),
    (6.0, f"impair host 3: {IMPAIRMENT}"),
    (7.0, "impair host 3: clear"),
    (8.0, "isolate host 2"),
    (9.0, "heal host 2"),
    (10.0, "partition [0] | [1, 2]"),
    (11.0, "heal all partitions"),
    (15.0, "crashed server2 (serving client0)"),
    (20.0, "started server3 on host 2"),
    (25.0, "crashed server1"),
    (26.0, "server1 already down"),
    (30.0, "started server4 on host 1 (was server1)"),
    (35.0, "stopped server0"),
    (36.0, "server0 already down"),
    (40.0, "started server5 on host 4"),
    (45.0, "crashed server5 (most loaded, 1 clients)"),
    (50.0, "crashed server3 on host 2"),
    (51.0, "no live server on host 2"),
    (55.0, "crashed server4 (most loaded, 1 clients)"),
    (56.0, "no live server; nothing crashed"),
    (57.0, "no server serving client0; nothing crashed"),
]

CAUSES = [
    ("FalseSuspicion", "fault.FalseSuspicion#1"),
    ("ImpairHost", "fault.ImpairHost#2"),
    ("ImpairHost", "fault.ImpairHost#3"),
    ("IsolateHost", "fault.IsolateHost#4"),
    ("HealHost", "fault.HealHost#6"),
    ("Partition", "fault.Partition#7"),
    ("HealAll", "fault.HealAll#8"),
    ("CrashServing", "fault.CrashServing#9"),
    ("ServerUp", "fault.ServerUp#10"),
    ("CrashServer", "fault.CrashServer#11"),
    ("CrashServer", "fault.CrashServer#12"),
    ("RestartServer", "fault.RestartServer#13"),
    ("StopServer", "fault.StopServer#14"),
    ("StopServer", "fault.StopServer#15"),
    ("ServerUp", "fault.ServerUp#16"),
    ("CrashMostLoaded", "fault.CrashMostLoaded#17"),
    ("_CrashHost", "fault._CrashHost#18"),
    ("_CrashHost", "fault._CrashHost#19"),
    ("CrashMostLoaded", "fault.CrashMostLoaded#20"),
    ("CrashMostLoaded", "fault.CrashMostLoaded#21"),
    ("CrashServing", "fault.CrashServing#22"),
]


def test_every_action_describes_and_fires_exactly():
    sim = Simulator(seed=17)
    topology = build_lan(sim, n_hosts=6)
    catalog = MovieCatalog([Movie.synthetic("m", duration_s=120.0)])
    deployment = Deployment(topology, catalog, server_nodes=[0, 1, 2])
    client = deployment.attach_client(3)
    client.request_movie("m")
    plan = every_action_plan()
    assert plan.describe() == DESCRIBED

    events, _subscription = sim.telemetry.collect(("fault.fired",))
    injector = FaultInjector(deployment, plan, client=client).start()
    sim.run_until(60.0)

    assert injector.fired == FIRED
    assert injector.crash_times == [15.0, 25.0, 45.0, 50.0, 55.0]
    assert injector.server_up_times == [20.0, 30.0, 40.0]
    assert [(e.fields["action"], e.fields["cause"]) for e in events] == CAUSES
    assert [e.fields["note"] for e in events] == [note for _t, note in FIRED]
