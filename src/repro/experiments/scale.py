"""Scale experiment: the data-plane fast path under thousands of viewers.

The paper's introduction motivates the design with metropolitan-scale
deployments: "in such an environment, scalability and fault tolerance
will be key issues".  This experiment loads one service with N
concurrent viewers (N = 100 / 1 000 / 5 000), crashes the most-loaded
server mid-run, and measures

* simulator throughput — events and delivered frames per wall-clock
  second — with the batched fast path on and off, and
* failover latency (crash to takeover session start), which must stay
  flat in N: the takeover path is per-client state lookup, not a scan.

Topology: an *edge-concentrator* LAN.  Each edge node concentrates up
to ``clients_per_edge`` viewers behind one GCS daemon and one fat
edge link, so the control plane scales with the number of edges rather
than the number of viewers — how a real metropolitan head-end would be
provisioned — while the video plane still crosses two switched hops per
frame.  All links are loss-free, so batched sessions stay on the fast
path for the entire run.

Three population modes:

* ``per-frame`` — full client objects, one timer event per frame (the
  baseline);
* ``batched`` — full client objects on the batched fast path;
* ``flyweight`` — viewers as columnar rows in a
  :class:`repro.client.flyweight.FlyweightPool`, served by cohort
  sessions whose playheads are closed-form arithmetic.  This is the
  mode that breaks the 100 000-viewer barrier: per steady-state viewer
  the simulator spends ~2 events total (the connect and its retry
  check), and the control plane shares one
  :class:`~repro.service.protocol.CohortSync` per movie per sync tick
  instead of one record per client.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.client.player import VoDClient
from repro.errors import ServiceError
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.link import LinkParams
from repro.net.network import Network
from repro.net.topologies import Topology
from repro.server.server import ServerConfig
from repro.service.deployment import Deployment
from repro.sim.core import Simulator
from repro.sim.gcgate import paused_gc
from repro.telemetry.harness import RunObservers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.plan import ShardTask

#: Server uplink: a head-end trunk.  Loss-free and fat enough that a
#: third of the 5 000-viewer load stays far below saturation.
SERVER_LINK = LinkParams(delay_s=0.0001, bandwidth_bps=40e9)

#: Edge concentrator link: many viewers share it, still loss-free.
EDGE_LINK = LinkParams(delay_s=0.0002, bandwidth_bps=10e9)

#: Viewers packed behind one edge node / GCS daemon.
CLIENTS_PER_EDGE = 64

#: Default population sweep (the paper's "scalability" claim at depth).
DEFAULT_SIZES = (100, 1000, 5000)

#: Per-frame baseline comparison runs up to this N (the slow path at
#: 5 000 viewers costs minutes of wall clock for no extra information).
COMPARE_MAX = 1000


@dataclass
class ScalePoint:
    """Measurements from one (N, mode) run.

    A merged shared-nothing run (``n_shards > 1``) is the same shape
    plus the fields one process cannot produce alone: per-shard wall
    clocks, the merged QoE score histogram, the SLO verdicts over the
    merged facts, and the invariant-violation count summed across
    shards.  ``wall_s`` is then the coordinator-measured makespan of
    the whole sharded run."""

    n_clients: int
    batch_window_s: float
    duration_s: float
    events: int
    wall_s: float
    frames_delivered: int
    failover_latencies: List[float] = field(default_factory=list)
    takeovers: int = 0
    flyweight: bool = False
    violations: int = 0
    n_shards: int = 1
    shard_walls: List[float] = field(default_factory=list)
    qoe: Optional[Dict] = None
    slo: Optional[Dict] = None
    merge_deterministic: Optional[bool] = None
    # Flight-recorder output (``as_dict`` incidents — JSON-ready and
    # identical in shape whether the point ran in-process or sharded)
    # and the recorder's self-metering (per shard when sharded).
    incidents: List[Dict] = field(default_factory=list)
    flight: Optional[Dict] = None

    @property
    def batched(self) -> bool:
        return self.batch_window_s > 0

    @property
    def mode(self) -> str:
        if self.n_shards > 1:
            return "sharded"
        if self.flyweight:
            return "flyweight"
        return "batched" if self.batched else "per-frame"

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def frames_per_wall_s(self) -> float:
        return self.frames_delivered / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def max_failover_s(self) -> float:
        return max(self.failover_latencies, default=0.0)


class _FailoverObserver:
    """Measures crash-to-takeover latency without telemetry overhead.

    Routine load-balance churn also starts sessions with
    ``takeover=True``, so only the *first* takeover of each client the
    crashed server was serving counts as a failover."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.crash_time: Optional[float] = None
        self.victim_clients: set = set()
        self.latencies: List[float] = []

    def note_crash(self, victim) -> None:
        self.crash_time = self.sim.now
        # served_clients() covers both per-client sessions and flyweight
        # cohort rows — failover latency is measured identically across
        # modes (and must stay flat in N for both).
        self.victim_clients = set(victim.served_clients())

    def on_session_start(self, server, record, takeover: bool) -> None:
        if takeover and record.client in self.victim_clients:
            self.victim_clients.discard(record.client)
            self.latencies.append(self.sim.now - self.crash_time)


def make_crash_most_loaded(deployment: Deployment, observer: _FailoverObserver):
    """The rigs' shared mid-run fault: kill the busiest server.

    Returns a zero-argument action (for ``sim.call_at``) that crashes
    the most-loaded live server after noting the crash on ``observer``
    so failover latencies are measured from the instant of failure."""

    def crash_most_loaded() -> None:
        victim = max(deployment.live_servers(), key=lambda s: s.n_clients)
        observer.note_crash(victim)
        victim.crash()

    return crash_most_loaded


class ConformanceTrace:
    """Observer recording the service-visible life of every viewer.

    Used to prove flyweight ≡ full-object: the trace deliberately
    excludes absolute timestamps (the modes' different control-plane
    wire sizes legitimately shift GCS event times by sub-millisecond
    amounts) and records, per client, the ordered
    ``(server, offset, takeover)`` session-start sequence — who served
    the viewer, from which frame, and whether the start was a
    takeover."""

    def __init__(self) -> None:
        self.starts: Dict[str, List[Tuple[str, int, bool]]] = {}

    def on_session_start(self, server, record, takeover: bool) -> None:
        self.starts.setdefault(record.client.name, []).append(
            (server.name, int(record.offset), bool(takeover))
        )


def conformance_trace(
    n_clients: int = 48,
    duration_s: float = 8.0,
    seed: int = 77,
    mode: str = "full",
    crash_at: Optional[float] = None,
    batch_window_s: float = 1.0,
) -> Dict[str, Dict]:
    """Run the conformance rig and return its canonical trace.

    The rig pins every timing-relevant knob so the two modes are
    event-for-event comparable: ``connect_window_s=0.0`` (the admission
    queue drains the whole population in one sorted batch, making
    placement independent of arrival jitter), ``n_clients`` small
    enough for one edge node (the GCS daemon set is then identical
    across modes), and — in full mode — mux clients with a prebuffer
    deep enough that flow control stays silent, so full-object
    playheads advance at the fixed base rate exactly like the flyweight
    arithmetic.  Returns ``{"starts": .., "final": ..}`` where
    ``final`` maps each still-served viewer to its server-side playhead
    at ``duration_s``."""
    sim, deployment, viewers, observer = build_scale_rig(
        n_clients,
        batch_window_s,
        n_servers=3,
        seed=seed,
        movie_duration_s=duration_s + 60.0,
        connect_window_s=0.0,
        mode=mode,
        session_mux=True,
        prebuffer_frames=330,
    )
    trace = ConformanceTrace()
    deployment.add_server_observer(trace)
    if crash_at is not None:
        sim.call_at(crash_at, make_crash_most_loaded(deployment, observer))
    sim.run_until(duration_s)
    final: Dict[str, int] = {}
    for server in deployment.live_servers():
        for client, session in server.sessions.items():
            final[client.name] = int(session.position)
        for replica in server.movies.values():
            cohort = replica.cohort
            if cohort is not None:
                for client in cohort.rows:
                    final[client.name] = int(cohort.position_of(client))
    return {
        "starts": {name: trace.starts[name] for name in sorted(trace.starts)},
        "final": {name: final[name] for name in sorted(final)},
        "failover_latencies": sorted(observer.latencies),
    }


def build_edge_lan(
    sim: Simulator,
    n_servers: int,
    n_edges: int,
    server_link: LinkParams = SERVER_LINK,
    edge_link: LinkParams = EDGE_LINK,
) -> Topology:
    """One core switch, ``n_servers`` head-end hosts, ``n_edges``
    concentrator hosts.  ``hosts[:n_servers]`` are the server slots,
    ``hosts[n_servers:]`` the edges."""
    network = Network(sim)
    core = network.add_node("core")
    topology = Topology(network=network, infrastructure=[core.node_id])
    for index in range(n_servers):
        host = network.add_node(f"headend{index}")
        network.add_link(host.node_id, core.node_id, server_link)
        topology.hosts.append(host.node_id)
    for index in range(n_edges):
        edge = network.add_node(f"edge{index}")
        network.add_link(edge.node_id, core.node_id, edge_link)
        topology.hosts.append(edge.node_id)
    return topology


def build_scale_rig(
    n_clients: int,
    batch_window_s: float,
    n_servers: int = 3,
    seed: int = 77,
    movie_duration_s: float = 120.0,
    connect_window_s: float = 2.0,
    clients_per_edge: int = CLIENTS_PER_EDGE,
    mode: str = "full",
    session_mux: bool = False,
    prebuffer_frames: int = 0,
):
    """A service with ``n_clients`` viewers connecting over the first
    ``connect_window_s`` seconds of the run.

    Connects start at t=0, before the movie group's first view exists:
    the servers' admission queue absorbs the flood and admits it once
    the view settles, so the join-regime recompute never sees a growing
    record set (the old rig delayed connects instead — a workaround).

    ``mode="full"`` attaches one :class:`VoDClient` per viewer and
    returns ``(sim, deployment, clients, observer)``; ``session_mux`` /
    ``prebuffer_frames`` configure those clients (the conformance rig
    uses mux + a prebuffer deep enough that flow control stays silent).
    ``mode="flyweight"`` registers the viewers as rows of one
    :class:`~repro.client.flyweight.FlyweightPool` instead and returns
    the pool in the clients slot; servers always run mux in this mode
    (a promoted row needs it)."""
    if mode not in ("full", "flyweight"):
        raise ServiceError(f"unknown scale-rig mode {mode!r}")
    flyweight = mode == "flyweight"
    sim = Simulator(seed=seed)
    n_edges = max(1, -(-n_clients // clients_per_edge))
    topology = build_edge_lan(sim, n_servers, n_edges)
    catalog = MovieCatalog(
        [Movie.synthetic("feature", duration_s=movie_duration_s)]
    )
    from repro.client.player import ClientConfig
    from repro.placement import PlacementContext, ServerProfile, StaticKWay

    mux = session_mux or flyweight
    # Fully replicated feature as a derived placement (k = n_servers):
    # the rig's crash point needs every survivor able to adopt any
    # share of the flood.
    profiles = [ServerProfile(name=f"server{i}") for i in range(n_servers)]
    plan = StaticKWay(k=n_servers).build(
        PlacementContext(catalog=catalog, servers=profiles, k=n_servers)
    )
    deployment = Deployment.from_placement(
        topology,
        plan,
        catalog,
        server_hosts={profile.name: i for i, profile in enumerate(profiles)},
        server_config=ServerConfig(
            batch_window_s=batch_window_s, session_mux=mux
        ),
        client_config=ClientConfig(
            session_mux=mux, prebuffer_frames=prebuffer_frames
        ),
        replicate_all=True,
    )
    observer = _FailoverObserver(sim)
    deployment.add_server_observer(observer)

    if flyweight:
        from repro.client.flyweight import FlyweightConfig

        pool = deployment.attach_flyweight(
            "feature",
            config=FlyweightConfig(senders_max=min(4, n_edges)),
        )
        for index in range(n_clients):
            pool.add_viewer(n_servers + index % n_edges)
        pool.connect_all(connect_window_s)
        return sim, deployment, pool, observer

    clients: List[VoDClient] = []
    for index in range(n_clients):
        host_index = n_servers + index % n_edges
        # One shared GCS daemon per edge node.
        endpoint = deployment.domain.ensure_endpoint(topology.host(host_index))
        client = deployment.attach_client(
            host_index, endpoint=endpoint, video_port=None
        )
        clients.append(client)
        offset = (index * connect_window_s) / max(1, n_clients)
        sim.call_at(offset, client.request_movie, "feature")
    return sim, deployment, clients, observer


def run_scale_point(
    n_clients: int,
    batch_window_s: float,
    duration_s: float = 12.0,
    crash_at: Optional[float] = None,
    seed: int = 77,
    n_servers: int = 3,
    telemetry_path: Optional[str] = None,
    flyweight: bool = False,
    wall_budget_s: Optional[float] = None,
    invariants: bool = False,
    flight: bool = False,
    flight_config=None,
) -> ScalePoint:
    """Run one population point and return its measurements.

    ``crash_at`` (default: mid-run) terminates the most-loaded server;
    its clients fail over to the survivors.  ``telemetry_path`` streams
    a JSONL export — only use it for artifact runs, as the export makes
    wall-clock figures meaningless.  ``flyweight`` runs the population
    as pool rows (see module docstring).  ``wall_budget_s`` bounds the
    wall clock: the run advances in one-second simulated slices and
    stops early once the budget is spent (the returned point then
    covers ``sim.now`` seconds, not ``duration_s`` — a CI guard, not a
    measurement mode).  ``invariants`` installs a
    :class:`~repro.faulting.InvariantChecker` for the run and reports
    its violation count on the point — note its sampling timer adds
    (deterministic) events, so only compare event counts across runs
    with the same setting.  ``flight`` attaches a bounded
    :class:`~repro.telemetry.FlightRecorder` — a pure bus subscriber,
    so the simulated outcome (events, frames, failover latencies) is
    byte-identical with it on or off; the point then carries the
    assembled incidents and the recorder's self-metering."""
    if crash_at is None:
        crash_at = duration_s / 2.0
    sim, deployment, viewers, observer = build_scale_rig(
        n_clients,
        batch_window_s,
        n_servers=n_servers,
        seed=seed,
        movie_duration_s=duration_s + 60.0,
        mode="flyweight" if flyweight else "full",
    )
    observers = RunObservers(
        sim,
        telemetry_path,
        dict(
            experiment="scale",
            n_clients=n_clients,
            batch_window_s=batch_window_s,
            mode="flyweight" if flyweight else "full",
            seed=seed,
            duration_s=duration_s,
        ),
        flight=flight,
        flight_config=flight_config,
    )

    sim.call_at(crash_at, make_crash_most_loaded(deployment, observer))

    checker = None
    if invariants:
        from repro.faulting import InvariantChecker

        checker = InvariantChecker(deployment).install()

    # The sim heap is cycle-free (profiling found 859 collector passes
    # freeing zero objects over a 20k-viewer run), so automatic cyclic
    # GC only adds wall time — ~33% at N=20k.  Pause it for the
    # measured section.  The observers as context manager write the
    # summary trailer (``crashed`` / ``error``) even if the run raises.
    with observers:
        started = time.perf_counter()
        with paused_gc():
            if wall_budget_s is None:
                events = sim.run_until(duration_s)
            else:
                events = 0
                while sim.now < duration_s:
                    events += sim.run_until(min(sim.now + 1.0, duration_s))
                    if time.perf_counter() - started > wall_budget_s:
                        break
        wall = time.perf_counter() - started
        if checker is not None:
            checker.stop()

        if flyweight:
            frames = viewers.frames_served()
        else:
            frames = sum(client.stats.received for client in viewers)
        point = ScalePoint(
            n_clients=n_clients,
            batch_window_s=batch_window_s,
            duration_s=duration_s,
            events=events,
            wall_s=wall,
            frames_delivered=frames,
            failover_latencies=list(observer.latencies),
            takeovers=len(observer.latencies),
            flyweight=flyweight,
            violations=len(checker.violations) if checker is not None else 0,
        )
        observers.settle(
            frames_delivered=frames,
            takeovers=point.takeovers,
            max_failover_s=point.max_failover_s,
        )
    point.incidents = [incident.as_dict() for incident in observers.incidents]
    point.flight = observers.flight
    return point


def _scale_shard_worker(task: ShardTask) -> Dict:
    """One shared-nothing shard of a sharded scale point.

    Top-level by design: spawned workers import this by module path and
    rebuild everything from the plain-data :class:`ShardTask`.  Each
    shard is a complete independent head-end — ``run_scale_point`` in
    flyweight mode under the shard's derived seed — and returns plain
    mergeable facts plus a :class:`ScoreHistogram` QoE summary (on the
    rig's clean links a row never stalls, so a viewer's score is 100
    minus the migration penalty of its takeovers — here 0 or 1)."""
    from repro.shard.merge import ScoreHistogram

    params = task.params
    point = run_scale_point(
        task.n_viewers,
        float(params.get("batch_window_s", 1.0)),
        duration_s=float(params.get("duration_s", 12.0)),
        crash_at=params.get("crash_at"),
        seed=task.seed,
        flyweight=True,
        wall_budget_s=params.get("wall_budget_s"),
        invariants=bool(params.get("invariants", False)),
        flight=bool(params.get("flight", False)),
    )
    histogram = ScoreHistogram()
    clean = max(0, point.n_clients - point.takeovers)
    if clean:
        histogram.add(100.0, clean)
    if point.takeovers:
        histogram.add(99.0, point.takeovers)
    return {
        "shard_id": task.shard_id,
        "seed": task.seed,
        "n_clients": point.n_clients,
        "events": point.events,
        "wall_s": point.wall_s,
        "frames": point.frames_delivered,
        "failover_latencies": list(point.failover_latencies),
        "takeovers": point.takeovers,
        "violations": point.violations,
        "qoe": histogram.as_dict(),
        "incidents": point.incidents,
        "flight": point.flight,
    }


def run_sharded_scale_point(
    n_clients: int,
    batch_window_s: float,
    duration_s: float = 12.0,
    crash_at: Optional[float] = None,
    seed: int = 77,
    n_shards: int = 4,
    workers: Optional[int] = None,
    inline: bool = False,
    wall_budget_s: Optional[float] = None,
    invariants: bool = False,
    flight: bool = False,
) -> ScalePoint:
    """Run one population as ``n_shards`` shared-nothing head-ends.

    The population splits evenly across shards (plus one viewer for the
    first ``n % n_shards``); every shard runs the flyweight scale rig
    to ``duration_s`` under its content-addressed seed and crashes its
    own most-loaded server at ``crash_at``.  The merged point sums
    events/frames/takeovers/violations, unions failover latencies,
    folds the per-shard QoE histograms and evaluates the paper's SLO
    rules over the merged facts.  ``wall_s`` is the coordinator-side
    makespan; per-shard walls ride along in ``shard_walls``.

    The merge is re-applied over the reversed shard order and compared;
    ``merge_deterministic`` records that order-independence held (the
    shard gate asserts it).  With ``flight`` every shard runs its own
    bounded flight recorder; the per-shard incidents merge through
    :func:`repro.shard.merge.merge_incidents` (also checked reversed)
    and the point carries the merged incidents plus per-shard recorder
    metering."""
    # Only this path needs the worker pool (and with it multiprocessing).
    from repro.shard.merge import (
        MergeError,
        ScoreHistogram,
        merge_failovers,
        merge_incidents,
        merge_score_histograms,
        sharded_slo_summary,
    )
    from repro.shard.plan import ShardPlan
    from repro.shard.runner import run_shards

    plan = ShardPlan(n_shards=n_shards, seed=seed)
    tasks = plan.tasks(
        n_clients,
        params={
            "batch_window_s": batch_window_s,
            "duration_s": duration_s,
            "crash_at": crash_at,
            "wall_budget_s": wall_budget_s,
            "invariants": invariants,
            "flight": flight,
        },
    )
    started = time.perf_counter()
    shard_results = run_shards(
        tasks, _scale_shard_worker, workers=workers, inline=inline
    )
    wall = time.perf_counter() - started

    histograms = [ScoreHistogram.from_dict(r["qoe"]) for r in shard_results]
    qoe = merge_score_histograms(histograms)
    qoe_reversed = merge_score_histograms(reversed(histograms))
    latencies = merge_failovers(r["failover_latencies"] for r in shard_results)
    latencies_reversed = merge_failovers(
        r["failover_latencies"] for r in reversed(shard_results)
    )
    incidents: List[Dict] = []
    flight_meter: Optional[Dict] = None
    incidents_deterministic = True
    if flight:
        pairs = [(r["shard_id"], r["incidents"]) for r in shard_results]
        merged = merge_incidents(pairs)
        merged_reversed = merge_incidents(list(reversed(pairs)))
        incidents_deterministic = (
            [i.as_dict() for i in merged]
            == [i.as_dict() for i in merged_reversed]
        )
        incidents = [i.as_dict() for i in merged]
        flight_meter = {
            "shards": {r["shard_id"]: r["flight"] for r in shard_results}
        }
    deterministic = (
        qoe.as_dict() == qoe_reversed.as_dict()
        and latencies == latencies_reversed
        and incidents_deterministic
    )
    if not deterministic:
        raise MergeError(
            "sharded merge produced order-dependent results; the merge "
            "layer's commutativity contract is broken"
        )
    slo = sharded_slo_summary(
        n_clients=sum(r["n_clients"] for r in shard_results),
        duration_s=duration_s,
        failover_latencies=latencies,
    )
    return ScalePoint(
        n_clients=sum(r["n_clients"] for r in shard_results),
        batch_window_s=batch_window_s,
        duration_s=duration_s,
        events=sum(r["events"] for r in shard_results),
        wall_s=wall,
        frames_delivered=sum(r["frames"] for r in shard_results),
        failover_latencies=latencies,
        takeovers=sum(r["takeovers"] for r in shard_results),
        flyweight=True,
        violations=sum(r["violations"] for r in shard_results),
        n_shards=n_shards,
        shard_walls=[r["wall_s"] for r in shard_results],
        qoe=qoe.as_dict(),
        slo=slo,
        merge_deterministic=deterministic,
        incidents=incidents,
        flight=flight_meter,
    )


def _point_payload(row: ScalePoint) -> Dict:
    """One benchmark-JSON row; sharded points carry their extra facts."""
    payload = {
        "n_clients": row.n_clients,
        "mode": row.mode,
        "events": row.events,
        "wall_s": row.wall_s,
        "events_per_s": row.events_per_s,
        "frames_delivered": row.frames_delivered,
        "frames_per_wall_s": row.frames_per_wall_s,
        "takeovers": row.takeovers,
        "max_failover_s": row.max_failover_s,
        "failover_latencies": row.failover_latencies,
    }
    if row.n_shards > 1:
        payload.update(
            n_shards=row.n_shards,
            shard_walls=row.shard_walls,
            violations=row.violations,
            qoe=row.qoe,
            slo=row.slo,
            merge_deterministic=row.merge_deterministic,
        )
    if row.flight is not None:
        payload.update(
            n_incidents=len(row.incidents),
            incidents=row.incidents,
            flight=row.flight,
        )
    return payload


def run(spec) -> "ExperimentResult":
    """Entry point for ``ExperimentSpec(name="scale")``.

    Params: ``sizes`` (populations to sweep), ``duration`` (simulated
    seconds per point), ``window`` (batch window, seconds; the per-frame
    baseline always uses 0), ``compare_max`` (largest N that also runs
    the per-frame baseline), ``flyweight_sizes`` (populations to run in
    flyweight mode — this is where 20 000..100 000 live),
    ``sharded_sizes`` (populations to run shared-nothing across
    ``shards`` worker processes — this is where 1 000 000 lives),
    ``shards`` (shard count for those, default 4), ``workers``
    (process-pool cap, default one per core), ``shard_inline`` (run
    shards sequentially in-process — determinism checks on small
    boxes), ``wall_budget`` (optional wall-clock ceiling per flyweight
    point, seconds), ``telemetry_n`` (population of the
    telemetry-artifact run; ignored without ``spec.telemetry_path``),
    ``flight`` (attach a flight recorder to flyweight and sharded
    points; the points then carry incidents and recorder metering).
    """
    from repro.experiments.api import ExperimentResult
    from repro.telemetry.text import Table

    params = spec.params
    sizes = tuple(params.get("sizes", DEFAULT_SIZES))
    duration = float(params.get("duration", 12.0))
    window = float(params.get("window", 1.0))
    compare_max = int(params.get("compare_max", COMPARE_MAX))
    flyweight_sizes = tuple(params.get("flyweight_sizes", ()))
    sharded_sizes = tuple(params.get("sharded_sizes", ()))
    n_shards = int(params.get("shards", 4))
    workers = params.get("workers")
    workers = None if workers is None else int(workers)
    shard_inline = bool(params.get("shard_inline", False))
    wall_budget = params.get("wall_budget")
    wall_budget = None if wall_budget is None else float(wall_budget)
    flight = bool(params.get("flight", False))
    seed = spec.seed if spec.seed is not None else 77

    points: List[ScalePoint] = []
    baselines: Dict[int, ScalePoint] = {}
    for n_clients in sizes:
        fast = run_scale_point(
            n_clients, window, duration_s=duration, seed=seed
        )
        points.append(fast)
        if n_clients <= compare_max:
            baselines[n_clients] = run_scale_point(
                n_clients, 0.0, duration_s=duration, seed=seed
            )
    for n_clients in flyweight_sizes:
        points.append(
            run_scale_point(
                n_clients, window, duration_s=duration, seed=seed,
                flyweight=True, wall_budget_s=wall_budget, flight=flight,
            )
        )
    for n_clients in sharded_sizes:
        points.append(
            run_sharded_scale_point(
                n_clients, window, duration_s=duration, seed=seed,
                n_shards=n_shards, workers=workers, inline=shard_inline,
                wall_budget_s=wall_budget, flight=flight,
            )
        )

    artifacts: Dict[str, str] = {}
    benchmark_json = params.get("benchmark_json")
    if benchmark_json:
        directory = os.path.dirname(benchmark_json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        payload = {
            "experiment": "scale",
            "seed": seed,
            "duration_s": duration,
            "window_s": window,
            "points": [
                _point_payload(row)
                for row in list(baselines.values()) + points
            ],
        }
        with open(benchmark_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        artifacts["benchmark_json"] = benchmark_json
    if spec.telemetry_path is not None:
        telemetry_n = int(params.get("telemetry_n", min(sizes)))
        run_scale_point(
            telemetry_n, window, duration_s=duration, seed=seed,
            telemetry_path=spec.telemetry_path,
        )
        artifacts["telemetry"] = spec.telemetry_path

    table = Table(
        f"Scale — batched fast path, {duration:.0f}s, crash mid-run",
        [
            "clients", "mode", "events", "wall (s)", "events/s",
            "frames/wall-s", "takeovers", "max failover (s)",
        ],
    )
    for point in points:
        baseline = None if point.flyweight else baselines.get(point.n_clients)
        for row in filter(None, (baseline, point)):
            table.add_row(
                row.n_clients,
                row.mode,
                row.events,
                f"{row.wall_s:.2f}",
                f"{row.events_per_s:,.0f}",
                f"{row.frames_per_wall_s:,.0f}",
                row.takeovers,
                f"{row.max_failover_s:.3f}",
            )

    blocks = [table.render()]
    speedups = []
    for point in points:
        baseline = None if point.flyweight else baselines.get(point.n_clients)
        if baseline is not None and point.wall_s > 0:
            speedups.append(
                f"N={point.n_clients}: "
                f"{baseline.wall_s / point.wall_s:.2f}x wall, "
                f"{point.frames_per_wall_s / max(baseline.frames_per_wall_s, 1e-9):.2f}x "
                f"frame throughput"
            )
    if speedups:
        blocks.append("Fast-path speedup vs per-frame: " + "; ".join(speedups))
    failovers = [p.max_failover_s for p in points if p.takeovers]
    if len(failovers) >= 2:
        blocks.append(
            "Failover latency across populations: "
            + ", ".join(f"{v:.3f}s" for v in failovers)
            + " (flat in N: takeover is per-client state lookup)"
        )
    for point in points:
        if point.n_shards > 1 and point.qoe is not None:
            slo_ok = all(
                state.get("breaches", 0) == 0
                for state in (point.slo or {}).values()
            )
            blocks.append(
                f"Sharded N={point.n_clients:,} ({point.n_shards} shards): "
                f"QoE mean {point.qoe['mean']:.2f} / p10 "
                f"{point.qoe['p10']:.0f}, SLO "
                f"{'clean' if slo_ok else 'BREACHED'}, "
                f"{point.violations} invariant violations, makespan "
                f"{point.wall_s:.1f}s (shard walls "
                + ", ".join(f"{w:.1f}s" for w in point.shard_walls)
                + ")"
                + (
                    f", {len(point.incidents)} incident(s) recorded"
                    if point.flight is not None
                    else ""
                )
            )
    return ExperimentResult(spec=spec, blocks=blocks, data=points,
                            artifacts=artifacts)
