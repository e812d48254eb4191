"""The two measurement scenarios of the paper's Section 6.

* **LAN** (Section 6.1): one client watches a movie on a switched
  Ethernet served by two replicas; ~38 s in, the transmitting server is
  terminated (crash failover); ~24 s later a new server is brought up
  and the client migrates to it for load balancing.
* **WAN** (Section 6.2): client and servers seven Internet hops apart;
  ~25 s in, a new server is brought up (load-balance migration); ~22 s
  later the transmitting server is terminated.

Both crash "the server transmitting this movie", so the fault plan's
``crash_serving`` action resolves the victim from the client's session
at fire time.

Every other single-feature world of the evaluation is one of these
specs with a knob turned, and :func:`prepare_scenario` builds them all.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.client.player import ClientConfig, VoDClient
from repro.errors import ServiceError
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.topologies import (
    Topology,
    build_edge_lan,
    build_hierarchy,
    build_lan,
    build_wan,
)
from repro.placement import PlacementContext, ServerProfile, StaticKWay
from repro.server.server import ServerConfig
from repro.service.deployment import Deployment
from repro.sim.core import Simulator
from repro.telemetry.harness import RunObservers

# Faults, workloads and admission policies load only when a spec uses
# them: the scale rig builds through here and times its start-up.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.client.flyweight import FlyweightPool
    from repro.faulting.injector import FaultInjector
    from repro.faulting.plan import FaultPlan
    from repro.server.admission import AdmissionSpec
    from repro.telemetry.flight import Incident
    from repro.telemetry.qoe import QoEScorecard
    from repro.workloads import ViewerProfile, WorkloadDriver


#: Viewer-behaviour profiles a :class:`WorkloadSpec` can name: constants
#: of :mod:`repro.workloads`.
VIEWER_PROFILES: Dict[str, str] = {
    "couch-potato": "COUCH_POTATO",
    "channel-surfer": "CHANNEL_SURFER",
    "vcr-storm": "VCR_STORM",
}

#: Viewers packed behind one edge concentrator (and its GCS daemon) on
#: the ``"edge-lan"`` network.
CLIENTS_PER_EDGE = 64


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative client population riding along the measured client.

    ``kind`` names the arrival process (``flash-crowd`` — everybody
    within ``spread_s`` of ``at_s``; ``diurnal`` — a sinusoidal swell
    from ``base_rate_per_s`` to ``peak_rate_per_s`` over ``window_s``;
    ``poisson`` — a flat Poisson stream at ``peak_rate_per_s``), and
    ``profile`` names the per-viewer behaviour script from
    :data:`VIEWER_PROFILES`.

    :meth:`arrival_times` is a *pure* function of ``(self, seed)`` — it
    draws from a private ``random.Random(seed)``, never the simulator's
    streams — so the same (seed, cell) always yields the identical
    schedule, matrix-wide, regardless of evaluation order.
    """

    kind: str = "flash-crowd"
    n_viewers: int = 8
    at_s: float = 6.0
    spread_s: float = 2.0
    base_rate_per_s: float = 0.05
    peak_rate_per_s: float = 0.4
    window_s: float = 40.0
    profile: str = "couch-potato"

    def arrival_times(self, seed: int) -> List[float]:
        """The population's arrival schedule for ``seed``."""
        from repro.workloads import (
            burst_arrivals,
            diurnal_arrivals,
            poisson_arrivals,
        )

        rng = random.Random(seed)
        if self.kind == "flash-crowd":
            return burst_arrivals(
                rng, self.n_viewers, self.at_s, self.spread_s
            )
        if self.kind == "diurnal":
            return diurnal_arrivals(
                rng,
                self.base_rate_per_s,
                self.peak_rate_per_s,
                self.window_s,
                start_s=self.at_s,
                limit=self.n_viewers,
            )
        if self.kind == "poisson":
            return poisson_arrivals(
                rng,
                self.peak_rate_per_s,
                self.window_s,
                start_s=self.at_s,
                limit=self.n_viewers,
            )
        raise ServiceError(f"unknown workload kind {self.kind!r}")

    def viewer_profile(self) -> "ViewerProfile":
        import repro.workloads

        profile = VIEWER_PROFILES.get(self.profile)
        if profile is None:
            raise ServiceError(f"unknown viewer profile {self.profile!r}")
        return getattr(repro.workloads, profile)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative description of a measurement run.

    One feature replicated on the ``n_initial_servers`` first hosts,
    ``spare_hosts`` empty slots for servers a fault plan brings up, then
    the client hosts.  ``fd_timeout`` overrides the GCS failure
    detector's suspicion timeout.

    Faults come either from ``schedule`` — the compact legacy
    ``(time, action)`` tuples — or from an explicit ``plan`` built with
    the full :class:`~repro.faulting.plan.FaultPlan` DSL; ``plan`` wins
    when both are set.

    The network kind picks the population's shape.  On ``"lan"``,
    ``"wan"`` and ``"hierarchy"`` each of the ``n_viewers`` viewers has
    a host and daemon of its own and requests the feature at build time
    (the first is the measured client).  ``"edge-lan"`` is the scale
    rig: :data:`CLIENTS_PER_EDGE` viewers per concentrator behind one
    shared daemon, connecting evenly over ``connect_window_s``, as
    :class:`VoDClient` objects or (``flyweight``) rows of one
    :class:`~repro.client.flyweight.FlyweightPool`.

    The population fields are additive and default-off: with
    ``workload=None``, ``admission=None`` and ``n_client_hosts=1`` a
    spec builds the historical single-client world byte-for-byte.  A
    ``workload`` attaches a :class:`WorkloadDriver` population on the
    ``n_client_hosts - 1`` client hosts before the viewers'; an
    ``admission`` spec installs the pool-level policy from
    :mod:`repro.server.admission` on every server.
    """

    name: str
    network: str  # "lan" | "wan" | "hierarchy" | "edge-lan"
    movie_duration_s: float = 240.0
    run_duration_s: float = 240.0
    n_initial_servers: int = 2
    # (time, action) pairs; action is "crash-serving" or "server-up".
    schedule: Tuple[Tuple[float, str], ...] = ()
    plan: Optional["FaultPlan"] = None
    seed: int = 11
    client_config: Optional[ClientConfig] = None
    server_config: Optional[ServerConfig] = None
    workload: Optional[WorkloadSpec] = None
    admission: Optional["AdmissionSpec"] = None
    n_client_hosts: int = 1
    spare_hosts: int = 2
    fd_timeout: Optional[float] = None
    n_viewers: int = 1
    connect_window_s: float = 0.0  # "edge-lan" only
    flyweight: bool = False  # "edge-lan" only


#: Section 6.1: crash at ~38 s, new server (load balance) ~24 s later.
LAN_SCENARIO = ScenarioSpec(
    name="lan",
    network="lan",
    schedule=((38.0, "crash-serving"), (62.0, "server-up")),
)

#: Section 6.2: new server at ~25 s, crash of the transmitting server
#: ~22 s later.  The paper ran this for a shorter window; 150 s covers
#: both events with margin.
WAN_SCENARIO = ScenarioSpec(
    name="wan",
    network="wan",
    movie_duration_s=150.0,
    run_duration_s=150.0,
    schedule=((25.0, "server-up"), (47.0, "crash-serving")),
    seed=5,
)


def reference_scenario(name: str, duration: Optional[float] = None) -> ScenarioSpec:
    """The ``lan`` or ``wan`` scenario, run for ``duration`` simulated
    seconds when given (the movie lengthened to last that long)."""
    spec = {"lan": LAN_SCENARIO, "wan": WAN_SCENARIO}[name]
    if duration is None:
        return spec
    return dataclasses.replace(
        spec, movie_duration_s=max(spec.movie_duration_s, duration),
        run_duration_s=duration,
    )


@dataclass
class ScenarioResult:
    """Everything the figure extractors need from one run."""

    spec: ScenarioSpec
    sim: Simulator
    deployment: Deployment
    # The measured client: the first viewer (None for a flyweight pool).
    client: Optional[VoDClient]
    # Every viewer the spec attached: VoDClients in attach order, or the
    # FlyweightPool holding them as rows.
    viewers: Union[List[VoDClient], "FlyweightPool"] = field(
        default_factory=list
    )
    # The executed fault plan and injector (fire log, resolved targets);
    # None when the spec schedules no fault.
    plan: Optional["FaultPlan"] = None
    injector: Optional["FaultInjector"] = None
    # The riding-along population, when the spec declared a workload.
    driver: Optional["WorkloadDriver"] = None
    # Times at which schedule actions actually fired.
    crash_times: List[float] = field(default_factory=list)
    server_up_times: List[float] = field(default_factory=list)
    # Set when the run streamed a telemetry JSONL export.
    telemetry_path: Optional[str] = None
    # Per-client QoE scorecards, SLO rule verdicts and the raw take-
    # over/rebalance durations, filled when the run attached observers
    # (i.e. whenever telemetry is exported).
    qoe: Dict[str, "QoEScorecard"] = field(default_factory=dict)
    slo: Dict[str, Dict] = field(default_factory=dict)
    failovers: List[float] = field(default_factory=list)
    # Flight-recorder incidents and self-metering, when one was attached.
    incidents: List["Incident"] = field(default_factory=list)
    flight: Optional[Dict] = None

    @property
    def events(self) -> Dict[str, List[float]]:
        return {"crash": self.crash_times, "server-up": self.server_up_times}

    def total_video_frames(self) -> int:
        return sum(
            server.video_frames_sent
            for server in self.deployment.servers.values()
        )

    def export_dict(self) -> dict:
        """A JSON-serializable dump of the run, for offline analysis."""
        client = self.client
        stats = client.stats

        def series(ts):
            return {"t": list(ts.times), "v": list(ts.values)}

        return {
            "spec": {
                "name": self.spec.name,
                "network": self.spec.network,
                "seed": self.spec.seed,
                "schedule": list(self.spec.schedule),
                "run_duration_s": self.spec.run_duration_s,
            },
            "plan": list(self.plan.describe()) if self.plan else [],
            "fired": [
                {"t": t, "action": note}
                for t, note in (self.injector.fired if self.injector else [])
            ],
            "events": {
                "crash": list(self.crash_times),
                "server_up": list(self.server_up_times),
            },
            "counters": {
                "received": stats.received,
                "displayed": client.displayed_total,
                "skipped": client.skipped_total,
                "late": stats.late_frames,
                "duplicates": stats.duplicates,
                "overflow_discards": stats.overflow_discards,
                "overflow_discarded_intra": stats.overflow_discarded_intra,
                "flow_messages": stats.flow_messages,
                "emergencies_sent": stats.emergencies_sent,
                "reconnects": stats.reconnects,
                "stall_time_s": client.decoder.stats.stall_time_s,
                "stall_events": client.decoder.stats.stall_events,
                "video_bytes": self.deployment.video_bytes_sent(),
                "control_bytes": self.deployment.control_bytes_sent(),
            },
            # A missing endpoint is null, not the string "None" — the
            # startup adoption's from-server round-trips as the absence
            # it is.
            "migrations": [
                {
                    "t": t,
                    "from": None if old is None else str(old),
                    "to": None if new is None else str(new),
                }
                for t, old, new in stats.migrations
            ],
            # Every ClientStats series, not just the float-friendly
            # subset an earlier version cherry-picked.
            "series": {
                "sw_occupancy": series(stats.sw_occupancy),
                "hw_occupancy_bytes": series(stats.hw_occupancy_bytes),
                "combined_occupancy": series(stats.combined_occupancy),
                "skipped_cum": series(stats.skipped_cum),
                "late_cum": series(stats.late_cum),
                "overflow_cum": series(stats.overflow_cum),
                "received_bytes_cum": series(stats.received_bytes_cum),
                "displayed_cum": series(stats.displayed_cum),
            },
        }

    def export_json(self, path: str) -> None:
        """Write :meth:`export_dict` to ``path`` as JSON."""
        import json

        with open(path, "w") as handle:
            json.dump(self.export_dict(), handle, indent=1)


def _n_edges(spec: ScenarioSpec) -> int:
    return max(1, -(-spec.n_viewers // CLIENTS_PER_EDGE))


def build_topology(spec: ScenarioSpec, sim: Simulator) -> Topology:
    """Server slots (the initial servers, then the spares) first, client
    hosts last."""
    server_slots = spec.n_initial_servers + spec.spare_hosts
    client_hosts = spec.n_client_hosts - 1 + spec.n_viewers
    if spec.network == "lan":
        return build_lan(sim, n_hosts=server_slots + client_hosts)
    if spec.network == "wan":
        # Server slots at site A, the clients at site B (7 hops away).
        return build_wan(
            sim, n_hosts_site_a=server_slots, n_hosts_site_b=client_hosts
        )
    if spec.network == "hierarchy":
        # Server slots at the head-end core, clients behind the edge
        # concentrators.
        return build_hierarchy(
            sim, n_core_hosts=server_slots, n_edge_hosts=client_hosts
        )
    if spec.network == "edge-lan":
        return build_edge_lan(sim, server_slots, _n_edges(spec))
    raise ServiceError(f"unknown network kind {spec.network!r}")


def plan_for_spec(spec: ScenarioSpec) -> "FaultPlan":
    """The :class:`FaultPlan` a spec describes.

    An explicit ``spec.plan`` is returned as-is.  Legacy ``schedule``
    tuples are translated action by action; ``server-up`` entries pin
    the host slot explicitly (``n_initial_servers``, then the next slot,
    and so on) to preserve the historical "new servers claim fresh
    hosts" semantics rather than the injector's default refill-vacancy
    policy.
    """
    if spec.plan is not None:
        return spec.plan
    from repro.faulting.plan import FaultPlan

    plan = FaultPlan(name=spec.name, seed=spec.seed)
    next_server_slot = spec.n_initial_servers
    for at, action in spec.schedule:
        if action == "crash-serving":
            plan = plan.crash_serving(at)
        elif action == "server-up":
            plan = plan.server_up(at, host=next_server_slot)
            next_server_slot += 1
        else:
            raise ServiceError(f"unknown scenario action {action!r}")
    return plan


@dataclass
class LiveScenario:
    """A scenario built but not yet (fully) run.

    ``run_scenario`` drives one of these to completion; ``repro-vod
    watch`` instead calls :meth:`step` in short slices, redrawing a
    dashboard between them.  Either way :meth:`finish` settles the
    observers, writes the telemetry summary trailer and fills in the
    :class:`ScenarioResult`.  Used as a context manager, ``finish`` runs
    even when the simulation raises — the export then records the crash
    and the partial scorecards survive.
    """

    spec: ScenarioSpec
    sim: Simulator
    result: ScenarioResult
    injector: Optional["FaultInjector"]
    observers: RunObservers

    def step(self, until: float, max_events: Optional[int] = None) -> float:
        """Advance the simulation toward ``until``; returns the new now.

        With an event budget the slice may end early; ``sim.now`` then
        reflects the last dispatched event (not ``until``), so callers
        just keep stepping while ``now < until`` — no compensation.
        """
        self.sim.run_until(until, max_events=max_events)
        return self.sim.now

    def finish(self, error: Optional[BaseException] = None) -> ScenarioResult:
        """Settle observers, close the export, fill the result.  A second
        call only refills the result: the observers settle once."""
        result = self.result
        injector = self.injector
        if injector is not None:
            result.crash_times = list(injector.crash_times)
            result.server_up_times = list(injector.server_up_times)
        observers = self.observers
        observers.settle(
            error,
            faults_fired=len(injector.fired) if injector is not None else 0,
            displayed=result.client.displayed_total,
            skipped=result.client.skipped_total,
        )
        result.qoe = observers.qoe
        result.slo = observers.slo
        result.failovers = observers.failovers
        result.incidents = observers.incidents
        result.flight = observers.flight
        result.telemetry_path = observers.path
        return result

    def __enter__(self) -> "LiveScenario":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.finish(error=exc)
        return False  # never swallow the exception


def prepare_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    telemetry_path: Optional[str] = None,
    telemetry_full: bool = False,
    observe: Optional[bool] = None,
    flight: bool = False,
    telemetry_max_events: Optional[int] = None,
    telemetry_since: Optional[float] = None,
    telemetry_until: Optional[float] = None,
    meta: Optional[Dict] = None,
) -> LiveScenario:
    """Build a scenario's world without running it.

    ``telemetry_path`` streams the run's telemetry to a JSONL file (see
    :mod:`repro.telemetry.export`; a ``.gz`` suffix compresses, and
    ``telemetry_max_events`` / ``telemetry_since`` / ``telemetry_until``
    bound the export) whose header holds ``meta`` (default: the
    scenario's name, network, seed and duration).  ``observe`` attaches
    the QoE and SLO observers; it defaults to "whenever telemetry is
    exported", and can be forced on (``repro-vod watch`` without an
    artifact) or off.  ``flight`` attaches a
    :class:`~repro.telemetry.flight.FlightRecorder` so the run assembles
    incidents (``result.incidents``).  All of these are pure observers,
    so results are identical with or without them.  They attach before
    the world is built, so the export sees it being built.
    """
    if spec.n_viewers < 1:
        raise ServiceError(
            f"a scenario needs at least one viewer, got n_viewers={spec.n_viewers}"
        )
    effective_seed = spec.seed if seed is None else seed
    sim = Simulator(seed=effective_seed)
    if observe is None:
        observe = telemetry_path is not None
    if meta is None:
        meta = dict(
            scenario=spec.name,
            network=spec.network,
            seed=effective_seed,
            run_duration_s=spec.run_duration_s,
        )
    observers = RunObservers(
        sim,
        telemetry_path,
        meta,
        observe=observe,
        # Admission is opt-in, and so is its SLO rule — keeping
        # default summaries stable for policy-free runs.
        slo="paper" if spec.admission is None else "admission",
        flight=flight,
        full=telemetry_full,
        max_events=telemetry_max_events,
        since=telemetry_since,
        until=telemetry_until,
    )
    topology = build_topology(spec, sim)
    catalog = MovieCatalog(
        [Movie.synthetic("feature", duration_s=spec.movie_duration_s)]
    )
    # The replica map is derived, not hand-authored: the paper's
    # measurement scenarios replicate the single feature at every
    # initial server, which is exactly a k=n static spread.  Servers
    # brought up later by the fault plan are unknown to the plan and
    # fall back to replicate_all, preserving the historical "new
    # servers hold everything" semantics.
    profiles = [
        ServerProfile(name=f"server{i}")
        for i in range(spec.n_initial_servers)
    ]
    placement = StaticKWay(k=spec.n_initial_servers).build(
        PlacementContext(
            catalog=catalog, servers=profiles, k=spec.n_initial_servers
        )
    )
    deployment = Deployment.from_placement(
        topology,
        placement,
        catalog,
        server_hosts={profile.name: i for i, profile in enumerate(profiles)},
        server_config=spec.server_config,
        client_config=spec.client_config,
        replicate_all=True,
        fd_timeout=spec.fd_timeout,
        admission_policy=(
            spec.admission.build() if spec.admission is not None else None
        ),
    )
    viewers = _attach_viewers(spec, deployment)
    client = None if spec.flyweight else viewers[0]

    driver = None
    if spec.workload is not None:
        from repro.workloads import WorkloadDriver, ZipfCatalogSampler

        if spec.n_client_hosts < 2 or spec.network == "edge-lan":
            raise ServiceError(
                "a workload population needs client hosts of its own "
                "(n_client_hosts >= 2, not on the edge LAN)"
            )
        # The population gets the client hosts before the viewers'.
        first_viewer = len(topology.hosts) - spec.n_viewers
        driver = WorkloadDriver(
            deployment,
            list(range(first_viewer - spec.n_client_hosts + 1, first_viewer)),
            sampler=ZipfCatalogSampler(["feature"]),
            profile=spec.workload.viewer_profile(),
            workload_seed=effective_seed,
        )
        driver.schedule_arrivals(spec.workload.arrival_times(effective_seed))

    plan = injector = None
    if spec.plan is not None or spec.schedule:
        from repro.faulting.injector import FaultInjector

        plan = plan_for_spec(spec)
        injector = FaultInjector(deployment, plan, client=client).start()
    result = ScenarioResult(
        spec, sim, deployment, client, viewers, plan, injector, driver
    )
    return LiveScenario(
        spec=spec, sim=sim, result=result, injector=injector, observers=observers
    )


def _attach_viewers(
    spec: ScenarioSpec, deployment: Deployment
) -> Union[List[VoDClient], "FlyweightPool"]:
    """Viewer ``i`` on the last hosts round-robin: its own host (and
    daemon) requesting now, or on the edge LAN a concentrator shared
    with the rest of its daemon's viewers, connecting at ``i``'s share
    of the window."""
    packed = spec.network == "edge-lan"
    n_hosts = _n_edges(spec) if packed else spec.n_viewers
    first = len(deployment.topology.hosts) - n_hosts
    window = spec.connect_window_s
    if spec.flyweight:
        pool = deployment.attach_flyweight("feature")
        for index in range(spec.n_viewers):
            pool.add_viewer(first + index % n_hosts)
        pool.connect_all(window)
        return pool
    viewers = []
    for index in range(spec.n_viewers):
        host = first + index % n_hosts
        if not packed:
            viewer = deployment.attach_client(host)
            viewer.request_movie("feature")
        else:
            node = deployment.topology.host(host)
            endpoint = deployment.domain.ensure_endpoint(node)
            viewer = deployment.attach_client(host, endpoint=endpoint, video_port=None)
            offset = (index * window) / max(1, spec.n_viewers)
            deployment.sim.call_at(offset, viewer.request_movie, "feature")
        viewers.append(viewer)
    return viewers


def run_scenario(
    spec: ScenarioSpec, seed: Optional[int] = None, **options
) -> ScenarioResult:
    """Execute a scenario and return the collected measurements.

    ``options`` are :func:`prepare_scenario`'s: ``telemetry_path``
    additionally streams the run's telemetry to a JSONL file and
    attaches the QoE/SLO observers (``result.qoe`` / ``result.slo``);
    ``flight`` attaches the flight recorder (``result.incidents``).  All
    are pure observers, so measurements are identical with or without
    them.  The export's summary trailer is written even if the
    simulation raises.
    """
    live = prepare_scenario(spec, seed=seed, **options)
    with live:
        live.step(spec.run_duration_s)
    return live.result
