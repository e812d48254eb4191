"""Scale experiment: the data-plane fast path under thousands of viewers.

The paper's introduction motivates the design with metropolitan-scale
deployments: "in such an environment, scalability and fault tolerance
will be key issues".  This experiment loads one service with N
concurrent viewers (N = 100 / 1 000 / 5 000), crashes the most-loaded
server mid-run, and measures

* simulator throughput — events and delivered frames per wall-clock
  second — on the batched fast path (its speed against the per-frame
  path is ``bench/``'s to measure, not this experiment's), and
* failover latency (crash to takeover session start), which must stay
  flat in N: the takeover path is per-client state lookup, not a scan.

Topology: the ``"edge-lan"`` network of
:class:`~repro.experiments.scenarios.ScenarioSpec`.  Each edge node
concentrates up to ``CLIENTS_PER_EDGE`` viewers behind one GCS daemon
and one fat edge link, so the control plane scales with the number of
edges rather than the number of viewers — how a real metropolitan
head-end would be provisioned — while the video plane still crosses two
switched hops per frame.  All links are loss-free, so batched sessions
stay on the fast path for the entire run.

Two population modes, both on one-second batch windows
(:data:`BATCH_WINDOW_S`):

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
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.client.player import ClientConfig
from repro.errors import ServiceError
from repro.experiments.scenarios import ScenarioSpec, prepare_scenario
from repro.server.server import ServerConfig
from repro.sim.core import Simulator
from repro.telemetry.harness import RunObservers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.deployment import Deployment

#: The scale rig: the feature fully replicated on three head-end servers
#: (k = 3: the crash needs every survivor able to adopt any share of
#: the flood), viewers on the edge LAN connecting over the first 2 s.
SCALE_SPEC = ScenarioSpec(
    "scale", "edge-lan", movie_duration_s=120.0, n_initial_servers=3,
    seed=77, spare_hosts=0, connect_window_s=2.0,
)

#: Default population sweep (the paper's "scalability" claim at depth).
DEFAULT_SIZES = (100, 1000, 5000)

#: Every scale run's ``ServerConfig.batch_window_s``: one second of
#: frames per precomputed burst.
BATCH_WINDOW_S = 1.0


@dataclass
class ScalePoint:
    """Measurements from one (N, mode) run.

    A flyweight point also says, read at the end of the run, how many
    rows no live cohort lists (``unlisted``) and how many two or more
    list (``listed_twice``), and carries the paper's SLO verdicts over
    the whole run (``slo``; an unlisted row counts as stalled)."""

    n_clients: int
    duration_s: float
    events: int
    wall_s: float
    frames_delivered: int
    failover_latencies: List[float] = field(default_factory=list)
    takeovers: int = 0
    flyweight: bool = False
    unlisted: Optional[int] = None
    listed_twice: Optional[int] = None
    slo: Optional[Dict] = None
    # Flight-recorder output (``as_dict`` incidents, JSON-ready) and
    # the recorder's self-metering.
    incidents: List[Dict] = field(default_factory=list)
    flight: Optional[Dict] = None

    @property
    def mode(self) -> str:
        return "flyweight" if self.flyweight else "batched"

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

    def on_server_crash(self, server, served) -> None:
        # ``served`` covers both per-client sessions and flyweight
        # cohort rows — failover latency is measured identically across
        # modes (and must stay flat in N for both).
        self.crash_time = self.sim.now
        self.victim_clients = set(served)

    def on_session_start(self, server, record, takeover: bool) -> None:
        if takeover and record.client in self.victim_clients:
            self.victim_clients.discard(record.client)
            self.latencies.append(self.sim.now - self.crash_time)


def make_crash_most_loaded(deployment: "Deployment", observer=None):
    """Old spelling of ``FaultPlan().crash_most_loaded(at)``'s action."""
    return lambda: deployment.busiest_server().crash()


def _rig(n_clients: int, mode: str, server_config: ServerConfig, **fields):
    """:data:`SCALE_SPEC`'s world with ``n_clients`` viewers and a
    failover observer: ``(sim, deployment, viewers, observer)``."""
    if mode not in ("full", "flyweight"):
        raise ServiceError(f"unknown scale-rig mode {mode!r}")
    live = prepare_scenario(replace(
        SCALE_SPEC, n_viewers=n_clients, flyweight=mode == "flyweight",
        server_config=server_config, **fields,
    ))
    deployment = live.result.deployment
    observer = _FailoverObserver(live.sim)
    deployment.add_server_observer(observer)
    return live.sim, deployment, live.result.viewers, observer


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
    mode: str = "full", crash_at: Optional[float] = None
) -> Dict[str, Dict]:
    """Run the conformance rig and return its canonical trace.

    The rig pins every timing-relevant knob so the two modes are
    event-for-event comparable: ``connect_window_s=0.0`` (the admission
    queue drains the whole population in one sorted batch, making
    placement independent of arrival jitter), 48 viewers, few enough
    for one edge node (the GCS daemon set is then identical across
    modes), and — in full mode — mux clients with a prebuffer deep
    enough that flow control stays silent, so full-object playheads
    advance at the fixed base rate exactly like the flyweight
    arithmetic.  Returns ``{"starts": .., "final": ..}`` where
    ``final`` maps each still-served viewer to its server-side playhead
    at 8 s (seed 77)."""
    duration_s = 8.0
    plan = None
    if crash_at is not None:
        from repro.faulting.plan import FaultPlan

        plan = FaultPlan().crash_most_loaded(crash_at)
    sim, deployment, viewers, observer = _rig(
        48, mode,
        ServerConfig(batch_window_s=BATCH_WINDOW_S, session_mux=True),
        client_config=ClientConfig(session_mux=True, prebuffer_frames=330),
        seed=77, movie_duration_s=duration_s + 60.0, connect_window_s=0.0,
        plan=plan,
    )
    trace = ConformanceTrace()
    deployment.add_server_observer(trace)
    sim.run_until(duration_s)
    final: Dict[str, int] = {}
    for server in deployment.live_servers():
        for client, session in server.sessions.items():
            final[client.name] = int(session.position)
        for replica in server.movies.values():
            cohort = replica.cohort
            if cohort is not None:
                for client in cohort.clients():
                    final[client.name] = int(cohort.position_of(client))
    return {
        "starts": {name: trace.starts[name] for name in sorted(trace.starts)},
        "final": {name: final[name] for name in sorted(final)},
        "failover_latencies": sorted(observer.latencies),
    }


def build_scale_rig(
    n_clients: int,
    batch_window_s: float,
    n_servers: int = 3,
    seed: int = 77,
    connect_window_s: float = 2.0,
    mode: str = "full",
):
    """:data:`SCALE_SPEC`'s world with ``n_clients`` viewers connecting
    over the first ``connect_window_s`` seconds of the run.

    Connects start at t=0, before the movie group's first view exists:
    the servers' admission queue absorbs the flood and admits it once
    the view settles, so the join-regime recompute never sees a growing
    record set.

    Returns ``(sim, deployment, viewers, observer)``: ``viewers`` is the
    list of :class:`VoDClient` (``mode="full"``) or the
    :class:`~repro.client.flyweight.FlyweightPool` holding them as rows
    (``mode="flyweight"``), and ``observer`` measures failover latency
    from any server crash."""
    return _rig(
        n_clients, mode, ServerConfig(batch_window_s=batch_window_s),
        n_initial_servers=n_servers, seed=seed,
        connect_window_s=connect_window_s,
    )


def run_scale_point(
    n_clients: int,
    duration_s: float = 12.0,
    crash_at: Optional[float] = None,
    seed: int = 77,
    n_servers: int = 3,
    telemetry_path: Optional[str] = None,
    flyweight: bool = False,
    wall_budget_s: Optional[float] = None,
    flight: bool = False,
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
    measurement mode).  ``flight`` attaches a bounded
    :class:`~repro.telemetry.FlightRecorder` — a pure bus subscriber,
    so the simulated outcome (events, frames, failover latencies) is
    byte-identical with it on or off; the point then carries the
    assembled incidents and the recorder's self-metering.  A flyweight
    point's listing counts and SLO verdicts are read after the measured
    section, so they cost the wall figure nothing."""
    if crash_at is None:
        crash_at = duration_s / 2.0
    sim, deployment, viewers, observer = _rig(
        n_clients, "flyweight" if flyweight else "full",
        ServerConfig(batch_window_s=BATCH_WINDOW_S),
        n_initial_servers=n_servers, seed=seed,
        movie_duration_s=duration_s + 60.0,
    )
    observers = RunObservers(
        sim,
        telemetry_path,
        dict(
            experiment="scale",
            n_clients=n_clients,
            batch_window_s=BATCH_WINDOW_S,
            mode="flyweight" if flyweight else "full",
            seed=seed,
            duration_s=duration_s,
        ),
        flight=flight,
    )

    # A plain event, not a FaultInjector action: an injected fault is a
    # causal root with a ``fault.fired`` record of its own, and this
    # producer's export is pinned without them.
    sim.call_at(crash_at, lambda: deployment.busiest_server().crash())

    # The sim heap is cycle-free (profiling found 859 collector passes
    # freeing zero objects over a 20k-viewer run), so automatic cyclic
    # GC only adds wall time — ~33% at N=20k.  Pause it for the
    # measured section.  The observers as context manager write the
    # summary trailer (``crashed`` / ``error``) even if the run raises.
    from repro.sim.gcgate import paused_gc

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

        if flyweight:
            frames = viewers.frames_served()
        else:
            frames = sum(client.stats.received for client in viewers)
        point = ScalePoint(
            n_clients=n_clients,
            duration_s=duration_s,
            events=events,
            wall_s=wall,
            frames_delivered=frames,
            failover_latencies=list(observer.latencies),
            takeovers=len(observer.latencies),
            flyweight=flyweight,
        )
        observers.settle(
            frames_delivered=frames,
            takeovers=point.takeovers,
            max_failover_s=point.max_failover_s,
        )
    point.incidents = [incident.as_dict() for incident in observers.incidents]
    point.flight = observers.flight
    if flyweight:
        from repro.telemetry.slo import whole_run_slo

        point.unlisted, point.listed_twice = viewers.listing()
        point.slo = whole_run_slo(
            n_clients, sim.now, point.failover_latencies,
            stalled_clients=point.unlisted,
        )
    return point


def _point_payload(row: ScalePoint) -> Dict:
    """One benchmark-JSON row; flyweight points carry their listing and
    SLO facts."""
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
    if row.flyweight:
        payload.update(
            unlisted=row.unlisted, listed_twice=row.listed_twice, slo=row.slo,
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
    seconds per point), ``flyweight_sizes`` (populations to run in
    flyweight mode, one process and one deployment each — this is where
    20 000..1 000 000 live), ``wall_budget`` (optional wall-clock ceiling per flyweight
    point, seconds), ``telemetry_n`` (population of the
    telemetry-artifact run; ignored without ``spec.telemetry_path``),
    ``flight`` (attach a flight recorder to flyweight points; they then
    carry incidents and recorder metering).
    """
    from repro.experiments.api import ExperimentResult
    from repro.telemetry.text import Table

    params = spec.params
    sizes = tuple(params.get("sizes", DEFAULT_SIZES))
    duration = float(params.get("duration", 12.0))
    flyweight_sizes = tuple(params.get("flyweight_sizes", ()))
    wall_budget = params.get("wall_budget")
    wall_budget = None if wall_budget is None else float(wall_budget)
    flight = bool(params.get("flight", False))
    seed = spec.seed if spec.seed is not None else 77

    points = [
        run_scale_point(n_clients, duration_s=duration, seed=seed)
        for n_clients in sizes
    ]
    for n_clients in flyweight_sizes:
        points.append(
            run_scale_point(
                n_clients, duration_s=duration, seed=seed,
                flyweight=True, wall_budget_s=wall_budget, flight=flight,
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
            "points": [_point_payload(row) for row in points],
        }
        with open(benchmark_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        artifacts["benchmark_json"] = benchmark_json
    if spec.telemetry_path is not None:
        telemetry_n = int(params.get("telemetry_n", min(sizes)))
        run_scale_point(
            telemetry_n, duration_s=duration, seed=seed,
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
        table.add_row(
            point.n_clients,
            point.mode,
            point.events,
            f"{point.wall_s:.2f}",
            f"{point.events_per_s:,.0f}",
            f"{point.frames_per_wall_s:,.0f}",
            point.takeovers,
            f"{point.max_failover_s:.3f}",
        )

    blocks = [table.render()]
    failovers = [p.max_failover_s for p in points if p.takeovers]
    if len(failovers) >= 2:
        blocks.append(
            "Failover latency across populations: "
            + ", ".join(f"{v:.3f}s" for v in failovers)
            + " (flat in N: takeover is per-client state lookup)"
        )
    for point in points:
        if point.flyweight:
            slo_ok = all(state["ok"] for state in point.slo.values())
            blocks.append(
                f"Flyweight N={point.n_clients:,}: {point.unlisted} row(s) "
                f"listed by no live cohort, {point.listed_twice} by two or "
                f"more; SLO {'clean' if slo_ok else 'BREACHED'}"
                + (
                    f", {len(point.incidents)} incident(s) recorded"
                    if point.flight is not None
                    else ""
                )
            )
    return ExperimentResult(spec=spec, blocks=blocks, data=points,
                            artifacts=artifacts)
