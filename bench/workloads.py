"""The benchmark's four workloads: build them, read them back.

The harness drives the program only through public functions
(``build_scale_rig``, ``make_crash_most_loaded``, ``prepare_scenario``,
``LiveScenario.finish``, ``Simulator.run_until``) and reads public
counters afterwards.  Each workload is a pure function of its name and
the seed: the program receives only the generated rig.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class Workload:
    """One named set of inputs (``BENCHMARK.json`` says why each exists)."""

    name: str
    kind: str  # "scale" | "wan"
    n_viewers: int
    duration_s: float
    slice_s: float
    crash_at_s: float
    mode: str = "full"  # scale rigs: "flyweight" | "full"
    connect_window_s: float = 2.0  # scale rigs: build_scale_rig's default
    server_up_at_s: float = 0.0  # WAN only
    observe: bool = False  # WAN only: QoE + SLO observers + flight recorder


#: Simulated durations are shortened from the issue's 12 s / 150 s so a
#: run of three or more fresh-interpreter repetitions fits the driver's
#: time cap; N is never reduced and the fault schedule keeps its shape.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fly20k_crash",
            kind="scale", mode="flyweight", n_viewers=20_000,
            duration_s=8.0, crash_at_s=4.0, slice_s=0.25,
        ),
        # All 400 connect at t=0 (the conformance rig's setting): the
        # admission queue then admits them in one sorted batch.  With the
        # default 2 s window about one seed in thirty (27, say) hits the
        # order-divergent admissions of DESIGN 8.5, a crashed server's
        # viewer is unknown to its peers and is never served again — and a
        # benchmark workload must not fail operations.
        Workload(
            name="full400_crash",
            kind="scale", mode="full", n_viewers=400, connect_window_s=0.0,
            duration_s=6.0, crash_at_s=3.0, slice_s=0.25,
        ),
        # The WAN rigs: a flash crowd of 8 riding along + the measured client.
        Workload(
            name="wan8_lossy",
            kind="wan", n_viewers=9,
            duration_s=75.0, server_up_at_s=12.5, crash_at_s=23.5, slice_s=2.0,
        ),
        Workload(
            name="wan8_observed",
            kind="wan", n_viewers=9, observe=True,
            duration_s=75.0, server_up_at_s=12.5, crash_at_s=23.5, slice_s=2.0,
        ),
    )
}


class FailoverProbe:
    """Server lifecycle observer: crash -> each victim's takeover.

    The same bookkeeping as ``repro.experiments.scale._FailoverObserver``
    but fed by ``on_server_crash``, so it also works when a fault plan
    (not the harness) does the crashing.  Routine load-balance moves
    also start sessions with ``takeover=True``; only the first takeover
    of a client the crashed server was serving counts.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.crash_time: Optional[float] = None
        self.victims: set = set()
        self.pending: set = set()  # victims not yet taken over
        self.latencies: List[float] = []
        self.sessions_started = 0
        self.takeovers = 0

    def on_server_crash(self, server: Any, served: Any) -> None:
        self.crash_time = self.sim.now
        self.victims = set(served)
        self.pending = set(served)

    def on_session_start(self, server: Any, record: Any, takeover: bool) -> None:
        self.sessions_started += 1
        if takeover:
            self.takeovers += 1
            if record.client in self.pending:
                self.pending.discard(record.client)
                self.latencies.append(self.sim.now - self.crash_time)


@dataclass
class Rig:
    """A built workload, ready to advance."""

    workload: Workload
    sim: Any
    deployment: Any
    probe: FailoverProbe
    pause_gc: bool
    pool: Any = None  # FlyweightPool (fly20k_crash)
    live: Any = None  # LiveScenario (wan8_*)
    rig_observer: Any = None  # the scale rig's own failover observer
    views_installed: int = 0

    def _count_view(self, _daemon: int, _group: str, _view: Any) -> None:
        self.views_installed += 1


def build(name: str, seed: int) -> Rig:
    """Build workload ``name`` for ``seed`` (imports ``repro`` lazily so
    the caller can time the import as part of set-up)."""
    workload = WORKLOADS[name]
    if workload.kind == "scale":
        from repro.experiments.scale import build_scale_rig, make_crash_most_loaded

        sim, deployment, viewers, observer = build_scale_rig(
            workload.n_viewers, 1.0, n_servers=3, seed=seed, mode=workload.mode,
            connect_window_s=workload.connect_window_s,
        )
        sim.call_at(
            workload.crash_at_s, make_crash_most_loaded(deployment, observer)
        )
        rig = Rig(
            workload, sim, deployment, FailoverProbe(sim),
            # The scale experiment pauses the cyclic GC for its measured
            # section (run_scale_point); so does the benchmark.
            pause_gc=True,
            pool=viewers if workload.mode == "flyweight" else None,
            rig_observer=observer,
        )
    else:
        from repro.experiments.scenarios import (
            WAN_SCENARIO,
            WorkloadSpec,
            prepare_scenario,
        )

        spec = replace(
            WAN_SCENARIO,
            workload=WorkloadSpec(
                "flash-crowd",
                n_viewers=workload.n_viewers - 1,
                at_s=2.0,
                spread_s=4.0,
            ),
            n_client_hosts=workload.n_viewers,
            run_duration_s=workload.duration_s,
            schedule=(
                (workload.server_up_at_s, "server-up"),
                (workload.crash_at_s, "crash-serving"),
            ),
        )
        live = prepare_scenario(
            spec, seed=seed, observe=workload.observe, flight=workload.observe
        )
        sim = live.sim
        deployment = live.result.deployment
        # run_scenario leaves the collector alone; so does the benchmark.
        rig = Rig(
            workload, sim, deployment, FailoverProbe(sim), pause_gc=False, live=live,
        )
    deployment.add_server_observer(rig.probe)
    deployment.domain.add_view_observer(rig._count_view)
    return rig


# ----------------------------------------------------------------------
# Reading the run back
# ----------------------------------------------------------------------
def _full_clients(rig: Rig) -> List[Any]:
    return list(rig.deployment.clients.values())


def outcome(rig: Rig) -> Dict[str, Any]:
    """Everything the simulated service did, exact for a fixed seed.

    Call once, after the last slice (and after ``live.finish()`` on the
    WAN rigs).  ``outcome_digest`` folds the per-viewer end state, the
    failover list and the frame totals into one sha256.
    """
    sim = rig.sim
    probe = rig.probe
    clients = _full_clients(rig)
    viewers: List[list] = []
    received = late = skipped = 0
    stall_s = 0.0
    never_served = 0
    for client in clients:
        client.decoder.end_stall(sim.now)
        stats = client.stats
        received += stats.received
        late += stats.late_frames
        skipped += client.skipped_total
        stall_s += client.decoder.stats.stall_time_s
        if stats.received == 0 and not getattr(client, "abandoned", False):
            never_served += 1
        viewers.append([
            client.name, stats.received, client.displayed_total,
            client.skipped_total, stats.late_frames,
            repr(client.decoder.stats.stall_time_s), len(stats.migrations),
        ])
    frames = received
    requested = len(clients)
    pool = rig.pool
    if pool is not None:
        positions = pool.positions()
        for index, name in enumerate(pool.names):
            serving = pool.serving[index]
            viewers.append([
                name, positions[name], pool.started[index],
                None if serving is None else str(serving),
            ])
        frames += pool.frames_served()
        requested += len(pool)
        never_served += sum(1 for started in pool.started if not started)
    viewers.sort()
    latencies = sorted(probe.latencies)
    # A victim is recovered once a peer takes it over.  Not every victim
    # needs to be: for some seeds the crashed server still held duplicate
    # sessions of viewers a peer was already serving (the order-divergent
    # admissions of DESIGN 8.5), so being served at run end counts too.
    still_served = set()
    for server in rig.deployment.live_servers():
        still_served.update(server.served_clients())
    n_victims = len(probe.victims)
    unrecovered = len(probe.pending - still_served)
    digest = hashlib.sha256(
        json.dumps(
            [viewers, [repr(x) for x in latencies], frames, unrecovered]
        ).encode()
    ).hexdigest()
    facts: Dict[str, Any] = {
        "outcome_digest": digest,
        "frames_delivered": frames,
        "victims": n_victims,
        "victims_taken_over": len(latencies),
        # A crash without victims fails the run; 0.0 keeps these numeric.
        "failover_max_s": latencies[-1] if latencies else 0.0,
        "failover_p50_s": statistics.median(latencies) if latencies else 0.0,
        "recovered_ratio": (
            (n_victims - unrecovered) / n_victims if n_victims else 0.0
        ),
        "late_skip_ratio": (late + skipped) / received if received else 0.0,
        "stall_s_per_viewer": stall_s / len(clients) if clients else 0.0,
        "ops_attempted": requested + n_victims,
        "ops_failed": never_served + unrecovered,
        "qoe_mean_score": 0.0,
        "slo_breaches": 0,
    }
    facts["ops_failed_ratio"] = facts["ops_failed"] / facts["ops_attempted"]
    if rig.rig_observer is not None:
        # The rig's own observer must agree with the probe.
        facts["rig_observer_agrees"] = (
            sorted(rig.rig_observer.latencies) == latencies
        )
    if rig.live is not None and rig.workload.observe:
        result = rig.live.result
        scores = [card.score() for card in result.qoe.values()]
        facts["qoe_mean_score"] = statistics.fmean(scores) if scores else 0.0
        facts["slo_breaches"] = sum(
            rule["breaches"] for rule in result.slo.values()
        )
    return facts


def layer_counters(rig: Rig) -> Dict[str, float]:
    """Exact per-layer work counts read from public counters."""
    sim = rig.sim
    deployment = rig.deployment
    counters: Dict[str, float] = {}

    sent = delivered = loss = queue = sent_bytes = 0
    for link in deployment.network.links():
        stats = link.stats()
        sent += stats.sent_packets
        delivered += stats.delivered_packets
        loss += stats.dropped_loss
        queue += stats.dropped_queue
        sent_bytes += stats.sent_bytes
    counters["net.datagrams_sent"] = sent
    counters["net.datagrams_delivered"] = delivered
    counters["net.dropped_loss"] = loss
    counters["net.dropped_queue"] = queue
    counters["net.bytes_sent"] = sent_bytes

    endpoints = {}
    for owner in list(deployment.servers.values()) + _full_clients(rig):
        endpoints[id(owner.endpoint)] = owner.endpoint
    domain = deployment.domain
    for node in domain.daemon_nodes():
        endpoint = domain.endpoint(node)
        endpoints[id(endpoint)] = endpoint
    counters["gcs.control_packets"] = sum(
        e.control_packets_sent for e in endpoints.values()
    )
    counters["gcs.control_bytes"] = sum(
        e.control_bytes_sent for e in endpoints.values()
    )
    counters["gcs.views_installed"] = rig.views_installed

    servers = list(deployment.servers.values())
    counters["server.frames_sent"] = sum(s.video_frames_sent for s in servers)
    counters["server.video_bytes"] = sum(s.video_bytes_sent for s in servers)
    counters["server.sync_bytes"] = sum(s.state_sync_bytes_sent for s in servers)
    counters["server.sessions_started"] = rig.probe.sessions_started
    counters["server.takeovers"] = rig.probe.takeovers

    clients = _full_clients(rig)
    counters["client.frames_received"] = sum(c.stats.received for c in clients)
    counters["client.late_frames"] = sum(c.stats.late_frames for c in clients)
    counters["client.overflow_discards"] = sum(
        c.stats.overflow_discards for c in clients
    )
    counters["client.flow_messages"] = sum(c.stats.flow_messages for c in clients)
    counters["client.emergencies"] = sum(c.stats.emergencies_sent for c in clients)
    pool = rig.pool
    counters["client.connects_sent"] = 0 if pool is None else pool.connects_sent
    counters["client.rows_started"] = 0 if pool is None else sum(pool.started)

    counters["telemetry.emits"] = sim.telemetry.emitted
    flight = rig.live.result.flight if rig.live is not None else None
    flight = flight or {}
    counters["telemetry.flight_retained"] = sum(flight.get("retained", {}).values())
    counters["telemetry.flight_evicted"] = sum(flight.get("evicted", {}).values())
    counters["telemetry.flight_bytes"] = flight.get("estimated_bytes", 0)
    counters["telemetry.incidents"] = flight.get("incidents", 0)
    return counters
