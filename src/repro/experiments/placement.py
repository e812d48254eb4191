"""Placement experiment: replication strategies under correlated faults.

The paper stores movies "on different servers for load balancing" and
tolerates "the failure of k-1 servers" when every movie has k replicas
— but never says *which* servers should hold *which* movies.  This
experiment runs the same catalog-scale service under each strategy in
:data:`repro.placement.STRATEGIES` and compares what the choice buys:

* a Zipf(0.8)-popular catalog mapped onto six servers in three
  failure domains (racks) by the strategy under test;
* a staggered population of full clients sampling titles by
  popularity;
* two **live replica migrations** through the online
  :class:`~repro.placement.Rebalancer` (copy-then-drop over the
  ordinary join/leave machinery) while streams are running;
* a **correlated crash** — the whole first rack dies at once — with
  availability measured while the outage is fresh;
* a :meth:`~repro.placement.Rebalancer.heal` pass restoring the
  replication floor, after which stranded viewers re-admit themselves;
* a **flash crowd** piling onto the rank-1 title late in the run.

Scored per strategy: storage cost (catalog copies), analytic and
measured availability under the rack crash, mean viewer QoE, stalls,
migration outcomes, prefix handoffs (the ``prefix`` strategy hands
sessions from edge caches to core servers mid-stream) and — the hard
gate — :class:`~repro.faulting.invariants.InvariantChecker` violations,
which must be **zero** for every strategy.  The expected headline:
``markov`` strictly beats ``static`` on availability under the
correlated crash at comparable storage, because the Markov strategy
never lands a title's whole replica set in one failure domain.

CI regression-checks the emitted benchmark JSON against
``benchmarks/BENCH_placement_baseline.json`` via
``repro-vod gate placement`` (:mod:`repro.experiments.gate`).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.api import ExperimentResult, ExperimentSpec, labelled_path
from repro.faulting.invariants import InvariantChecker
from repro.net.topologies import build_lan
from repro.placement import (
    PlacementContext,
    PlacementPlan,
    Rebalancer,
    ServerProfile,
    make_strategy,
    plan_availability,
    surviving_availability,
)
from repro.placement.plan import build_zipf_catalog
from repro.service.deployment import Deployment
from repro.sim.core import Simulator
from repro.telemetry.harness import RunObservers
from repro.telemetry.text import Table
from repro.workloads.popularity import ZipfCatalogSampler

#: Default strategy line-up (every entry of ``repro.placement.STRATEGIES``).
DEFAULT_STRATEGIES: Tuple[str, ...] = ("static", "popularity", "markov", "prefix")

#: Six servers, two per rack; the whole first rack dies mid-run.  Rack0
#: is also the *least* reliable hardware, so availability-aware
#: placement has real signal to act on.
N_SERVERS = 6
RACK_FAIL_RATES = {"rack0": 0.04, "rack1": 0.02, "rack2": 0.01}
CRASHED_RACK = "rack0"

#: Edge caches store only this many seconds of each title under the
#: ``prefix`` strategy; long enough that handoffs land inside the run.
PREFIX_S = 45.0

#: Timeline (seconds of simulated time).
T_MIGRATE = 8.0
T_CRASH = 20.0
T_MEASURE = 22.0
T_HEAL = 26.0
T_FLASH = 30.0
DEFAULT_DURATION_S = 52.0

#: Catalog and population defaults — small enough for CI, large enough
#: that strategies actually diverge.
DEFAULT_TITLES = 24
DEFAULT_CLIENTS = 18
DEFAULT_FLASH = 6
MOVIE_DURATION_S = 150.0
ZIPF_ALPHA = 0.8
REPLICATION_K = 2


@dataclass
class StrategyOutcome:
    """Everything measured about one strategy's run."""

    strategy: str
    storage_copies: float
    steady_availability: float  # popularity-weighted, all servers up
    outage_analytic: float  # plan-based, CRASHED_RACK down
    outage_measured: float  # live catalog at T_MEASURE
    qoe_mean: float
    stall_events: int
    migrations_completed: int
    migrations_aborted: int
    prefix_handoffs: int
    heal_additions: int
    violations: int
    violation_details: List[str] = field(default_factory=list)
    telemetry_path: Optional[str] = None

    def as_benchmark(self) -> Dict[str, object]:
        return {
            "storage_copies": round(self.storage_copies, 4),
            "steady_availability": round(self.steady_availability, 6),
            "outage_analytic": round(self.outage_analytic, 6),
            "outage_measured": round(self.outage_measured, 6),
            "qoe_mean": round(self.qoe_mean, 4),
            "stall_events": self.stall_events,
            "migrations_completed": self.migrations_completed,
            "migrations_aborted": self.migrations_aborted,
            "prefix_handoffs": self.prefix_handoffs,
            "heal_additions": self.heal_additions,
            "violations": self.violations,
        }


@dataclass
class PlacementComparison:
    """The experiment's native result: one outcome per strategy."""

    seed: int
    n_titles: int
    n_clients: int
    outcomes: List[StrategyOutcome] = field(default_factory=list)

    def outcome(self, strategy: str) -> StrategyOutcome:
        for outcome in self.outcomes:
            if outcome.strategy == strategy:
                return outcome
        raise KeyError(strategy)

    def benchmark_dict(self) -> Dict[str, object]:
        return {
            "experiment": "placement",
            "seed": self.seed,
            "n_titles": self.n_titles,
            "n_clients": self.n_clients,
            "strategies": {
                outcome.strategy: outcome.as_benchmark()
                for outcome in self.outcomes
            },
        }


def build_profiles(strategy: str) -> List[ServerProfile]:
    """Six servers, two per rack; the last rack is edge caches under
    the ``prefix`` strategy."""
    profiles = []
    for index in range(N_SERVERS):
        domain = f"rack{index // 2}"
        profiles.append(
            ServerProfile(
                name=f"server{index}",
                domain=domain,
                fail_rate=RACK_FAIL_RATES[domain],
                repair_rate=1.0,
                edge=(strategy == "prefix" and domain == "rack2"),
            )
        )
    return profiles


def _strategy_for(name: str) -> object:
    if name == "prefix":
        return make_strategy(name, prefix_s=PREFIX_S)
    return make_strategy(name)


def measured_availability(
    deployment: Deployment, shares: Dict[str, float]
) -> float:
    """Popularity-weighted share of titles with a live full replica —
    what the *actual* replica map (after migrations) provides, not what
    the original plan promised."""
    live = {server.name for server in deployment.live_servers()}
    total = 0.0
    for title, share in shares.items():
        if deployment.catalog.full_replicas(title) & live:
            total += share
    return total


def _pick_migrations(
    deployment: Deployment, plan: PlacementPlan, count: int = 2
) -> List[Tuple[str, str, str]]:
    """Deterministic (title, source, target) picks: move a popular
    title's first replica to the least-loaded live server holding no
    copy of it."""
    catalog = deployment.catalog
    live = sorted(
        server.name for server in deployment.live_servers()
    )
    moves: List[Tuple[str, str, str]] = []
    for title in plan.titles():
        if len(moves) >= count:
            break
        holders = catalog.full_replicas(title)
        sources = [name for name in sorted(holders) if name in live]
        targets = [
            name
            for name in live
            if name not in holders
            and catalog.prefix_of(title, name) is None
        ]
        if sources and targets:
            targets.sort(key=lambda name: (len(catalog.movies_of(name)), name))
            moves.append((title, sources[0], targets[0]))
    return moves


def run_strategy(
    strategy: str,
    seed: int,
    n_titles: int = DEFAULT_TITLES,
    n_clients: int = DEFAULT_CLIENTS,
    n_flash: int = DEFAULT_FLASH,
    duration_s: float = DEFAULT_DURATION_S,
    telemetry_path: Optional[str] = None,
) -> StrategyOutcome:
    """Run the full fault timeline under one placement strategy."""
    sim = Simulator(seed=seed)
    observers = RunObservers(
        sim,
        telemetry_path,
        dict(
            experiment="placement", strategy=strategy, seed=seed,
            run_duration_s=duration_s,
        ),
        observe=True,
        slo_rules=(),
    )
    placement_events, placement_sub = sim.telemetry.collect(
        prefixes=("placement.",)
    )

    catalog = build_zipf_catalog(n_titles, duration_s=MOVIE_DURATION_S)
    profiles = build_profiles(strategy)
    ctx = PlacementContext(
        catalog=catalog, servers=profiles, k=REPLICATION_K, alpha=ZIPF_ALPHA
    )
    plan = _strategy_for(strategy).build(ctx)
    shares = ctx.shares()

    topology = build_lan(sim, n_hosts=N_SERVERS + n_clients + n_flash)
    deployment = Deployment.from_placement(
        topology,
        plan,
        catalog,
        server_hosts={profile.name: i for i, profile in enumerate(profiles)},
    )
    # A strategy may leave some servers empty (markov shuns the shaky
    # rack); bring them up anyway as standby capacity for heal().
    for index, profile in enumerate(profiles):
        if profile.name not in deployment.servers:
            deployment.add_server(index, name=profile.name)
    checker = InvariantChecker(deployment).install()
    rebalancer = Rebalancer(deployment)

    # Staggered Zipf-popular audience.  One RNG per run, seeded the
    # same for every strategy, so all strategies face the identical
    # request sequence.
    rng = random.Random(seed)
    sampler = ZipfCatalogSampler(catalog.titles(), alpha=ZIPF_ALPHA)
    wishlist = sampler.sample_many(rng, n_clients)
    for index, title in enumerate(wishlist):
        client = deployment.attach_client(N_SERVERS + index)
        sim.call_at(
            0.25 + 0.1 * index,
            lambda c=client, t=title: c.request_movie(t),
        )

    # t=8: live migrations through the online rebalancer.
    def start_migrations() -> None:
        for title, source, target in _pick_migrations(deployment, plan):
            rebalancer.migrate(title, source, target)

    sim.call_at(T_MIGRATE, start_migrations)

    # t=20: the whole first rack dies at once (correlated crash).
    crashed = [
        profile.name for profile in profiles if profile.domain == CRASHED_RACK
    ]

    def crash_rack() -> None:
        for name in crashed:
            server = deployment.server(name)
            if server.running:
                server.crash()

    sim.call_at(T_CRASH, crash_rack)

    # t=22: availability while the outage is fresh (pre-heal).
    outage: Dict[str, float] = {}
    sim.call_at(
        T_MEASURE,
        lambda: outage.setdefault(
            "measured", measured_availability(deployment, shares)
        ),
    )

    # t=26: restore the replication floor on the survivors.
    heal_additions: List[Tuple[str, str]] = []
    sim.call_at(T_HEAL, lambda: heal_additions.extend(rebalancer.heal()))

    # t=30: flash crowd on the rank-1 title.
    hot_title = catalog.titles()[0]
    for index in range(n_flash):
        client = deployment.attach_client(N_SERVERS + n_clients + index)
        sim.call_at(
            T_FLASH + 0.15 * index,
            lambda c=client, t=hot_title: c.request_movie(t),
        )

    # The observers as context manager write the summary trailer
    # (``crashed`` / ``error``) even if the run raises.
    with observers:
        sim.run_until(duration_s)
        checker.stop()
        observers.settle(
            strategy=strategy,
            violations=len(checker.violations),
            migrations_completed=len(rebalancer.completed),
        )
    placement_sub.close()

    scores = [card.score() for card in observers.qoe.values()]
    stall_events = sum(
        client.decoder.stats.stall_events
        for client in deployment.clients.values()
    )
    handoffs = sum(
        1 for event in placement_events if event.kind == "placement.prefix.handoff"
    )
    return StrategyOutcome(
        strategy=strategy,
        storage_copies=plan.storage_copies(catalog),
        steady_availability=plan_availability(plan, ctx),
        outage_analytic=surviving_availability(plan, ctx, crashed),
        outage_measured=outage.get("measured", 0.0),
        qoe_mean=sum(scores) / len(scores) if scores else 0.0,
        stall_events=stall_events,
        migrations_completed=len(rebalancer.completed),
        migrations_aborted=len(rebalancer.aborted),
        prefix_handoffs=handoffs,
        heal_additions=len(heal_additions),
        violations=len(checker.violations),
        violation_details=[str(v) for v in checker.violations],
        telemetry_path=telemetry_path,
    )


def compare_strategies(
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    seed: int = 11,
    n_titles: int = DEFAULT_TITLES,
    n_clients: int = DEFAULT_CLIENTS,
    n_flash: int = DEFAULT_FLASH,
    duration_s: float = DEFAULT_DURATION_S,
    telemetry_path: Optional[str] = None,
) -> PlacementComparison:
    """Run every strategy over the identical fault timeline."""
    comparison = PlacementComparison(
        seed=seed, n_titles=n_titles, n_clients=n_clients
    )
    for strategy in strategies:
        per_strategy_path = None
        if telemetry_path is not None:
            per_strategy_path = labelled_path(telemetry_path, strategy, ".jsonl")
        comparison.outcomes.append(
            run_strategy(
                strategy,
                seed=seed,
                n_titles=n_titles,
                n_clients=n_clients,
                n_flash=n_flash,
                duration_s=duration_s,
                telemetry_path=per_strategy_path,
            )
        )
    return comparison


def render_comparison(comparison: PlacementComparison) -> str:
    table = Table(
        "Placement strategies under a correlated rack crash "
        f"(seed={comparison.seed}, {comparison.n_titles} titles, "
        f"{comparison.n_clients} viewers)",
        [
            "strategy",
            "copies",
            "steady avail",
            "outage avail",
            "measured",
            "QoE",
            "stalls",
            "migr ok/abort",
            "handoffs",
            "heals",
            "violations",
        ],
    )
    for outcome in comparison.outcomes:
        table.add_row(
            outcome.strategy,
            f"{outcome.storage_copies:.2f}",
            f"{outcome.steady_availability:.4f}",
            f"{outcome.outage_analytic:.4f}",
            f"{outcome.outage_measured:.4f}",
            f"{outcome.qoe_mean:.1f}",
            outcome.stall_events,
            f"{outcome.migrations_completed}/{outcome.migrations_aborted}",
            outcome.prefix_handoffs,
            outcome.heal_additions,
            outcome.violations,
        )
    return table.render()


def run(spec: ExperimentSpec) -> ExperimentResult:
    """``repro-vod placement`` entry point."""
    params = spec.params
    strategies = params.get("strategies") or DEFAULT_STRATEGIES
    if isinstance(strategies, str):
        strategies = tuple(
            part.strip() for part in strategies.split(",") if part.strip()
        )
    comparison = compare_strategies(
        strategies,
        seed=spec.seed if spec.seed is not None else 11,
        n_titles=int(params.get("titles") or DEFAULT_TITLES),
        n_clients=int(params.get("clients") or DEFAULT_CLIENTS),
        n_flash=int(params.get("flash") or DEFAULT_FLASH),
        duration_s=float(params.get("duration") or DEFAULT_DURATION_S),
        telemetry_path=spec.telemetry_path,
    )
    result = ExperimentResult(spec=spec, data=comparison)
    result.blocks.append(render_comparison(comparison))
    notes = []
    try:
        static = comparison.outcome("static")
        markov = comparison.outcome("markov")
    except KeyError:
        static = markov = None
    if static is not None and markov is not None:
        verdict = (
            "beats" if markov.outage_analytic > static.outage_analytic
            else "does NOT beat"
        )
        notes.append(
            f"markov {verdict} static under the {CRASHED_RACK} crash: "
            f"{markov.outage_analytic:.4f} vs {static.outage_analytic:.4f} "
            f"availability at {markov.storage_copies:.2f} vs "
            f"{static.storage_copies:.2f} catalog copies."
        )
    total_violations = sum(o.violations for o in comparison.outcomes)
    if total_violations:
        details = [
            line
            for outcome in comparison.outcomes
            for line in outcome.violation_details
        ]
        notes.append(
            f"INVARIANT VIOLATIONS: {total_violations}\n  "
            + "\n  ".join(details[:10])
        )
    else:
        notes.append(
            "InvariantChecker: 0 violations across all strategies "
            "(migrations, rack crash, heal, flash crowd)."
        )
    result.blocks.append("\n".join(notes))
    for outcome in comparison.outcomes:
        if outcome.telemetry_path:
            result.artifacts[f"telemetry-{outcome.strategy}"] = (
                outcome.telemetry_path
            )
    benchmark_json = params.get("benchmark_json")
    if benchmark_json:
        directory = os.path.dirname(benchmark_json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(benchmark_json, "w") as handle:
            json.dump(comparison.benchmark_dict(), handle, indent=1)
            handle.write("\n")
        result.artifacts["benchmark"] = benchmark_json
    return result
