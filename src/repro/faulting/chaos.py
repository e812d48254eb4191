"""Randomized chaos sweeps: many seeded fault plans, zero violations.

Each trial deploys the standard k-replica LAN service, generates a
recoverable random :class:`~repro.faulting.plan.FaultPlan` from the
trial seed, runs it under an
:class:`~repro.faulting.invariants.InvariantChecker`, and reports every
violation.  Because plans are recoverable by construction (crashes are
replaced, partitions heal, the run ends with a settle window), the
expected violation count is zero for *every* seed — any non-empty
report is a bug in either the service or the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.experiments.scenarios import ScenarioSpec, prepare_scenario
from repro.faulting.invariants import InvariantChecker, Violation
from repro.faulting.plan import FaultPlan
from repro.telemetry.text import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.qoe import QoEScorecard


@dataclass
class ChaosResult:
    """Outcome of one seeded chaos trial."""

    seed: int
    plan: FaultPlan
    violations: List[Violation]
    fired: List[Tuple[float, str]]
    takeovers: int
    crashes: int
    stall_time_s: float
    skipped: int
    displayed: int
    samples: int = 0
    events: List[str] = field(default_factory=list)
    # Filled when the trial attached observers (telemetry export on).
    qoe: Dict[str, "QoEScorecard"] = field(default_factory=dict)
    slo: Dict[str, Dict] = field(default_factory=dict)
    failovers: List[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_chaos_trial(
    seed: int,
    duration_s: float = 90.0,
    k: int = 3,
    intensity: float = 1.0,
    plan: Optional[FaultPlan] = None,
    telemetry_path: Optional[str] = None,
    observe: Optional[bool] = None,
) -> ChaosResult:
    """Run one seeded chaos plan against a k-replica LAN deployment.

    ``telemetry_path`` streams the trial's telemetry to a JSONL file;
    ``observe`` attaches the QoE/SLO observers (default: whenever
    telemetry is exported).  All are pure observers, so trial outcomes
    are identical with or without them.
    """
    if plan is None:
        plan = FaultPlan.random(
            seed=seed,
            duration_s=duration_s,
            server_hosts=list(range(k)),
            client_host=k,
            intensity=intensity,
        )
    spec = ScenarioSpec(
        "chaos", "lan", seed=seed,
        movie_duration_s=duration_s + 60.0, run_duration_s=duration_s,
        n_initial_servers=k, spare_hosts=0, plan=plan,
    )
    live = prepare_scenario(
        spec, telemetry_path=telemetry_path, observe=observe,
        meta=dict(
            scenario="chaos", seed=seed, k=k,
            intensity=intensity, run_duration_s=duration_s,
        ),
    )
    sim = live.sim
    client, injector = live.result.client, live.injector
    checker = InvariantChecker(live.result.deployment).install()

    observers = live.observers
    with observers:
        live.step(duration_s)
        checker.final_check()
        checker.stop()
        client.decoder.end_stall(sim.now)
        observers.settle(
            violations=len(checker.violations),
            faults_fired=len(injector.fired),
        )

    return ChaosResult(
        seed=seed,
        plan=plan,
        violations=list(checker.violations),
        fired=list(injector.fired),
        takeovers=len(checker.takeovers),
        crashes=len(injector.crash_times),
        stall_time_s=client.decoder.stats.stall_time_s,
        skipped=client.skipped_total,
        displayed=client.displayed_total,
        samples=checker.samples,
        events=[f"t={t:7.2f}s  {note}" for t, note in injector.fired],
        qoe=observers.qoe,
        slo=observers.slo,
        failovers=observers.failovers,
    )


def chaos_table(results: List[ChaosResult]) -> Table:
    """The sweep report: one row per seed, violations called out."""
    table = Table(
        "Chaos sweep — seeded random fault plans vs service invariants",
        [
            "seed",
            "actions",
            "crashes",
            "takeovers",
            "stall (s)",
            "skipped",
            "displayed",
            "violations",
        ],
    )
    for result in results:
        table.add_row(
            result.seed,
            len(result.plan),
            result.crashes,
            result.takeovers,
            f"{result.stall_time_s:.1f}",
            result.skipped,
            result.displayed,
            len(result.violations) if result.violations else "none",
        )
    return table


def total_violations(results: List[ChaosResult]) -> List[Violation]:
    return [violation for result in results for violation in result.violations]


def run(spec) -> "ExperimentResult":
    """Unified entry point (see :mod:`repro.experiments.api`): the sweep
    of ``plans`` seeded trials, seeds ``spec.seed + i`` (default 1000).

    When ``spec.telemetry_path`` is set the first trial of the sweep
    streams its telemetry there (one representative artifact; exporting
    all N plans into one file would interleave unrelated runs).
    """
    from repro.experiments.api import ExperimentResult, attach_observability

    base_seed = spec.seed if spec.seed is not None else 1000
    n_plans = int(spec.params.get("plans", 20))
    duration_s = float(spec.params.get("duration_s", 90.0))
    k = int(spec.params.get("k", 3))
    intensity = float(spec.params.get("intensity", 1.0))

    results = []
    for index in range(n_plans):
        results.append(
            run_chaos_trial(
                seed=base_seed + index,
                duration_s=duration_s,
                k=k,
                intensity=intensity,
                telemetry_path=spec.telemetry_path if index == 0 else None,
            )
        )
    result = ExperimentResult(
        spec=spec, blocks=[chaos_table(results).render()], data=results
    )
    if spec.telemetry_path:
        result.artifacts["telemetry"] = spec.telemetry_path
        # Trial 0 was the observed one; surface its QoE/SLO outcome.
        attach_observability(result, results[0].qoe, results[0].slo)
    violations = total_violations(results)
    if violations:
        lines = [f"{len(violations)} invariant violation(s):"]
        lines.extend(f"  {violation}" for violation in violations)
        result.blocks.append("\n".join(lines))
    else:
        result.blocks.append(
            f"all {len(results)} seeded plans held every invariant"
        )
    return result
