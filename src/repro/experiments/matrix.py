"""Composable scenario matrix: axes x axes -> seeded ScenarioSpecs.

The paper measures two hand-built scenarios (Section 6's LAN and WAN
runs).  This module grows them into a *matrix*: small declarative
:class:`Axis` objects — topology, workload, fault schedule, client mix
— crossed into a deterministic grid of
:class:`~repro.experiments.scenarios.ScenarioSpec` cells, each with a
stable identity and its own derived seed.

Determinism contract:

* a cell's identity (:attr:`Cell.cell_id`) is the sorted
  ``axis=value`` pairs, so it cannot depend on the order axes were
  declared in;
* :meth:`ScenarioMatrix.cells` enumerates the cross product over axes
  *sorted by name*, so the cell list is identical under axis
  reordering;
* a cell's seed is ``crc32(f"{matrix_seed}:{cell_id}")`` —
  content-addressed, platform-independent (never Python's randomized
  ``hash``), and unchanged by adding unrelated axes values elsewhere.

``run(spec)`` (the ``repro-vod matrix`` experiment) sweeps a preset
sub-matrix with the QoE/SLO observers and an
:class:`~repro.faulting.invariants.InvariantChecker` attached, renders
a per-cell verdict table, runs the reject-vs-degrade admission faceoff
and can dump everything as a benchmark JSON for the CI gate
(``repro-vod gate matrix``, :mod:`repro.experiments.gate`).
"""

from __future__ import annotations

import os
import pickle
import zlib
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.client.player import ClientConfig
from repro.errors import ReproError, ServiceError
from repro.experiments.api import ExperimentResult, ExperimentSpec
from repro.experiments.scenarios import (
    ScenarioSpec,
    WorkloadSpec,
    plan_for_spec,
    run_scenario,
)
from repro.faulting.invariants import InvariantChecker
from repro.net.link import LinkFault
from repro.server.admission import AdmissionSpec
from repro.telemetry.slo import quantile
from repro.telemetry.text import Table

#: Known values per axis, in default-first order.
TOPOLOGIES = ("lan", "wan", "hierarchy")
WORKLOADS = ("single", "flash-crowd", "diurnal", "vcr-storm")
FAULTS = ("crash-recover", "none")
CLIENT_MIXES = ("hardware", "software", "small-buffers", "lossy-lastmile")

#: What a population cell's admission policy looks like (degrade under
#: overload; resumes stay exempt so fault tolerance is never throttled).
POPULATION_ADMISSION = AdmissionSpec(mode="degrade", rate_per_s=0.5, burst=3.0)


@dataclass(frozen=True)
class Axis:
    """One named dimension of the matrix and its candidate values."""

    name: str
    values: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ServiceError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ServiceError(f"axis {self.name!r} has duplicate values")


@dataclass(frozen=True)
class Cell:
    """One point of the cross product: axis name -> chosen value."""

    coords: Tuple[Tuple[str, str], ...]

    @classmethod
    def of(cls, **coords: str) -> "Cell":
        return cls(coords=tuple(sorted(coords.items())))

    def value(self, axis: str, default: str) -> str:
        for name, value in self.coords:
            if name == axis:
                return value
        return default

    @property
    def cell_id(self) -> str:
        """Stable identity: sorted ``axis=value`` pairs."""
        return ",".join(
            f"{name}={value}" for name, value in sorted(self.coords)
        )

    def seed(self, matrix_seed: int) -> int:
        """Content-addressed per-cell seed (no Python ``hash``)."""
        digest = zlib.crc32(f"{matrix_seed}:{self.cell_id}".encode("utf-8"))
        return digest & 0x7FFFFFFF


@dataclass(frozen=True)
class ScenarioMatrix:
    """A cross product of axes, enumerated deterministically."""

    axes: Tuple[Axis, ...]

    def __post_init__(self) -> None:
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate axis names in {names}")

    def cells(self) -> List[Cell]:
        """Every axis combination exactly once, in an order independent
        of how the axes were declared (axes sorted by name)."""
        ordered = sorted(self.axes, key=lambda axis: axis.name)
        names = [axis.name for axis in ordered]
        return [
            Cell(coords=tuple(zip(names, combo)))
            for combo in product(*(axis.values for axis in ordered))
        ]

    def __len__(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size


def default_matrix() -> ScenarioMatrix:
    """The full ``repro-vod matrix`` sweep: 3 x 4 x 2 = 24 cells."""
    return ScenarioMatrix(
        axes=(
            Axis("topology", TOPOLOGIES),
            Axis("workload", WORKLOADS),
            Axis("faults", FAULTS),
            Axis("clients", ("hardware",)),
        )
    )


def gate_matrix() -> ScenarioMatrix:
    """The CI sub-matrix: 3 x 2 x 2 = 12 cells, fast enough per push."""
    return ScenarioMatrix(
        axes=(
            Axis("topology", TOPOLOGIES),
            Axis("workload", ("single", "flash-crowd")),
            Axis("faults", FAULTS),
        )
    )


# ----------------------------------------------------------------------
# Cell -> ScenarioSpec
# ----------------------------------------------------------------------
def _client_mix(clients: str) -> Optional[ClientConfig]:
    if clients in ("hardware", "lossy-lastmile"):
        return None  # prototype defaults; lossy adds a link fault instead
    if clients == "software":
        return ClientConfig.software_decoder()
    if clients == "small-buffers":
        base = ClientConfig()
        return ClientConfig(
            sw_capacity_frames=max(8, base.sw_capacity_frames // 2),
            hw_capacity_bytes=base.hw_capacity_bytes // 2,
        )
    raise ServiceError(f"unknown client mix {clients!r}")


def _workload_spec(workload: str) -> Optional[WorkloadSpec]:
    if workload == "single":
        return None
    if workload == "flash-crowd":
        return WorkloadSpec(kind="flash-crowd", n_viewers=8, at_s=6.0)
    if workload == "diurnal":
        return WorkloadSpec(
            kind="diurnal",
            n_viewers=6,
            at_s=2.0,
            base_rate_per_s=0.05,
            peak_rate_per_s=0.4,
            window_s=40.0,
        )
    if workload == "vcr-storm":
        return WorkloadSpec(
            kind="poisson",
            n_viewers=6,
            at_s=2.0,
            peak_rate_per_s=0.3,
            window_s=30.0,
            profile="vcr-storm",
        )
    raise ServiceError(f"unknown workload {workload!r}")


def spec_for_cell(cell: Cell, matrix_seed: int = 11) -> ScenarioSpec:
    """Translate a cell into a runnable :class:`ScenarioSpec`.

    Axis values are applied in a fixed semantic order (topology,
    workload, faults, clients), independent of the cell's coordinate
    order, so equal cells always produce equal specs.  The all-default
    cell (lan / single / crash-recover / hardware) reproduces
    :data:`~repro.experiments.scenarios.LAN_SCENARIO` exactly, modulo
    name and seed — the conformance anchor.
    """
    topology = cell.value("topology", "lan")
    workload = cell.value("workload", "single")
    faults = cell.value("faults", "crash-recover")
    clients = cell.value("clients", "hardware")
    if topology not in TOPOLOGIES:
        raise ServiceError(f"unknown topology {topology!r}")
    if faults not in FAULTS:
        raise ServiceError(f"unknown fault schedule {faults!r}")

    n_initial_servers = 2
    workload_spec = _workload_spec(workload)
    if workload_spec is None:
        n_client_hosts = 1
        admission = None
        if topology == "lan":
            duration_s, crash_at, up_at = 240.0, 38.0, 62.0
        else:
            duration_s, crash_at, up_at = 100.0, 35.0, 60.0
    else:
        n_client_hosts = workload_spec.n_viewers + 1
        admission = POPULATION_ADMISSION
        duration_s, crash_at, up_at = 70.0, 30.0, 45.0

    schedule: Tuple[Tuple[float, str], ...] = ()
    if faults == "crash-recover":
        schedule = ((crash_at, "crash-serving"), (up_at, "server-up"))

    spec = ScenarioSpec(
        name=cell.cell_id,
        network=topology,
        movie_duration_s=duration_s,
        run_duration_s=duration_s,
        n_initial_servers=n_initial_servers,
        schedule=schedule,
        seed=cell.seed(matrix_seed),
        client_config=_client_mix(clients),
        workload=workload_spec,
        admission=admission,
        n_client_hosts=n_client_hosts,
    )
    if clients == "lossy-lastmile":
        # The schedule's plan plus a degraded last-mile link under the
        # measured client, which holds the last host.
        client_host = n_initial_servers + 2 + n_client_hosts - 1
        spec = replace(
            spec,
            plan=plan_for_spec(spec).impair_host(
                0.0,
                host=client_host,
                fault=LinkFault(drop_prob=0.02, extra_delay_s=0.005),
            ),
        )
    return spec


# ----------------------------------------------------------------------
# Running cells
# ----------------------------------------------------------------------
def run_cell(cell: Cell, matrix_seed: int = 11) -> Dict:
    """Run one cell with observers + invariant checker; return its verdict."""
    from repro.experiments.scenarios import prepare_scenario

    spec = spec_for_cell(cell, matrix_seed)
    live = prepare_scenario(spec, observe=True)
    checker = InvariantChecker(live.result.deployment).install()
    try:
        with live:
            live.step(spec.run_duration_s)
    finally:
        checker.stop()
    result = live.result
    scores = sorted(card.score() for card in result.qoe.values())
    rejects = sum(card.admission_rejects for card in result.qoe.values())
    degrades = sum(
        1 for card in result.qoe.values() if card.degrade_fraction > 0
    )
    breaches = sum(item.get("breaches", 0) for item in result.slo.values())
    violations = len(checker.violations)
    return {
        "cell": cell.cell_id,
        "seed": spec.seed,
        "clients": len(scores),
        "qoe_mean": sum(scores) / len(scores) if scores else 0.0,
        "qoe_p10": quantile(scores, 0.10) if scores else 0.0,
        "displayed": result.client.displayed_total,
        "rejects": rejects,
        "degrades": degrades,
        "slo_breaches": breaches,
        "violations": violations,
        "verdict": "ok" if (breaches == 0 and violations == 0) else "breach",
    }


class PoolError(ReproError):
    """Work that cannot cross a spawn boundary, or a worker that failed."""


def map_tasks(
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: Optional[int] = None,
) -> List[Any]:
    """``[worker(task) for task in tasks]`` over spawned processes.

    Workers start from the ``spawn`` context on every platform, so a
    run can never depend on fork-inherited globals (RNG state, a
    telemetry bus, an open deployment): everything a worker needs
    arrives pickled in its task.  The worker and every task are
    test-pickled before any process starts, so a lambda or a live
    object fails at once with guidance instead of as a mid-pool
    ``PicklingError``.  Results come back in task order, whichever
    worker finished first.  ``workers`` caps the pool (default one per
    core).
    """
    named = [(f"worker {getattr(worker, '__name__', worker)!r}", worker)]
    named += [(f"task {index}", task) for index, task in enumerate(tasks)]
    for what, value in named:
        try:
            pickle.dumps(value)
        except Exception as exc:
            raise PoolError(
                f"{what} is not picklable under the spawn start method: "
                f"{exc}.  Workers construct simulation state themselves; "
                "pass importable top-level callables and plain-data tasks, "
                "never live objects."
            ) from None
    if not tasks:
        return []
    # Imported here: nothing but a started pool loads multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    n_workers = min(workers or os.cpu_count() or 1, len(tasks))
    with ProcessPoolExecutor(
        max_workers=n_workers, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        try:
            return list(pool.map(worker, tasks))
        except Exception as exc:
            raise PoolError(f"a pool worker failed: {exc!r}") from exc


def _run_cell_task(task: Tuple[Cell, int]) -> Dict:
    """Spawn-importable wrapper: one ``(cell, matrix_seed)`` work item.

    Top-level by design — the parallel matrix ships these through
    :func:`map_tasks`, and spawned processes import the worker by
    module path and rebuild all simulation state from the (frozen,
    picklable) cell."""
    cell, matrix_seed = task
    return run_cell(cell, matrix_seed)


def run_matrix(
    matrix: Optional[ScenarioMatrix] = None,
    matrix_seed: int = 11,
    workers: Optional[int] = None,
) -> List[Dict]:
    """Run every cell; returns one verdict dict per cell, in cell order.

    ``workers=None`` keeps the historical serial in-process sweep.  An
    integer fans the cells out over that many spawned worker processes
    (:func:`map_tasks`); cells are independent seeded simulations, so
    the parallel sweep returns byte-identical verdicts in the same cell
    order — the scenario-matrix CI gate runs parallel and asserts
    against a serially-generated baseline."""
    if matrix is None:
        matrix = default_matrix()
    if workers is None:
        return [run_cell(cell, matrix_seed) for cell in matrix.cells()]
    tasks = [(cell, matrix_seed) for cell in matrix.cells()]
    return map_tasks(_run_cell_task, tasks, workers=workers)


# ----------------------------------------------------------------------
# Admission faceoff: reject-only vs degrade at equal capacity
# ----------------------------------------------------------------------
def run_faceoff(matrix_seed: int = 11) -> Dict:
    """Flash crowd at fixed capacity: reject-only vs degrade policy.

    Same topology, workload, seed and token-bucket capacity; only the
    overload *action* differs.  The p10 QoE is the headline — a reject
    storm bottoms out the unlucky tail, while degrading keeps everyone
    on the air at reduced quality.
    """
    seed = zlib.crc32(f"{matrix_seed}:faceoff".encode("utf-8")) & 0x7FFFFFFF
    workload = WorkloadSpec(kind="flash-crowd", n_viewers=10, at_s=6.0)
    outcomes: Dict[str, Dict] = {}
    for mode in ("reject", "degrade"):
        spec = ScenarioSpec(
            name=f"faceoff-{mode}",
            network="lan",
            movie_duration_s=60.0,
            run_duration_s=60.0,
            seed=seed,
            workload=workload,
            admission=AdmissionSpec(mode=mode, rate_per_s=0.4, burst=2.0),
            n_client_hosts=workload.n_viewers + 1,
        )
        result = run_scenario(spec, observe=True)
        scores = sorted(card.score() for card in result.qoe.values())
        outcomes[mode] = {
            "qoe_mean": sum(scores) / len(scores) if scores else 0.0,
            "qoe_p10": quantile(scores, 0.10) if scores else 0.0,
            "rejects": sum(
                card.admission_rejects for card in result.qoe.values()
            ),
            "degrades": sum(
                1 for card in result.qoe.values()
                if card.degrade_fraction > 0
            ),
            "clients": len(scores),
        }
    return {
        "seed": seed,
        "reject": outcomes["reject"],
        "degrade": outcomes["degrade"],
    }


# ----------------------------------------------------------------------
# Rendering + experiment entry point
# ----------------------------------------------------------------------
def render_matrix(verdicts: List[Dict], title: str) -> str:
    table = Table(
        title,
        ["cell", "clients", "qoe mean", "qoe p10", "rejects", "degrades",
         "slo breaches", "violations", "verdict"],
    )
    for verdict in verdicts:
        table.add_row(
            verdict["cell"],
            verdict["clients"],
            f"{verdict['qoe_mean']:.1f}",
            f"{verdict['qoe_p10']:.1f}",
            verdict["rejects"],
            verdict["degrades"],
            verdict["slo_breaches"],
            verdict["violations"],
            verdict["verdict"],
        )
    return table.render()


def render_faceoff(faceoff: Dict) -> str:
    table = Table(
        "Admission faceoff: flash crowd at equal capacity",
        ["policy", "clients", "qoe mean", "qoe p10", "rejects", "degrades"],
    )
    for mode in ("reject", "degrade"):
        item = faceoff[mode]
        table.add_row(
            mode,
            item["clients"],
            f"{item['qoe_mean']:.1f}",
            f"{item['qoe_p10']:.1f}",
            item["rejects"],
            item["degrades"],
        )
    lines = [table.render()]
    gain = faceoff["degrade"]["qoe_p10"] - faceoff["reject"]["qoe_p10"]
    lines.append(
        f"degrade p10 QoE beats reject-only by {gain:+.1f} points "
        "at identical token-bucket capacity."
    )
    return "\n".join(lines)


def benchmark_dict(
    preset: str, matrix_seed: int, verdicts: List[Dict], faceoff: Dict
) -> Dict:
    """The committed-baseline shape for the scenario-matrix CI gate."""
    return {
        "preset": preset,
        "seed": matrix_seed,
        "tolerances": {
            "qoe_rel": 0.15,
            "qoe_floor": 25.0,
        },
        "cells": {verdict["cell"]: verdict for verdict in verdicts},
        "faceoff": faceoff,
    }


def run(spec: ExperimentSpec) -> ExperimentResult:
    """``repro-vod matrix``: sweep a preset sub-matrix + the faceoff.

    ``params["workers"]`` fans the cells out across that many spawned
    processes (verdicts stay byte-identical to the serial sweep)."""
    preset = spec.params.get("preset", "full")
    if preset == "full":
        matrix = default_matrix()
    elif preset == "gate":
        matrix = gate_matrix()
    else:
        raise ServiceError(f"unknown matrix preset {preset!r}")
    matrix_seed = spec.seed if spec.seed is not None else 11
    workers = spec.params.get("workers")
    workers = None if workers is None else int(workers)
    verdicts = run_matrix(matrix, matrix_seed, workers=workers)
    faceoff = run_faceoff(matrix_seed)
    title = (
        f"Scenario matrix ({preset} preset, {len(verdicts)} cells, "
        f"seed {matrix_seed})"
    )
    result = ExperimentResult(
        spec=spec,
        blocks=[render_matrix(verdicts, title), render_faceoff(faceoff)],
        data={
            "preset": preset,
            "seed": matrix_seed,
            "cells": {verdict["cell"]: verdict for verdict in verdicts},
            "faceoff": faceoff,
        },
    )
    benchmark_json = spec.params.get("benchmark_json")
    if benchmark_json:
        import json
        import os

        directory = os.path.dirname(benchmark_json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(benchmark_json, "w") as handle:
            json.dump(
                benchmark_dict(preset, matrix_seed, verdicts, faceoff),
                handle,
                indent=1,
                sort_keys=True,
            )
        result.artifacts["benchmark"] = benchmark_json
    return result
