"""The one entry point for every experiment: ``run(spec)``.

* :class:`ExperimentSpec` names an experiment plus its parameters;
* :data:`REGISTRY` declares each experiment once — the module that owns
  its ``run(spec)``, its default params, and what the CLI
  (:mod:`repro.experiments.runner`) generates its subcommand from;
* :func:`run` dispatches to the owning module and returns an
  :class:`ExperimentResult` — rendered text blocks, the module's native
  result object (``data``), and any artifact files (e.g. a telemetry
  JSONL export) the run produced.

The per-module functions stay public (tests and notebooks call them
directly); ``run(spec)`` is a thin veneer over them.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative request to run one named experiment.

    ``params`` holds experiment-specific knobs (e.g. ``clients`` for
    ``sync-overhead``, ``plans`` for ``chaos``); unknown keys are
    ignored by the target module.  ``telemetry_path`` asks experiments
    that execute a scenario to stream a telemetry JSONL export there.
    """

    name: str
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    telemetry_path: Optional[str] = None


@dataclass
class ExperimentResult:
    """What an experiment produced.

    ``blocks`` are render-ready text sections (tables, charts);
    ``data`` is the module's native result object (``Figure4``,
    ``List[ChaosResult]``, ...); ``artifacts`` maps artifact names to
    file paths written during the run.  Experiments that execute an
    observed scenario also fill ``qoe`` (per-client scorecards, see
    :mod:`repro.telemetry.qoe`) and ``slo`` (rule verdicts, see
    :mod:`repro.telemetry.slo`); runs with a flight recorder attached
    fill ``incidents`` (``Incident.as_dict()`` payloads, see
    :mod:`repro.telemetry.flight`).
    """

    spec: ExperimentSpec
    blocks: List[str] = field(default_factory=list)
    data: Any = None
    artifacts: Dict[str, str] = field(default_factory=dict)
    qoe: Dict[str, Any] = field(default_factory=dict)
    slo: Dict[str, Dict] = field(default_factory=dict)
    incidents: List[Dict] = field(default_factory=list)

    def render(self) -> str:
        """The experiment's full text output."""
        return "\n\n".join(self.blocks)


def _ints(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def flag(name: str, **kwargs: Any) -> Tuple[str, Dict[str, Any]]:
    """One CLI flag: ``add_argument(name, **kwargs)``; its value, when
    given, reaches the experiment as ``spec.params[dest]``."""
    return name, kwargs


@dataclass(frozen=True)
class Experiment:
    """One registered experiment — everything the dispatcher and the
    CLI know about it, declared here and nowhere else.

    ``module`` owns ``run(spec)``; ``defaults`` are merged under the
    caller's params.  ``help`` is the subcommand's help line and
    ``flags`` its own flags beside the common ``--seed``; an experiment
    that writes a JSON dump declares ``--json`` there.  ``telemetry``:
    the experiment executes a scenario and exports a telemetry artifact
    by default (its subcommand takes ``--telemetry`` / ``--no-telemetry``).
    ``in_all``: ``repro-vod all`` runs it (the slow sweeps stay out).
    """

    module: str
    help: str
    defaults: Dict[str, Any] = field(default_factory=dict)
    flags: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    telemetry: bool = False
    in_all: bool = False


#: ``--json PATH`` for the experiments that dump their run to a file.
RUN_JSON_FLAG = flag(
    "--json", help="also dump the run (counters + series) to this JSON file"
)

#: Every experiment, in ``repro-vod --help`` and ``repro-vod all`` order.
REGISTRY: Dict[str, Experiment] = {
    "figure2": Experiment(
        "repro.experiments.figure2", "flow-control policy table",
        in_all=True,
    ),
    "figure4": Experiment(
        "repro.experiments.figure4", "LAN irregularity recovery (4 panels)",
        flags=(RUN_JSON_FLAG,), telemetry=True, in_all=True,
    ),
    "figure5": Experiment(
        "repro.experiments.figure5", "WAN skipped frames (2 panels)",
        flags=(RUN_JSON_FLAG,), telemetry=True, in_all=True,
    ),
    "sync-overhead": Experiment(
        "repro.experiments.overheads", "T-sync claim", {"measure": "sync"},
        flags=(flag("--clients", type=int, default=4),), in_all=True,
    ),
    "emergency": Experiment(
        "repro.experiments.overheads", "T-emergency claim",
        {"measure": "emergency"}, in_all=True,
    ),
    "takeover": Experiment(
        "repro.experiments.overheads", "T-buffer take-over time",
        {"measure": "takeover"},
        flags=(flag("--trials", type=int, default=5),), in_all=True,
    ),
    "qos": Experiment(
        "repro.experiments.qos", "E-qos: best-effort vs reserved WAN",
        in_all=True,
    ),
    "capacity": Experiment(
        "repro.experiments.capacity", "E-capacity: clients per server"
    ),
    "gcs": Experiment(
        "repro.experiments.gcs_latency",
        "T-gcs: view agreement latency scaling",
    ),
    "faults": Experiment(
        "repro.experiments.faults", "T-ft comparison matrix", in_all=True
    ),
    "chaos": Experiment(
        "repro.faulting.chaos",
        "seeded random fault plans vs the invariant checker (--seed sets "
        "the base seed)",
        flags=(flag("--plans", type=int, default=20),), telemetry=True,
    ),
    "ablations": Experiment(
        "repro.experiments.ablations", "A-1..A-5 parameter sweeps",
        in_all=True,
    ),
    "scale": Experiment(
        "repro.experiments.scale",
        "data-plane fast path: events/s, wall time and failover latency "
        "at N=100/1k/5k viewers with a mid-run crash",
        telemetry=True,
        flags=(
            flag("--sizes", type=_ints,
                 help="comma-separated client populations "
                      "(default 100,1000,5000)"),
            flag("--flyweight-sizes", type=_ints,
                 help="extra populations run in flyweight mode (columnar "
                      "viewers, one process; e.g. 20000,1000000)"),
            flag("--wall-budget", type=float,
                 help="abort a point once it exceeds this many wall seconds "
                      "(the 100k barrier gate)"),
            flag("--duration", type=float,
                 help="simulated seconds per point (default 12)"),
            flag("--benchmark-json",
                 help="write the sweep's measurements (events/s, wall time, "
                      "failover latencies) to this JSON file"),
        ),
    ),
    "placement": Experiment(
        "repro.experiments.placement",
        "content placement strategies under live migrations, a correlated "
        "rack crash and a flash crowd",
        telemetry=True,
        flags=(
            flag("--strategies",
                 help="comma-separated strategy names "
                      "(default static,popularity,markov,prefix)"),
            flag("--titles", type=int, help="catalog size (default 24)"),
            flag("--clients", type=int,
                 help="steady-state viewers (default 18)"),
            flag("--flash", type=int,
                 help="flash-crowd viewers on the rank-1 title (default 6)"),
            flag("--duration", type=float,
                 help="simulated seconds per strategy (default 52)"),
            flag("--benchmark-json",
                 help="write per-strategy measurements (availability, "
                      "storage, QoE, violations) to this JSON file"),
        ),
    ),
    "matrix": Experiment(
        "repro.experiments.matrix",
        "scenario-matrix SLO sweep: topology x workload x faults cells "
        "with per-cell QoE/SLO verdicts, plus the admission "
        "reject-vs-degrade faceoff",
        flags=(
            flag("--preset", choices=("full", "gate"),
                 help="cell selection: full (24 cells) or gate (the 12-cell "
                      "CI sub-matrix; default full)"),
            flag("--benchmark-json",
                 help="write the per-cell verdicts and the faceoff to this "
                      "JSON file (scenario-matrix CI gate input)"),
            flag("--workers", type=int,
                 help="run the cells across this many spawned worker "
                      "processes (verdicts identical to the serial sweep; "
                      "default serial)"),
        ),
    ),
    "postmortem": Experiment(
        "repro.experiments.postmortem",
        "flight-recorder incident reports: what triggered, the causal "
        "chain, the exact takeover decomposition and the QoE impact",
        telemetry=True,
        flags=(
            flag("--scenario", choices=("lan", "wan"),
                 help="run this reference scenario live with the recorder "
                      "attached (default lan)"),
            flag("--duration", type=float,
                 help="override the run duration (simulated seconds)"),
            flag("--scale", dest="scale_n", type=int,
                 help="instead run the flyweight chaos rig at this "
                      "population (mid-run crash of the most-loaded server)"),
            flag("--from-export", dest="export",
                 help="replay a recorded telemetry JSONL/.jsonl.gz artifact "
                      "instead of running anything"),
            flag("--since", type=float,
                 help="with --from-export: replay window start (sim seconds)"),
            flag("--until", type=float,
                 help="with --from-export: replay window end (sim seconds)"),
            flag("--max-rows", type=int,
                 help="table rows per incident section (default 40)"),
            flag("--json",
                 help="also write the incidents and the recorder's "
                      "metering to this JSON file"),
        ),
    ),
}


def attach_observability(result: ExperimentResult, qoe, slo) -> None:
    """Fold an observed run's QoE scorecards and SLO verdicts into
    ``result`` — fills the fields and appends the rendered tables."""
    if qoe:
        from repro.telemetry.qoe import render_scorecards

        result.qoe = dict(qoe)
        result.blocks.append(render_scorecards(result.qoe))
    if slo:
        from repro.telemetry.slo import render_slo

        result.slo = dict(slo)
        result.blocks.append(render_slo(result.slo))


def labelled_path(path: str, label: str, default_ext: str = "") -> str:
    """``root-<label>.ext``: one file per label out of the one path a
    caller gave (a strategy of ``placement``, an experiment of ``all``)."""
    root, ext = os.path.splitext(path)
    return f"{root}-{label}{ext or default_ext}"


def experiment_names() -> List[str]:
    """All runnable experiment names (aliases included)."""
    return sorted(REGISTRY)


def run(spec: ExperimentSpec) -> ExperimentResult:
    """Run the experiment ``spec`` names and return its result."""
    try:
        entry = REGISTRY[spec.name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {spec.name!r}; "
            f"known: {', '.join(experiment_names())}"
        ) from None
    params = {**entry.defaults, **spec.params}
    module = importlib.import_module(entry.module)
    return module.run(replace(spec, params=params))
