"""Experiment harness: the paper's evaluation, regenerated.

One module per figure/table of the paper (see DESIGN.md's per-experiment
index), plus overhead verifications for the quantitative claims in the
text, fault-tolerance comparisons against the baselines, and ablation
sweeps over the design parameters Section 4.2 calls "subject to fine
tuning".
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("ExperimentResult", "ExperimentSpec", "experiment_names", "run"),
    ".scenarios": (
        "LAN_SCENARIO",
        "WAN_SCENARIO",
        "ScenarioResult",
        "ScenarioSpec",
        "run_scenario",
    ),
})
