"""The unified experiment entry point: run(spec) -> ExperimentResult."""

import dataclasses

import pytest

from repro.errors import ReproError
from repro.experiments import ExperimentResult, ExperimentSpec, experiment_names, run
from repro.experiments.api import REGISTRY


def test_registry_covers_every_cli_experiment():
    names = experiment_names()
    for expected in (
        "figure2", "figure4", "figure5", "capacity", "qos", "sync-overhead",
        "emergency", "takeover", "gcs", "faults", "chaos",
        "ablations",
    ):
        assert expected in names
    assert names == sorted(names)


def test_unknown_experiment_raises_repro_error():
    with pytest.raises(ReproError, match="unknown experiment"):
        run(ExperimentSpec(name="no-such-experiment"))


def test_spec_is_frozen():
    spec = ExperimentSpec(name="figure2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.name = "figure4"


def test_run_figure2_renders_blocks():
    result = run(ExperimentSpec(name="figure2"))
    assert isinstance(result, ExperimentResult)
    assert result.spec.name == "figure2"
    assert result.blocks
    text = result.render()
    assert "f_urgent" in text and "f_normal" in text


def test_default_params_are_merged_and_overridable():
    assert REGISTRY["sync-overhead"].defaults == {"measure": "sync"}
    result = run(ExperimentSpec(name="sync-overhead", params={"clients": 2}))
    # The dispatched spec carried both the registry default and the
    # caller's override.
    assert result.spec.params["measure"] == "sync"
    assert result.spec.params["clients"] == 2
    assert result.data is not None


def test_capacity_run_honours_populations_param():
    result = run(
        ExperimentSpec(name="capacity", params={"populations": [2]})
    )
    points = result.data
    assert [point.n_clients for point in points] == [2, 2]
    assert points[-1].n_servers == 2  # sweep appends the two-server point
