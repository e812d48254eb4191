"""What a fresh interpreter imports: the kernel no observer, a build
everything its run will need.

Every package ``__init__`` resolves its public names on first access
(``repro._lazy``), so importing a module loads that module's own
imports and nothing else.  This session has long since imported every
module, so the checks run in a child interpreter:

* ``import repro.sim.core`` loads the kernel, its random streams and the
  telemetry bus: no observer, no fault tooling, no worker pool;
* building a WAN scenario without observers loads no observer module;
* a scenario built with its QoE/SLO observers and flight recorder has
  imported, at build time, every module its run and ``finish()`` use:
  nothing is first imported inside the measured section.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

#: Modules the kernel, and an unobserved scenario, must not load.
OBSERVERS_AND_TOOLING = (
    "repro.telemetry.flight",
    "repro.telemetry.slo",
    "repro.telemetry.qoe",
    "repro.telemetry.watch",
    "repro.telemetry.report",
    "repro.telemetry.postmortem",
    "repro.telemetry.causal",
    "repro.telemetry.export",
    "repro.telemetry.text",
    "repro.faulting.chaos",
    "repro.faulting.invariants",
    "repro.shard.runner",
    "repro.experiments.api",
    "multiprocessing",
)

CHILD = r"""
import json, sys
from dataclasses import replace

def loaded():
    return sorted(
        name for name in sys.modules
        if name == "multiprocessing" or name.split(".")[0] == "repro"
    )

import repro.sim.core
kernel = loaded()

from repro.experiments.scenarios import WAN_SCENARIO, WorkloadSpec, prepare_scenario

spec = replace(
    WAN_SCENARIO,
    workload=WorkloadSpec("flash-crowd", n_viewers=3, at_s=1.0, spread_s=1.0),
    n_client_hosts=4,
    movie_duration_s=30.0,
    run_duration_s=8.0,
    schedule=((2.0, "server-up"), (4.0, "crash-serving")),
)
prepare_scenario(spec, seed=77, observe=False)
unobserved = loaded()

live = prepare_scenario(spec, seed=77, observe=True, flight=True)
observed_built = loaded()
live.step(spec.run_duration_s)
result = live.finish()
observed_run = loaded()

print(json.dumps({
    "kernel": kernel,
    "unobserved": unobserved,
    "observed_built": observed_built,
    "observed_run": observed_run,
    "incidents": len(result.incidents),
}))
"""


@pytest.fixture(scope="module")
def snapshots():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_the_kernel_imports_no_observer(snapshots):
    kernel = snapshots["kernel"]
    assert not set(kernel) & set(OBSERVERS_AND_TOOLING)
    assert len([name for name in kernel if name.startswith("repro")]) <= 12


def test_an_unobserved_scenario_imports_no_observer(snapshots):
    assert not set(snapshots["unobserved"]) & set(OBSERVERS_AND_TOOLING)


def test_an_observed_run_imports_nothing_its_build_did_not(snapshots):
    built = snapshots["observed_built"]
    assert "repro.telemetry.flight" in built
    assert snapshots["incidents"] > 0  # the recorder assembled something
    assert sorted(set(snapshots["observed_run"]) - set(built)) == []
