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
  nothing is first imported inside the measured section;
* the worker pool's module (``repro.experiments.matrix.map_tasks``)
  loads ``multiprocessing`` only when a pool starts, not on import;
* the scale rig, which the benchmark times from a cold start, loads no
  fault tooling, workload or observer module on its way through the
  scenario builder.
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
    "repro.experiments.matrix",
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

import repro.experiments.matrix
matrix = loaded()

print(json.dumps({
    "kernel": kernel,
    "unobserved": unobserved,
    "observed_built": observed_built,
    "observed_run": observed_run,
    "matrix": matrix,
    "incidents": len(result.incidents),
}))
"""


#: What ``build_scale_rig(200, mode="full")`` loads (55 modules), plus
#: the builder itself; a flyweight rig adds ``repro.client.flyweight``.
SCALE_BUILD_MODULES = frozenset("""
    repro repro._lazy repro.errors repro.experiments repro.experiments.scale
    repro.experiments.scenarios
    repro.client repro.client.buffers repro.client.flow_control
    repro.client.player
    repro.gcs repro.gcs.domain repro.gcs.endpoint repro.gcs.failure_detector
    repro.gcs.membership repro.gcs.messages repro.gcs.store repro.gcs.view
    repro.media repro.media.catalog repro.media.decoder repro.media.frames
    repro.media.movie
    repro.net repro.net.address repro.net.link repro.net.network
    repro.net.node repro.net.packet repro.net.topologies repro.net.udp
    repro.placement repro.placement.plan repro.placement.strategies
    repro.server repro.server.admission repro.server.prefix
    repro.server.rate_controller repro.server.replica repro.server.server
    repro.server.state repro.server.streamer
    repro.service repro.service.deployment repro.service.protocol
    repro.sim repro.sim.core repro.sim.gcgate repro.sim.process repro.sim.rng
    repro.telemetry repro.telemetry.bus repro.telemetry.harness
    repro.telemetry.metrics repro.telemetry.series repro.telemetry.spans
""".split())

SCALE_CHILD = r"""
import json, sys
from repro.experiments.scale import build_scale_rig

build_scale_rig(200, mode=sys.argv[1], seed=1)
print(json.dumps(sorted(
    name for name in sys.modules if name.split(".")[0] == "repro"
)))
"""


def _child(script, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def snapshots():
    return _child(CHILD)


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


def test_the_pool_loads_multiprocessing_only_when_it_starts(snapshots):
    assert "repro.experiments.matrix" in snapshots["matrix"]
    assert "multiprocessing" not in snapshots["matrix"]


@pytest.mark.parametrize("mode", ["full", "flyweight"])
def test_the_scale_rig_loads_only_what_it_builds(mode):
    loaded = set(_child(SCALE_CHILD, mode))
    expected = set(SCALE_BUILD_MODULES)
    if mode == "flyweight":
        expected.add("repro.client.flyweight")
    # In particular no repro.faulting.*, repro.workloads or observer.
    assert sorted(loaded - expected) == []
