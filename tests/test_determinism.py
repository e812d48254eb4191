"""Whole-system determinism: identical seeds, identical runs.

The entire value of the simulation substrate is exact reproducibility;
this locks it down at full-scenario scale (every counter, every time
series sample, every migration timestamp), and across interpreters
whose string hashes differ (``PYTHONHASHSEED``), so that no outcome
hangs on the iteration order of a set or dict keyed by strings.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.scenarios import LAN_SCENARIO, WAN_SCENARIO, run_scenario


def short(spec, **overrides):
    return dataclasses.replace(
        spec,
        movie_duration_s=60.0,
        run_duration_s=60.0,
        schedule=((20.0, "crash-serving"), (35.0, "server-up")),
        **overrides,
    )


def test_lan_scenario_bit_identical_across_runs():
    a = run_scenario(short(LAN_SCENARIO)).export_dict()
    b = run_scenario(short(LAN_SCENARIO)).export_dict()
    assert a == b


def test_wan_scenario_bit_identical_across_runs():
    a = run_scenario(short(WAN_SCENARIO)).export_dict()
    b = run_scenario(short(WAN_SCENARIO)).export_dict()
    assert a == b


def test_different_seeds_differ_somewhere():
    a = run_scenario(short(WAN_SCENARIO), seed=100).export_dict()
    b = run_scenario(short(WAN_SCENARIO), seed=101).export_dict()
    assert a != b


#: One small rig per population mode; prints each one's outcome.
HASH_SEED_CHILD = r"""
import dataclasses, hashlib, json

from repro.experiments.scale import build_scale_rig
from repro.faulting import FaultInjector, FaultPlan
from repro.experiments.scenarios import LAN_SCENARIO, run_scenario

def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()

outcomes = {"hash": hash("repro")}
lan = dataclasses.replace(LAN_SCENARIO, movie_duration_s=70.0, run_duration_s=70.0)
outcomes["per-frame"] = digest(run_scenario(lan).export_dict())
for mode, n in (("full", 60), ("flyweight", 2000)):
    sim, deployment, viewers, observer = build_scale_rig(n, 1.0, mode=mode, seed=3)
    FaultInjector(deployment, FaultPlan().crash_most_loaded(3.0)).start()
    events = sim.run_until(6.0)
    if mode == "full":
        viewers = sorted(
            [c.name, c.stats.received, c.displayed_total, c.skipped_total,
             c.stats.late_frames, repr(c.stats.migrations)]
            for c in viewers
        )
    else:
        viewers = [sorted(viewers.positions().items()),
                   [str(s) for s in viewers.serving]]
    outcomes[mode] = [events, [repr(x) for x in observer.latencies], digest(viewers)]
print(json.dumps(outcomes))
"""


@pytest.fixture(scope="module")
def hash_seed_outcomes():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    children = {}
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        children[hash_seed] = subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_CHILD],
            env=env, stdout=subprocess.PIPE, text=True,
        )
    outcomes = {}
    for hash_seed, child in children.items():
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0
        outcomes[hash_seed] = json.loads(out)
    assert outcomes["0"]["hash"] != outcomes["4242"]["hash"]
    return outcomes


@pytest.mark.parametrize("mode", ["per-frame", "full", "flyweight"])
def test_outcome_is_independent_of_the_hash_seed(hash_seed_outcomes, mode):
    assert hash_seed_outcomes["0"][mode] == hash_seed_outcomes["4242"][mode]
