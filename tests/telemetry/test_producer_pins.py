"""Byte pins on the JSONL export of every producer.

Four entry points open a telemetry export, attach observers, run, and
settle them at run end: ``run_scenario``, ``run_chaos_trial``,
``run_scale_point`` and ``placement.run_strategy``.  Each is run once,
small and short, with ``telemetry_path`` set; the sha256 of the file it
writes is compared against ``tests/data/producer_pins.json``.  A change
to how runs are observed or settled (subscription order, the trailer's
fields, when open spans are abandoned) is a refactor exactly when this
file passes unedited.

Regenerating (only after deliberately changing what an export holds):

    PYTHONPATH=src python tests/telemetry/test_producer_pins.py
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

PINS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "data" / "producer_pins.json"
)


def _scenario(path):
    from repro.experiments.scenarios import LAN_SCENARIO, run_scenario

    spec = dataclasses.replace(
        LAN_SCENARIO,
        name="lan-takeover-telemetry",
        movie_duration_s=80.0,
        run_duration_s=33.0,
        schedule=((30.0, "crash-serving"),),
    )
    run_scenario(spec, telemetry_path=path, flight=True)


def _chaos_trial(path):
    from repro.faulting.chaos import run_chaos_trial

    run_chaos_trial(seed=1000, duration_s=60.0, telemetry_path=path)


def _scale_point(path):
    from repro.experiments.scale import run_scale_point

    run_scale_point(20, 1.0, duration_s=8.0, telemetry_path=path, flight=True)


def _strategy(path):
    from repro.experiments.placement import run_strategy

    run_strategy(
        "static", seed=11, n_titles=6, n_clients=3, n_flash=1,
        duration_s=8.0, telemetry_path=path,
    )


PRODUCERS = {
    "run_scenario": _scenario,
    "run_chaos_trial": _chaos_trial,
    "run_scale_point": _scale_point,
    "run_strategy": _strategy,
}


def export_digest(name, directory):
    path = pathlib.Path(directory) / f"{name}.jsonl"
    PRODUCERS[name](str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_export_matches_its_pin(name, tmp_path):
    pins = json.loads(PINS_PATH.read_text())
    assert export_digest(name, tmp_path) == pins[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        pins = {name: export_digest(name, directory) for name in sorted(PRODUCERS)}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
