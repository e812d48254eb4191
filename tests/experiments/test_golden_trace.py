"""Golden-trace regression for the figure 4 measurement run.

``tests/data`` holds the byte-exact telemetry stream and JSON export of
``run_figure4(seed=11)`` as produced at the time the data-plane fast
path landed.  Any change to event ordering, floating-point arithmetic,
telemetry content or export formatting shows up here as a byte diff —
the strongest cheap guard we have on end-to-end determinism.

Regenerating the goldens (only after deliberately changing observable
behaviour):

    PYTHONPATH=src python -c "
    import gzip, shutil
    from repro.experiments.figure4 import run_figure4
    fig = run_figure4(seed=11, telemetry_path='/tmp/f4.jsonl')
    fig.result.export_json('/tmp/f4.json')
    for src, dst in (('/tmp/f4.jsonl', 'tests/data/figure4_seed11_telemetry.jsonl.gz'),
                     ('/tmp/f4.json', 'tests/data/figure4_seed11_export.json.gz')):
        with open(src, 'rb') as fi, gzip.GzipFile(dst, 'wb', mtime=0) as fo:
            shutil.copyfileobj(fi, fo)
    "
"""

import gzip
import pathlib

from repro.experiments.figure4 import run_figure4
from repro.experiments.scenarios import LAN_SCENARIO, run_scenario

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def golden_bytes(name: str) -> bytes:
    with gzip.open(DATA / name, "rb") as fh:
        return fh.read()


def test_figure4_telemetry_stream_matches_golden(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    run_figure4(seed=11, telemetry_path=str(path))
    assert path.read_bytes() == golden_bytes(
        "figure4_seed11_telemetry.jsonl.gz"
    )


def test_figure4_export_matches_golden(tmp_path):
    path = tmp_path / "export.json"
    run_figure4(seed=11).result.export_json(str(path))
    assert path.read_bytes() == golden_bytes("figure4_seed11_export.json.gz")


def test_lan_scenario_run_reproduces_golden_event_stream(tmp_path):
    """The LAN scenario run through the one world builder replays the
    figure 4 golden byte for byte, closing summary line included."""
    path = tmp_path / "telemetry.jsonl"
    run_scenario(LAN_SCENARIO, telemetry_path=str(path))
    assert path.read_bytes() == golden_bytes(
        "figure4_seed11_telemetry.jsonl.gz"
    )
