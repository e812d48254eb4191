"""Unit tests of the benchmark harness itself.

Run with ``python -m pytest bench -q`` (not part of tier-1's
``testpaths``).  They cover the arithmetic and the tracer on synthetic
inputs; the benchmark's own correctness checks cover the real runs.
"""

import importlib
import json
import os
import re
import sys
import textwrap
from time import perf_counter_ns

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import calibrate  # noqa: E402
from bench.trace import LAYERS, OUTSIDE, LayerTracer, layer_index  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


# ----------------------------------------------------------------------
# Calibration maths
# ----------------------------------------------------------------------
def test_quiet_chunk_is_the_lower_quartile():
    quiet = [6.0e6] * 30
    episode = [9.0e6] * 6  # a slow episode must not move the quiet level
    assert calibrate.quiet_chunk_ns(quiet + episode) == pytest.approx(6.0e6)
    assert calibrate.quiet_chunk_ns([7.0e6]) == 7.0e6


def test_calibrated_seconds_scale_with_the_box():
    ref_ns = calibrate.CAL_REF_S * 1e9
    # On the reference box calibrated seconds are wall seconds ...
    assert calibrate.calibrated_s(2e9, ref_ns) == pytest.approx(2.0)
    # ... and a box twice as slow reports the same figure for twice the wall.
    assert calibrate.calibrated_s(4e9, 2 * ref_ns) == pytest.approx(2.0)


def test_run_cost_ignores_an_episode_that_hits_one_repetition():
    ref_ns = calibrate.CAL_REF_S * 1e9
    clean = [100e6, 200e6, 50e6]
    hit_first = [150e6, 200e6, 50e6]
    hit_last = [100e6, 200e6, 80e6]
    assert calibrate.fastest_slices([hit_first, hit_last, clean]) == clean
    # Two repetitions are enough as long as the episodes do not overlap.
    assert calibrate.run_cal_s([hit_first, hit_last], ref_ns) == pytest.approx(0.35)
    with pytest.raises(ValueError):
        calibrate.fastest_slices([clean, clean[:2]])


def test_quartiles_match_the_driver_and_boundaries_cover_the_run():
    stats = calibrate.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (stats["q1"], stats["median"], stats["q3"], stats["n"]) == (1.5, 3.0, 4.5, 5)
    assert calibrate.quartiles([7.0])["median"] == 7.0
    assert calibrate.slice_boundaries(1.0, 0.25) == [0.25, 0.5, 0.75, 1.0]
    assert calibrate.slice_boundaries(75.0, 2.0)[-1] == 75.0
    assert calibrate.chunk() > 0


# ----------------------------------------------------------------------
# Layer resolution and self time on a toy three-layer call tree
# ----------------------------------------------------------------------
def test_layer_resolution():
    assert LAYERS[layer_index("repro.net.link")] == "net"
    assert LAYERS[layer_index("repro.sim.core")] == "sim"
    assert LAYERS[layer_index("repro.experiments.scale")] == "other"
    assert LAYERS[layer_index("repro.errors")] == "other"
    assert LAYERS[layer_index("repro")] == "other"
    assert layer_index("heapq") == OUTSIDE
    assert layer_index(None) == OUTSIDE
    assert LAYERS[layer_index("toy.gcs.x", package="toy")] == "gcs"


TOY = {
    "benchtoy/__init__.py": "",
    "benchtoy/server/__init__.py": "",
    "benchtoy/server/app.py": """
        from benchtoy.net.wire import send
        from benchtoy.util import spin

        class Session:
            def start(self):
                spin(3)
                self._local()
                return send(2)

            def _local(self):
                spin(1)

            @staticmethod
            def helper():
                return send(0)
    """,
    "benchtoy/net/__init__.py": "",
    "benchtoy/net/wire.py": """
        from benchtoy.media.frames import decode
        from benchtoy.util import spin

        def send(n):
            spin(2)
            _queue()
            return [decode() for _ in range(n)]

        def _queue():
            spin(1)
    """,
    "benchtoy/media/__init__.py": "",
    "benchtoy/media/frames.py": """
        from benchtoy.util import spin

        def decode():
            spin(1)
            return "frame"
    """,
    # A top-level module: layer "other".
    "benchtoy/util.py": """
        from time import perf_counter_ns

        def spin(ms):
            end = perf_counter_ns() + ms * 1_000_000
            while perf_counter_ns() < end:
                pass
    """,
}


@pytest.fixture
def toy(tmp_path, monkeypatch):
    for name, body in TOY.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    names = ["benchtoy.util", "benchtoy.media.frames", "benchtoy.net.wire",
             "benchtoy.server.app"]
    modules = [importlib.import_module(name) for name in names]
    yield modules
    for name in [n for n in sys.modules if n.split(".")[0] == "benchtoy"]:
        del sys.modules[name]


def test_self_time_subtracts_child_spans(toy):
    util, frames, wire, app = toy
    tracer = LayerTracer(package="benchtoy")
    # ``spin`` is plumbing shared by every toy layer: leave it unwrapped
    # so its time counts as the caller's own.
    tracer.install(modules=[frames, wire, app])
    try:
        started = perf_counter_ns()
        assert app.Session().start() == ["frame", "frame"]
        wall_ms = (perf_counter_ns() - started) / 1e6
    finally:
        assert tracer.uninstall() == []

    spans = {span[1]: span for span in tracer.raw_spans}
    # One span per crossing: harness->server, server->net, net->media x2.
    # Session._local and wire._queue stay inside their layer: no span.
    assert sorted(span[1] for span in tracer.raw_spans) == [
        "media.decode", "media.decode", "net.send", "server.Session.start",
    ]
    start, send = spans["server.Session.start"], spans["net.send"]
    assert start[4] == 0  # called from the harness
    assert send[4] == start[0]  # parent: the server span
    assert all(s[4] == send[0] for s in tracer.raw_spans if s[1] == "media.decode")

    self_ms = {
        LAYERS[i]: ns / 1e6 for i, ns in enumerate(tracer.layer_self_ns) if ns
    }
    # server: spin(3) + _local spin(1); net: spin(2) + _queue spin(1);
    # media: 2 x spin(1).  A busy-wait never returns early, and on a
    # shared box it may return late, so only the floors are certain ...
    assert self_ms["server"] >= 4.0
    assert self_ms["net"] >= 3.0
    assert self_ms["media"] >= 2.0
    # ... and that self times partition the root span: nothing is
    # counted twice or lost.
    total_ms = (start[3] - start[2]) / 1e6
    assert sum(self_ms.values()) == pytest.approx(total_ms, abs=0.01)
    assert total_ms <= wall_ms
    assert tracer.layer_calls_in[LAYERS.index("media")] == 2
    calls, total_ns, self_ns = tracer.functions["net.send"]
    assert calls == 1 and self_ns < total_ns


def test_static_methods_are_wrapped_and_restored(toy):
    util, frames, wire, app = toy
    original = vars(app.Session)["helper"]
    tracer = LayerTracer(package="benchtoy")
    tracer.install(modules=[frames, wire, app])
    assert isinstance(vars(app.Session)["helper"], staticmethod)
    assert app.Session.helper() == []
    assert tracer.functions["net.send"][0] == 1
    assert tracer.uninstall() == []
    assert vars(app.Session)["helper"] is original


# ----------------------------------------------------------------------
# Event roots and cause linkage through the real kernel
# ----------------------------------------------------------------------
def test_cause_links_spans_through_call_at_and_reschedule():
    import repro.sim.core as core

    tracer = LayerTracer()
    tracer.install(modules=[core])
    fired = []
    try:
        sim = core.Simulator(seed=1)

        def second():
            fired.append(("second", sim.now))

        def first():
            fired.append(("first", sim.now))
            sim.call_at(2.0, second)

        def rearm():
            fired.append(("rearm", sim.now))
            sim.reschedule(handle, 4.0)

        def recycled():
            fired.append(("recycled", sim.now))

        handle = sim.call_at(0.5, recycled)
        sim.call_at(1.0, first)
        sim.call_at(3.0, rearm)
        assert sim.run_until(10.0) == 5
        pushes = tracer.state.pushes
    finally:
        assert tracer.uninstall() == []

    assert [name for name, _ in fired] == [
        "recycled", "first", "second", "rearm", "recycled",
    ]
    assert pushes == 5
    roots = [s for s in tracer.raw_spans if s[1].startswith("other.")]
    by_name = {}
    for span in roots:
        by_name.setdefault(span[1].rsplit(".", 1)[-1], []).append(span)
    first_root, = by_name["first"]
    second_root, = by_name["second"]
    rearm_root, = by_name["rearm"]
    early, late = by_name["recycled"]
    # Scheduled by the harness: no cause.  A root is its own event.
    assert first_root[6] == 0 and first_root[5] == first_root[0]
    assert early[6] == 0
    # ``second`` was scheduled while ``first`` ran; the recycled handle
    # was re-armed while ``rearm`` ran.
    assert second_root[6] == first_root[0]
    assert late[6] == rearm_root[0]
    # Every root's parent is the kernel span that dispatched it, and the
    # kernel calls made inside an event carry that event's id.
    run_until, = [s for s in tracer.raw_spans if s[1] == "sim.Simulator.run_until"]
    assert all(root[4] == run_until[0] for root in roots)
    inner = [s for s in tracer.raw_spans if s[1] == "sim.Simulator.call_at"
             and s[4] == first_root[0]]
    assert len(inner) == 1 and inner[0][5] == first_root[0]


def test_event_roots_keep_the_names_telemetry_sees():
    import repro.sim.core as core
    from repro.telemetry.trace import _callback_name

    tracer = LayerTracer()
    tracer.install(modules=[core])
    try:
        sim = core.Simulator(seed=1)

        class Thing:
            def tick(self):
                pass

        thing = Thing()
        handle = sim.call_at(1.0, thing.tick)
        assert _callback_name(handle.callback) == _callback_name(thing.tick)
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# Install / restore
# ----------------------------------------------------------------------
def test_install_restores_every_attribute_by_identity():
    tracer = LayerTracer()
    tracer.install()
    import repro.sim.core as core

    # The first patch of an attribute holds the true original (call_at
    # and reschedule are patched twice: wrapper, then scheduling hook).
    originals = {}
    for owner, attr, original, _ in tracer._patches:
        originals.setdefault((owner, attr), original)
    assert len(originals) > 500  # the whole package, not a sample
    assert vars(core.Simulator)["step"].__wrapped__ is originals[core.Simulator, "step"]
    with pytest.raises(RuntimeError):
        tracer.install()
    assert tracer.uninstall() == []
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner}.{attr}"
    assert tracer.uninstall() == []  # idempotent

    # A second tracer starts from the originals, not from stale wrappers.
    again = LayerTracer()
    again.install(modules=[core])
    assert vars(core.Simulator)["step"].__wrapped__ is originals[core.Simulator, "step"]
    assert again.uninstall() == []


def test_uninstall_reports_a_wrapper_it_cannot_restore():
    import repro.sim.core as core

    tracer = LayerTracer()
    tracer.install(modules=[core])
    original = tracer._patches[0][2]
    owner, attr = tracer._patches[0][:2]
    setattr(owner, attr, lambda *a, **k: None)  # someone else patched on top
    try:
        assert tracer.uninstall() != []
    finally:
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_validates():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as handle:
        spec = json.load(handle)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["bench"]
    assert spec["command"][:2] == ["python3", "bench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    workloads = spec["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(WORKLOADS)
    for entry in workloads:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]

    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    for metric in end_to_end + per_layer:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.match(name), name
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)
    for layer in LAYERS:
        for suffix in ("self_share", "self_cal_s", "calls_in"):
            assert f"{layer}.{suffix}" in names
