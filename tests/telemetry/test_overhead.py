"""Telemetry nobody reads must cost a predicate check — and nothing else.

Three guards:

* a *behavioural* one — with no subscribers, nothing is emitted,
  no metric is registered, no span is opened: the only telemetry code a
  disabled run executes is reading ``telemetry.active``.  We prove it by
  making every other entry point raise;
* a *wall-clock* one — the small capacity scenario runs within 5% of a
  floor run whose telemetry object is a bare ``active = False`` stub
  (the cheapest conceivable implementation of the guard).  Best-of-N
  interleaved timings keep scheduler noise out of the comparison;
* a *budget* one for the bus that **is** active — with the QoE, SLO and
  flight-recorder observers attached (none of which reads a firehose
  kind), no ``sim.*`` / ``net.deliver`` event is built, and the bus
  counts only events it delivered.
"""

import dataclasses
import time

import pytest

from repro.experiments.capacity import run_capacity_point
from repro.experiments.scenarios import WAN_SCENARIO, prepare_scenario
from repro.sim import core as sim_core
from repro.telemetry import FIREHOSE_PREFIXES, Telemetry


def _boom(*args, **kwargs):
    raise AssertionError("telemetry work ran that no subscriber could receive")


def test_disabled_run_touches_nothing_but_the_guard(monkeypatch):
    monkeypatch.setattr(Telemetry, "emit", _boom)
    monkeypatch.setattr(Telemetry, "count", _boom)
    monkeypatch.setattr(Telemetry, "span", _boom)
    point = run_capacity_point(2, duration_s=10.0)
    assert point.n_clients == 2  # the run completed, guard-only


def test_disabled_run_registers_no_state():
    from repro.media.catalog import MovieCatalog
    from repro.media.movie import Movie
    from repro.net.topologies import build_lan
    from repro.service.deployment import Deployment
    from repro.sim.core import Simulator
    from repro.testing import crash_serving_server

    sim = Simulator(seed=3)
    topology = build_lan(sim, n_hosts=3)
    catalog = MovieCatalog([Movie.synthetic("clip", duration_s=40)])
    deployment = Deployment(topology, catalog, server_nodes=[0, 1])
    client = deployment.attach_client(2)
    client.request_movie("clip")
    sim.call_at(15.0, crash_serving_server, deployment, client)
    sim.run_until(30.0)

    tel = sim.telemetry
    assert tel.active is False
    assert tel.emitted == 0
    assert tel.metrics.names() == []
    assert tel.open_spans() == []


class _NullTelemetry:
    """The floor: the cheapest object that can satisfy the guard sites.

    ``active`` is a plain instance attribute, exactly like the real
    bus's — the floor differs only in carrying *no other state*, so the
    comparison isolates what a disabled run pays beyond the guard read.
    If instrumented code ever touches anything beyond ``.active`` while
    disabled, the floor run crashes — which is itself part of the guard.
    """

    def __init__(self, clock=None):
        self.active = False


def _time_run(seed):
    # CPU time, not wall time: the comparison must survive noisy shared
    # CI machines, and scheduler preemption inflates wall clocks by
    # far more than the 5% being asserted.
    start = time.process_time()
    run_capacity_point(4, duration_s=25.0, seed=seed)
    return time.process_time() - start


def test_disabled_overhead_under_five_percent():
    rounds = 7
    # Warm caches/allocator before timing anything.
    _time_run(seed=51)

    # Per-round paired ratios (floor then real, back to back, same
    # seed) cancel machine-load drift.  The best round is the one least
    # polluted by scheduler noise, so it is the fairest estimate of the
    # true overhead on a loaded CI box: real extra work in the disabled
    # path (formatting, allocation, dispatch) shows up in *every* round
    # and cannot hide in the minimum.
    ratios = []
    for attempt in range(rounds):
        floor_patch = pytest.MonkeyPatch()
        floor_patch.setattr(sim_core, "Telemetry", _NullTelemetry)
        try:
            floor = _time_run(seed=51 + attempt)
        finally:
            floor_patch.undo()
        ratios.append(_time_run(seed=51 + attempt) / floor)

    overhead = min(ratios) - 1.0
    assert overhead < 0.05, (
        f"disabled telemetry costs {overhead:.1%} over the bare-guard "
        f"floor (paired ratios: {[f'{r:.3f}' for r in sorted(ratios)]})"
    )


def test_observed_run_builds_no_firehose(monkeypatch):
    spec = dataclasses.replace(
        WAN_SCENARIO,
        run_duration_s=16.0,
        schedule=((4.0, "server-up"), (8.0, "crash-serving")),
    )
    # Tap every subscription, to count the events somebody received.
    delivered = []
    subscribe = Telemetry.subscribe

    def tapped_subscribe(self, callback, prefixes=None):
        def tap(event):
            delivered.append(event)
            callback(event)

        return subscribe(self, tap, prefixes=prefixes)

    monkeypatch.setattr(Telemetry, "subscribe", tapped_subscribe)

    emit = Telemetry.emit

    def no_firehose_emit(self, kind, **fields):
        # A call's arguments are built before the call: a producer that
        # never gets here formatted no ``net.deliver`` field either.
        if kind.startswith(FIREHOSE_PREFIXES):
            _boom()
        emit(self, kind, **fields)

    def nobody_reads_the_firehose(patch):
        patch.setattr(sim_core, "_callback_name", _boom)
        patch.setattr(Telemetry, "emit", no_firehose_emit)

    live = prepare_scenario(spec, observe=True, flight=True)
    sim, tel = live.sim, live.sim.telemetry
    assert (tel.active, tel.firehose) == (True, False)
    with monkeypatch.context() as patch:
        nobody_reads_the_firehose(patch)
        live.step(6.0)
    routed = {event.kind for event in delivered}

    # An unfiltered subscriber invalidates the routes: the firehose
    # flows from the very next event, beside the kinds already routed ...
    events, everything = tel.collect()
    assert tel.firehose is True
    assert sim.step()
    assert events[0].kind == "sim.fire"
    live.step(7.0)
    kinds = {event.kind for event in events}
    assert {"sim.fire", "net.deliver"} <= kinds and routed & kinds
    # ... and closing it stops all of it again.
    everything.close()
    assert tel.firehose is False
    seen = len(events)
    with monkeypatch.context() as patch:
        nobody_reads_the_firehose(patch)
        live.step(spec.run_duration_s)
        result = live.finish()
    assert len(events) == seen

    assert result.crash_times and result.incidents  # the observers had work
    assert tel.emitted == len({id(event) for event in delivered})
