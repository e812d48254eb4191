"""Unit tests for the telemetry bus, metric registry and spans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import FIREHOSE_PREFIXES, Span, Telemetry
from repro.telemetry.bus import TelemetryEvent
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    HistogramMetric,
    MetricRegistry,
)


def test_active_tracks_subscribers():
    tel = Telemetry()
    assert tel.active is False
    events, sub = tel.collect()
    assert tel.active is True
    sub.close()
    assert tel.active is False
    sub.close()  # idempotent
    assert tel.active is False


def test_emit_delivers_to_matching_subscribers():
    tel = Telemetry(clock=lambda: 7.5)
    everything, _ = tel.collect()
    client_only, _ = tel.collect(prefixes=("client.",))
    tel.emit("client.flow", client="c0", message="increase")
    tel.emit("net.drop", link="l0", reason="loss")
    assert [e.kind for e in everything] == ["client.flow", "net.drop"]
    assert [e.kind for e in client_only] == ["client.flow"]
    event = client_only[0]
    assert event.time == 7.5
    assert event.fields == {"client": "c0", "message": "increase"}
    assert event.as_dict() == {
        "t": 7.5, "kind": "client.flow", "client": "c0", "message": "increase",
    }
    assert tel.emitted == 2


def test_as_dict_reserves_t_and_kind():
    event = TelemetryEvent(3.0, "server.rate", {"kind": "shadowed", "t": -1.0})
    record = event.as_dict()
    assert record["kind"] == "server.rate"
    assert record["t"] == 3.0


def test_closed_subscriber_stops_receiving():
    tel = Telemetry()
    events, sub = tel.collect()
    tel.emit("fault.fired", note="crash")
    sub.close()
    tel.emit("fault.fired", note="partition")
    assert len(events) == 1


def test_close_during_dispatch_keeps_the_in_flight_event_whole():
    tel = Telemetry()
    got_a, got_b, got_c = [], [], []

    def a(event):
        got_a.append(event.kind)
        sub_a.close()  # closes itself ...
        sub_c.close()  # ... and a subscriber that has not been served yet

    sub_a = tel.subscribe(a)
    tel.subscribe(lambda event: got_b.append(event.kind))
    sub_c = tel.subscribe(lambda event: got_c.append(event.kind))
    tel.emit("x.y")
    # Everyone subscribed when the emit began receives it, once.
    assert got_a == got_b == got_c == ["x.y"]
    tel.emit("x.z")
    assert got_a == got_c == ["x.y"]
    assert got_b == ["x.y", "x.z"]


def test_subscription_attached_during_dispatch_first_sees_the_next_event():
    tel = Telemetry()
    late = []

    def attach_once(event):
        if not late_subs:
            late_subs.append(tel.subscribe(lambda e: late.append(e.kind)))

    late_subs = []
    tel.subscribe(attach_once)
    tel.emit("x.y")
    assert late == []
    tel.emit("x.z")
    assert late == ["x.z"]


def test_firehose_tracks_what_subscribers_could_match():
    tel = Telemetry()
    assert tel.firehose is False
    _, app = tel.collect(prefixes=("client.", "net.drop", "slo."))
    assert (tel.active, tel.firehose) == (True, False)
    _, everything = tel.collect()  # no filter: wants the firehose too
    assert tel.firehose is True
    everything.close()
    assert tel.firehose is False
    # A prefix shorter or longer than a firehose prefix overlaps it.
    for prefixes in (("net.",), ("sim.fire",), ("s",), ("net.deliver",)):
        _, sub = tel.collect(prefixes=prefixes)
        assert tel.firehose is True, prefixes
        sub.close()
        assert tel.firehose is False, prefixes
    app.close()
    assert (tel.active, tel.firehose) == (False, False)


def test_unrouted_emit_builds_and_counts_nothing():
    def clock():
        raise AssertionError("an event nobody is routed to was stamped")

    tel = Telemetry(clock=clock)
    tel.collect(prefixes=("client.",))
    tel.emit("net.drop", link="l0", reason="loss")  # nobody wants it
    assert tel.emitted == 0


def test_count_shorthand_bumps_registry_counter():
    tel = Telemetry()
    tel.count("net.drop.loss")
    tel.count("net.drop.loss", 2)
    assert tel.metrics.counter("net.drop.loss").value == 3


def test_metric_registry_lazily_creates_and_type_checks():
    registry = MetricRegistry()
    counter = registry.counter("a")
    assert registry.counter("a") is counter
    registry.gauge("g").set(4)
    assert registry.gauge("g").value == 4.0
    with pytest.raises(ValueError):
        registry.histogram("a")
    assert registry.names() == ["a", "g"]


def test_counter_rejects_decrements():
    registry = MetricRegistry()
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)


def test_histogram_buckets_and_snapshot():
    hist = HistogramMetric("takeover.latency_s", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.counts == [1, 2, 1]  # <=0.1, <=1.0, +inf overflow
    assert hist.mean == pytest.approx(6.05 / 4)

    registry = MetricRegistry()
    registry.histogram("h", buckets=(0.1, 1.0)).observe(0.5)
    snap = registry.snapshot()
    assert snap["h"]["count"] == 1
    assert snap["h"]["buckets"] == [0.1, 1.0]
    assert len(DEFAULT_LATENCY_BUCKETS_S) + 1 == len(
        HistogramMetric("d").counts
    )


def test_span_lifecycle_and_registry():
    now = [10.0]
    tel = Telemetry(clock=lambda: now[0])
    events, _ = tel.collect()

    span = tel.span("takeover", key="client0", cause="crash")
    assert isinstance(span, Span)
    assert tel.open_span("takeover", "client0") is span
    assert tel.open_spans() == [span]
    assert not span.ended

    now[0] = 12.5
    duration = tel.open_span("takeover", "client0").end(to_server="s1")
    assert duration == pytest.approx(2.5)
    assert span.ended
    assert tel.open_span("takeover", "client0") is None
    assert tel.open_spans() == []

    kinds = [e.kind for e in events]
    assert kinds == ["span.begin", "span.end"]
    assert events[0].fields["span"] == "takeover"
    assert events[0].fields["cause"] == "crash"
    assert events[1].fields["duration_s"] == pytest.approx(2.5)
    assert events[1].fields["to_server"] == "s1"


def test_span_end_is_idempotent_and_unknown_end_is_none():
    tel = Telemetry(clock=lambda: 1.0)
    span = tel.span("client.session", key="c0")
    assert span.end() == pytest.approx(0.0)
    assert span.end() == pytest.approx(0.0)  # second end keeps duration
    assert tel.open_span("client.session", "c0") is None
    assert tel.open_span("takeover", "never-opened") is None


def test_snapshot_round_trips_through_json():
    import json
    import math

    registry = MetricRegistry()
    registry.counter("faults").inc(3)
    registry.gauge("temp").set(21.5)
    hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 50.0):
        hist.observe(value)

    snap = json.loads(json.dumps(registry.snapshot()))
    assert snap["faults"] == 3 and isinstance(snap["faults"], int)
    assert snap["temp"] == 21.5
    assert snap["lat"]["buckets"] == [0.1, 1.0, 10.0]  # edges survive
    assert snap["lat"]["counts"] == [1, 1, 0, 1]
    assert snap["lat"]["count"] == 3
    assert snap["lat"]["mean"] == pytest.approx(50.55 / 3)

    # Non-finite gauges must not poison the JSON summary.
    registry.gauge("nan").set(math.nan)
    registry.gauge("inf").set(math.inf)
    snap = json.loads(json.dumps(registry.snapshot()))
    assert snap["nan"] is None
    assert snap["inf"] is None


def test_overlapping_prefixes_deliver_once_per_subscription():
    tel = Telemetry()
    # One subscription whose prefixes both match the same kind...
    once, _ = tel.collect(prefixes=("client.", "client.stall"))
    # ... and a second, independent subscription that also matches.
    other, _ = tel.collect(prefixes=("client.stall.", "server."))
    tel.emit("client.stall.begin", client="c0")
    assert [e.kind for e in once] == ["client.stall.begin"]
    assert [e.kind for e in other] == ["client.stall.begin"]
    assert tel.emitted == 1  # one event, however many deliveries


def test_abandon_emits_duration_so_far_and_is_idempotent():
    now = [5.0]
    tel = Telemetry(clock=lambda: now[0])
    events, _ = tel.collect()
    span = tel.span("takeover", key="client0", reason="crash")
    now[0] = 7.0
    assert span.abandon() == pytest.approx(2.0)
    assert span.abandon(reason="again") == pytest.approx(2.0)  # no re-emit
    abandoned = [e for e in events if e.kind == "span.abandoned"]
    assert len(abandoned) == 1
    fields = abandoned[0].fields
    assert fields["duration_s"] == pytest.approx(2.0)
    # The abandonment reason wins over the span's own ``reason`` attr
    # (why the takeover *started*) without tripping a kwarg collision.
    assert fields["reason"] == "run-end"
    assert tel.open_spans() == []


def test_abandon_open_spans_sweeps_the_registry():
    tel = Telemetry(clock=lambda: 1.0)
    events, _ = tel.collect()
    tel.span("takeover", key="c0")
    tel.span("client.session", key="c1")
    closed = tel.abandon_open_spans(reason="export-close")
    assert sorted(s.kind for s in closed) == ["client.session", "takeover"]
    assert tel.open_spans() == []
    kinds = [e.kind for e in events]
    assert kinds.count("span.abandoned") == 2
    assert tel.abandon_open_spans() == []  # second sweep finds nothing


# ----------------------------------------------------------------------
# The route table against a from-scratch prefix scan
# ----------------------------------------------------------------------
class _ScanSubscription:
    def __init__(self, bus, callback, prefixes):
        self.bus = bus
        self.callback = callback
        self.prefixes = prefixes

    def wants(self, kind):
        return self.prefixes is None or kind.startswith(self.prefixes)

    def close(self):
        if self in self.bus.subscriptions:
            self.bus.subscriptions.remove(self)


class _ScanBus:
    """The reference bus: no table, no derived state.

    Every emit offers the kind to every subscription by prefix (what
    ``Telemetry.emit`` did before it kept routes); ``active`` and
    ``firehose`` are recomputed from the subscriber list on every read.
    """

    def __init__(self):
        self.subscriptions = []
        self.emitted = 0

    def subscribe(self, callback, prefixes=None):
        cleaned = None if prefixes is None else tuple(prefixes)
        subscription = _ScanSubscription(self, callback, cleaned)
        self.subscriptions.append(subscription)
        return subscription

    def emit(self, kind, **fields):
        wanted = [s for s in self.subscriptions if s.wants(kind)]
        if wanted:
            self.emitted += 1
            event = TelemetryEvent(0.0, kind, fields)
            for subscription in wanted:
                subscription.callback(event)

    @property
    def active(self):
        return bool(self.subscriptions)

    @property
    def firehose(self):
        # Could anyone receive a firehose kind?  When a prefix and a
        # firehose prefix overlap, the longer of the two is such a kind.
        candidates = FIREHOSE_PREFIXES + tuple(
            prefix for s in self.subscriptions for prefix in s.prefixes or ()
        )
        return any(
            s.wants(kind)
            for s in self.subscriptions
            for kind in candidates
            if kind.startswith(FIREHOSE_PREFIXES)
        )


_KINDS = (
    "sim.fire", "sim.cancel", "net.deliver", "net.drop", "client.flow",
    "slo.breach", "span.end",
)
_PREFIX_SETS = (
    None, (), ("",), ("s",), ("sim.",), ("sim.fire",), ("net.",), ("net.d",),
    ("net.deliver", "net.drop"), ("net.drop",), ("client.", "slo."),
    ("client.", "client.flow", "span."),
)
_kinds = st.sampled_from(_KINDS)
_prefix_sets = st.sampled_from(_PREFIX_SETS)
_slots = st.integers(min_value=0, max_value=7)
#: What a callback does on a delivery (one entry consumed per delivery,
#: so re-entrant emits cannot recurse forever).
_reactions = st.one_of(
    st.none(),
    st.just(("close_self",)),
    st.tuples(st.just("close"), _slots),
    st.tuples(st.just("subscribe"), _prefix_sets),
    st.tuples(st.just("emit"), _kinds),
)
_ops = st.one_of(
    st.tuples(st.just("subscribe"), _prefix_sets, st.lists(_reactions, max_size=4)),
    st.tuples(st.just("close"), _slots),
    st.tuples(st.just("emit"), _kinds),
    st.tuples(st.just("emit"), _kinds),  # twice: half of all ops emit
)


def _drive(bus, ops):
    """Run ``ops`` against ``bus``; return everything observable."""
    subscriptions = []
    deliveries = []  # (subscriber, kind, emit number) in delivery order
    states = []  # (active, firehose, emitted) after each op
    emits = [0]

    def emit(kind):
        emits[0] += 1
        bus.emit(kind, n=emits[0])

    def close(slot):
        if subscriptions:
            subscriptions[slot % len(subscriptions)].close()

    def subscribe(prefixes, plan=()):
        index = len(subscriptions)
        plan = list(plan)

        def callback(event):
            deliveries.append((index, event.kind, event.fields["n"]))
            reaction = plan.pop(0) if plan else None
            if reaction is None:
                return
            if reaction[0] == "close_self":
                subscriptions[index].close()
            else:
                actions[reaction[0]](*reaction[1:])

        subscriptions.append(bus.subscribe(callback, prefixes=prefixes))

    actions = {"subscribe": subscribe, "close": close, "emit": emit}
    for op in ops:
        actions[op[0]](*op[1:])
        states.append((bus.active, bus.firehose, bus.emitted))
    return deliveries, states


@given(ops=st.lists(_ops, max_size=40))
@settings(max_examples=300, deadline=None)
def test_routes_agree_with_a_from_scratch_prefix_scan(ops):
    tel = Telemetry()
    deliveries, states = _drive(tel, ops)
    assert (deliveries, states) == _drive(_ScanBus(), ops)
    # ``emitted`` counts events, not deliveries and not discarded emits.
    assert tel.emitted == len({n for _, _, n in deliveries})
