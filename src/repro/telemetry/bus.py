"""The process-wide telemetry event bus.

One :class:`Telemetry` instance lives on every
:class:`~repro.sim.core.Simulator` (``sim.telemetry``); every layer —
kernel, network, GCS, server, client, fault injector — emits typed
events through it.  Design constraints, in priority order:

1. **Disabled cost is one predicate check.**  Instrumented sites guard
   with ``if tel.active:`` where ``active`` is a plain attribute kept in
   sync with the subscriber list.  With no subscribers nothing is
   formatted, allocated or dispatched.
2. **Emission never perturbs the simulation.**  ``emit`` draws no
   random numbers and schedules no events, so a run with full telemetry
   is event-for-event identical to a run without (same seed).
3. **Subscribers are push-based; producers build only what someone
   reads.**  A subscriber is a callable invoked synchronously with each
   :class:`TelemetryEvent` its kind-prefix filter matches.  The bus
   resolves the filters once per kind into a route table, so an event
   nobody wants is dropped before anything is constructed, and the
   producers of the two high-frequency kernel/network kinds
   (:data:`FIREHOSE_PREFIXES`) additionally guard on ``firehose`` so
   they do not even format their fields unless a subscriber could
   match them.

This module must not import the rest of :mod:`repro` (the sim kernel
imports it — anything else would be an import cycle).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.spans import Span

SubscriberFn = Callable[["TelemetryEvent"], None]

#: The per-event / per-packet kinds (``sim.fire``, ``sim.cancel``,
#: ``net.deliver``); their producers guard on :attr:`Telemetry.firehose`.
FIREHOSE_PREFIXES = ("sim.", "net.deliver")


def _may_match_firehose(prefixes: Optional[Tuple[str, ...]]) -> bool:
    """Could a subscription with these prefixes receive a firehose kind?"""
    if prefixes is None:
        return True
    return any(
        prefix.startswith(firehose) or firehose.startswith(prefix)
        for prefix in prefixes
        for firehose in FIREHOSE_PREFIXES
    )


class TelemetryEvent:
    """One structured event: virtual time, dotted kind, payload fields."""

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: dict) -> None:
        self.time = time
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> dict:
        """Flat JSON-friendly form (used by the JSONL exporter).

        ``t`` and ``kind`` are reserved: a payload field with either
        name cannot shadow the record's time or event kind.
        """
        out = dict(self.fields)
        out["t"] = self.time
        out["kind"] = self.kind
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TelemetryEvent t={self.time:.6f} {self.kind} {self.fields}>"


class Subscription:
    """Handle returned by :meth:`Telemetry.subscribe`; ``close()`` detaches."""

    __slots__ = ("_telemetry", "callback", "prefixes", "closed")

    def __init__(self, telemetry, callback, prefixes) -> None:
        self._telemetry = telemetry
        self.callback = callback
        self.prefixes = prefixes
        self.closed = False

    def wants(self, kind: str) -> bool:
        if self.prefixes is None:
            return True
        return kind.startswith(self.prefixes)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._telemetry._unsubscribe(self)


class Telemetry:
    """The event bus + metric registry + open-span registry.

    ``active`` is the single public predicate instrumented code checks
    before doing any telemetry work::

        tel = self.sim.telemetry
        if tel.active:
            tel.emit("net.drop", link=self.rng_name, reason="loss")

    ``active`` is True exactly while at least one subscriber is
    attached; everything else (metric updates, span bookkeeping, field
    construction) belongs inside the guard.  Producers of the
    :data:`FIREHOSE_PREFIXES` kinds ask one more question behind it::

        if tel.active and tel.firehose:
            tel.emit("sim.fire", name=_callback_name(handle.callback))
    """

    def __init__(self, clock: Callable[[], float] = None) -> None:
        #: The one-predicate-check fast path.  Plain attribute, not a
        #: property: reading it must not involve a function call.
        self.active = False
        #: True only while some subscription could match a firehose
        #: kind (no prefix filter, or a prefix overlapping
        #: :data:`FIREHOSE_PREFIXES`).  Derived state like ``active``,
        #: kept in sync by subscribe/close; read it behind ``active``.
        self.firehose = False
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.metrics = MetricRegistry()
        #: Events delivered to at least one subscriber over this bus's
        #: lifetime (an emit with an empty route counts nothing).
        self.emitted = 0
        #: The ambient cause id: while a causal episode executes
        #: synchronously (a fault handler, a view installation), the
        #: initiating site sets this and every emission in between can
        #: tag itself with it.  Touched only inside ``if active:``
        #: guards, so the disabled path never reads or writes it.
        self.cause: Optional[str] = None
        self._cause_seq = 0
        #: Latest cause attributed to an entity ("node:3",
        #: "client:client0@5"): how a cause survives *asynchronous*
        #: boundaries — a crash attributes its node, and the failure
        #: detector's later suspicion looks the cause back up.
        self._cause_of: Dict[str, str] = {}
        self._subscribers: List[Subscription] = []
        #: Exact kind -> callbacks of the subscriptions wanting it, in
        #: subscription order.  Filled on a kind's first emit, dropped
        #: whenever the subscriber list changes.
        self._routes: Dict[str, Tuple[SubscriberFn, ...]] = {}
        self._open_spans: Dict[Tuple[str, str], Span] = {}

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: SubscriberFn,
        prefixes: Optional[Sequence[str]] = None,
    ) -> Subscription:
        """Attach ``callback``; it runs synchronously per matching event.

        ``prefixes`` restricts delivery to kinds starting with any of
        the given dotted prefixes (``("client.", "span.")``); ``None``
        delivers everything.
        """
        cleaned = None if prefixes is None else tuple(prefixes)
        subscription = Subscription(self, callback, cleaned)
        self._subscribers.append(subscription)
        self._subscribers_changed()
        return subscription

    def collect(
        self, prefixes: Optional[Sequence[str]] = None
    ) -> Tuple[List[TelemetryEvent], Subscription]:
        """Convenience: subscribe an in-memory list (tests, small runs)."""
        events: List[TelemetryEvent] = []
        subscription = self.subscribe(events.append, prefixes=prefixes)
        return events, subscription

    def _unsubscribe(self, subscription: Subscription) -> None:
        try:
            self._subscribers.remove(subscription)
        except ValueError:
            pass
        self._subscribers_changed()

    def _subscribers_changed(self) -> None:
        self._routes.clear()
        self.active = bool(self._subscribers)
        self.firehose = any(
            _may_match_firehose(subscription.prefixes)
            for subscription in self._subscribers
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields) -> None:
        """Publish one event to every matching subscriber.

        Call only inside an ``if telemetry.active:`` guard — emitting on
        an inactive bus is wasted work (the event goes nowhere) though
        it is harmless and still deterministic.

        The route is a snapshot: a subscription closed from inside a
        callback still receives the event in flight, and one attached
        from inside a callback first sees the next event.
        """
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = tuple(
                subscription.callback
                for subscription in self._subscribers
                if subscription.wants(kind)
            )
        if not route:
            return
        event = TelemetryEvent(self.clock(), kind, fields)
        self.emitted += 1
        for callback in route:
            callback(event)

    def count(self, name: str, amount: int = 1) -> None:
        """Shorthand: bump the registry counter ``name``."""
        self.metrics.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Causal tracing (see repro.telemetry.causal for reconstruction)
    # ------------------------------------------------------------------
    def new_cause(self, label: str) -> str:
        """Mint a deterministic cause id (``label#N``).

        Ids are sequence-numbered per bus, so a fixed seed yields the
        same ids in the same order run after run.  Call only inside an
        ``if active:`` guard — causes exist purely for observers.
        """
        self._cause_seq += 1
        return f"{label}#{self._cause_seq}"

    def attribute(self, entity: str, cause: str) -> None:
        """Record that ``entity`` is currently affected by ``cause``.

        Entities are small dotted strings chosen by the instrumented
        sites (``node:<daemon>``, ``client:<process>``); attribution is
        last-write-wins.  This is how a cause crosses asynchronous
        boundaries: the crash handler attributes the dead node, and the
        failure detector's suspicion minutes of virtual time later looks
        it back up with :meth:`cause_for`.
        """
        self._cause_of[entity] = cause

    def cause_for(self, *entities: str) -> Optional[str]:
        """The most recent cause attributed to any of ``entities``.

        Falls back to the ambient :attr:`cause` when no entity matches,
        so synchronous call chains need no attribution at all.
        """
        for entity in entities:
            cause = self._cause_of.get(entity)
            if cause is not None:
                return cause
        return self.cause

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, kind: str, key: str = "", **attrs) -> Span:
        """Open a span; emits ``span.begin`` and registers it by
        ``(kind, key)`` so another component can close it later via
        :meth:`open_span` and ``.end()``."""
        span = Span(self, kind, key, self.clock(), attrs)
        self._open_spans[(kind, key)] = span
        if self.active:
            self.emit("span.begin", span=kind, key=key, **attrs)
        return span

    def open_span(self, kind: str, key: str = "") -> Optional[Span]:
        """The currently open span registered under ``(kind, key)``."""
        return self._open_spans.get((kind, key))

    def open_spans(self) -> List[Span]:
        return list(self._open_spans.values())

    def abandon_open_spans(self, reason: str = "run-end") -> List[Span]:
        """Close every still-open span via :meth:`Span.abandon`.

        Called at simulation teardown (the JSONL exporter does it before
        writing its summary) so crash scenarios do not silently lose
        takeover/session spans: each emits ``span.abandoned`` with its
        duration so far.  Returns the spans that were abandoned.
        """
        spans = list(self._open_spans.values())
        for span in spans:
            span.abandon(reason=reason)
        return spans

    def _forget_span(self, span: Span) -> None:
        registered = self._open_spans.get((span.kind, span.key))
        if registered is span:
            del self._open_spans[(span.kind, span.key)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Telemetry active={self.active} "
            f"subscribers={len(self._subscribers)} emitted={self.emitted}>"
        )
