"""Admission at the server pool: who gets in (policy) and when (queue).

Kanrar's policy-based traffic handling papers (see PAPERS.md) add the
piece the base reproduction lacks: under overload the pool should not
silently queue everyone, it should *decide* — reject some traffic
classes outright (the client retries on its usual 1 s cadence, an
implicit busy signal) or degrade them to a lower-quality stream that
costs proportionally less transmission bandwidth.

Mechanics
---------
Connect requests are classified into traffic classes
(:func:`classify_request`): ``resume`` (a mid-stream reconnect after a
crash — never throttled, or faults would orphan viewers), ``interactive``
(the client itself asked for reduced quality, e.g. a software decoder)
and ``standard`` (everyone else).  The policy holds one
:class:`TokenBucket` per metered class — per-class buckets are the
starvation-fairness mechanism: a flash crowd draining the ``standard``
bucket cannot starve ``interactive`` viewers, and vice versa.

Determinism
-----------
The deterministic replica admission rule (every replica sees the open
group connect and computes a least-loaded owner from its ledger, which
the fresh records the group shares keep in agreement) stays exactly as
it is; the policy is consulted *only by the chosen owner*, after the
owner check in ``MovieReplica.connect``.  Bucket state therefore lives
on one policy object shared by the whole pool (threaded through
:class:`~repro.service.deployment.Deployment`) and never diverges
between replicas.  Buckets refill lazily from the
simulation clock — no timers, no RNG draws.

Scenario specs carry the frozen, declarative :class:`AdmissionSpec`;
``build()`` makes the fresh stateful policy for one run.

Queue
-----
Independently of any policy, each movie-group replica holds connects
back while its view is settling (:class:`AdmissionQueue`) — that is
about *when* the deterministic rule may run, not about who it admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from itertools import compress
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gcs.view import ProcessId
    from repro.server.replica import MovieReplica
    from repro.service.protocol import ConnectRequest

#: Traffic classes a connect can land in.
RESUME = "resume"
INTERACTIVE = "interactive"
STANDARD = "standard"


def classify_request(request) -> str:
    """The traffic class of one connect request.

    ``resume_offset > 1`` means the client already played something —
    this is crash-recovery or reconnect traffic, which admission must
    never block (the fault-tolerance contract owns those clients).
    A request with its own ``quality_fps`` is an interactive/low-rate
    client (software decoder); the rest are standard full-rate viewers.
    """
    if request.resume_offset > 1:
        return RESUME
    if request.quality_fps is not None:
        return INTERACTIVE
    return STANDARD


class TokenBucket:
    """A deterministic token bucket with lazy, clock-driven refill.

    ``capacity`` bounds the burst; ``rate_per_s`` tokens accrue per
    second of simulated time (fractions accumulate).  ``take`` is the
    only mutator and draws no randomness, so shared pool-level buckets
    keep the simulation deterministic.
    """

    def __init__(self, capacity: float, rate_per_s: float) -> None:
        if capacity <= 0:
            raise ServiceError(f"bucket capacity must be > 0, got {capacity!r}")
        if rate_per_s < 0:
            raise ServiceError(f"refill rate must be >= 0, got {rate_per_s!r}")
        self.capacity = float(capacity)
        self.rate_per_s = float(rate_per_s)
        self.tokens = float(capacity)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self._last_refill) * self.rate_per_s,
            )
            self._last_refill = now

    def available(self, now: float) -> float:
        """Tokens on hand at ``now`` (refills as a side effect)."""
        self._refill(now)
        return self.tokens

    def take(self, now: float, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if on hand; False leaves state intact
        (other than the lazy refill)."""
        self._refill(now)
        if self.tokens + 1e-12 >= amount:
            self.tokens -= amount
            return True
        return False


@dataclass(frozen=True)
class AdmissionDecision:
    """What the policy wants done with one connect request.

    ``action`` is ``admit``, ``degrade`` or ``reject``.  For degrades
    ``quality_fps`` is the stream rate the session is granted instead
    of the full rate.
    """

    action: str
    tclass: str
    quality_fps: Optional[int] = None

    @property
    def admitted(self) -> bool:
        return self.action != "reject"


#: The stream rate an over-budget connect is granted in ``degrade`` mode.
DEGRADED_FPS = 12


class AdmissionPolicy:
    """Token-bucket admission under one overload action.

    The ``standard`` and ``interactive`` classes each draw from their
    own bucket; ``resume`` traffic passes straight through.  Over budget,
    ``reject`` mode turns the connect away (the client keeps retrying on
    its 1 s connect cadence and gets in once the class bucket has
    refilled — a deterministic busy-signal queue), and ``degrade`` mode
    admits it at :data:`DEGRADED_FPS` instead of the full stream rate —
    everyone gets a picture, the over-budget picture just costs less
    bandwidth.
    """

    def __init__(self, mode: str, rate_per_s: float, burst: float) -> None:
        self.mode = mode
        self.buckets: Dict[str, TokenBucket] = {
            tclass: TokenBucket(burst, rate_per_s)
            for tclass in (STANDARD, INTERACTIVE)
        }

    def decide(self, now: float, request) -> AdmissionDecision:
        tclass = classify_request(request)
        if tclass == RESUME or self.buckets[tclass].take(now):
            return AdmissionDecision(action="admit", tclass=tclass)
        if self.mode == "reject":
            return AdmissionDecision(action="reject", tclass=tclass)
        quality = DEGRADED_FPS
        if request.quality_fps is not None:
            quality = min(quality, int(request.quality_fps))
        return AdmissionDecision(
            action="degrade", tclass=tclass, quality_fps=quality
        )


@dataclass(frozen=True)
class AdmissionSpec:
    """Frozen, declarative description of a pool admission policy.

    Scenario specs and matrix cells carry one of these (hashable,
    comparable); :meth:`build` creates the fresh stateful policy object
    for a single run.  ``mode`` is ``open``, ``reject`` or ``degrade``.
    """

    mode: str = "open"
    rate_per_s: float = 0.5
    burst: float = 3.0

    def build(self) -> Optional[AdmissionPolicy]:
        """The policy instance, or None for ``open`` (= no policy hook,
        byte-for-byte the historical admission path)."""
        if self.mode == "open":
            return None
        if self.mode not in ("reject", "degrade"):
            raise ServiceError(f"unknown admission mode {self.mode!r}")
        return AdmissionPolicy(self.mode, self.rate_per_s, self.burst)


class AdmissionQueue:
    """Defers connect admissions while a movie group's view settles.

    A connect that lands while the group's first view is still forming
    (or while a later view is inside its settle window with joiners)
    used to be admitted immediately — and the join-regime full recompute
    that runs on *every* record arrival during the settle window then
    round-robins the grown record set differently each time, bouncing
    already-admitted clients between replicas (~90 000 session
    ping-pongs at a 1 000-client connect flood).  Queuing the flood
    until the view settles keeps the record set frozen while the
    recompute is live, so the rebalance is computed once over stable
    inputs.  Requests are deduplicated per client (the latest retry
    wins) and drained in *sorted client order*: network jitter gives
    every replica a different arrival order, and the least-loaded
    placement rule is order-sensitive.  Sorted order makes placement
    reproducible, not agreed: the replicas drain a fraction of a
    millisecond apart, and a state share that lands between two drains
    changes one replica's load counts and not the other's.  What makes
    the ledgers agree afterwards is that a fresh record names its owner
    (:meth:`~repro.server.replica.MovieReplica.reevaluate`).

    A flyweight row is queued as a flag in a ``bytearray`` indexed by
    pool row, not as its request: the pool's columns hold everything the
    request said (:meth:`~repro.client.flyweight.FlyweightPool.connect_request`).
    """

    def __init__(self, replica: MovieReplica) -> None:
        self._replica = replica
        self._sim = replica.sim
        self._pending: Dict[ProcessId, ConnectRequest] = {}
        self._rows = bytearray()
        self._row_count = 0
        self._drain_handle: Optional[Any] = None
        self.deferred_total = 0

    def defer(self, request: ConnectRequest) -> bool:
        """Queue ``request`` if the movie group is still settling.

        Returns True when the request was absorbed (the caller must not
        admit it now); False when admission can proceed immediately.
        """
        replica = self._replica
        # No view committed yet means the group is still forming.
        if replica.view is not None and not replica.settling:
            return False
        # A retry replaces the original but keeps its queue position.
        self._pending[request.client] = request
        self.deferred_total += 1
        self._arm_drain()
        return True

    def defer_row(self, index: int) -> bool:
        """:meth:`defer` for the connect of flyweight pool row ``index``."""
        replica = self._replica
        if replica.view is not None and not replica.settling:
            return False
        rows = self._rows
        if index >= len(rows):
            rows.extend(bytes(max(index + 1, len(replica.pool)) - len(rows)))
        if not rows[index]:
            rows[index] = 1
            self._row_count += 1
        self.deferred_total += 1
        self._arm_drain()
        return True

    def _arm_drain(self) -> None:
        if self._drain_handle is not None:
            return
        settle_until = self._replica.settle_until
        if settle_until <= self._sim.now:
            # No settle window yet (still waiting for the first view):
            # poll at the server's sync cadence until one exists.
            settle_until = (
                self._sim.now + self._replica.server.config.sync_interval_s
            )
        self._drain_handle = self._sim.call_at(settle_until, self._drain)

    def _drain(self) -> None:
        self._drain_handle = None
        replica = self._replica
        if not replica.server.running:
            self._clear()
            return
        if replica.view is None or replica.settling:
            self._arm_drain()  # a newer view re-opened the window
            return
        queue, self._pending = self._pending, {}
        rows, self._rows = self._rows, bytearray()
        queued = len(queue) + self._row_count
        self._row_count = 0
        if not queued:
            return
        tel = self._sim.telemetry
        if tel.active:
            tel.emit(
                "server.admission.drain",
                server=replica.server.name,
                movie=replica.title,
                queued=queued,
            )
        # Admit in sorted client order (identical at every replica),
        # full clients and rows merged, without the per-admission sync
        # storm; one state share at the end propagates the whole batch.
        full = ((client, -1) for client in sorted(queue))
        for client, index in merge(full, self._in_client_order(rows)):
            if index < 0:
                replica.connect(queue[client], sync=False)
            else:
                replica.connect_row(index)
        replica.sync()

    def _in_client_order(self, rows: bytearray):
        """``(client, row)`` for every row flagged in ``rows``, sorted by
        client."""
        if not rows:
            return ()
        client_of = self._replica.pool.client_of
        order = sorted(compress(range(len(rows)), rows), key=client_of)
        return ((client_of(index), index) for index in order)

    def pending(self) -> int:
        return len(self._pending) + self._row_count

    def _clear(self) -> None:
        self._pending.clear()
        self._rows = bytearray()
        self._row_count = 0

    def close(self) -> None:
        if self._drain_handle is not None:
            self._drain_handle.cancel()
            self._drain_handle = None
        self._clear()
