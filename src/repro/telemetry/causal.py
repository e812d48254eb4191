"""Causal tracing: reconstruct *why* from an exported event stream.

The bus threads a cheap ``cause`` id through the failover event path —
fault action → server crash → failure-detector suspicion → GCS view
change → take-over span → stream resume → client buffer recovery.  Two
propagation mechanisms, both costing nothing while telemetry is off:

* **ambient cause** (``Telemetry.cause``): a synchronous episode (a
  fault handler firing, a view installing and its callbacks running)
  sets the ambient id so every emission inside the call chain can tag
  itself;
* **entity attribution** (``Telemetry.attribute`` / ``cause_for``): a
  cause crossing an *asynchronous* boundary is parked on the affected
  entity (``node:3``, ``client:client0@5``) and looked back up when the
  delayed consequence fires (missed heartbeats, a frame arriving at the
  client from its new server).

This module is the offline half: a :class:`TraceGraph` groups event
records (an export's ``load_timeline(path).events``, or a flight
recorder's capture window) into cause chains, and
:func:`failover_breakdowns` extracts the paper's take-over story as a
critical path — how much of each failover went to *detection* (crash →
suspicion), *agreement* (suspicion → view install) and *redistribution*
(view install → the adopting server's resume), with the client-visible
*resume* tail (take-over → first frame from the new server) reported
alongside.  The three in-span segments sum to the take-over span
duration by construction, which the tests pin down.

Pure stdlib + :mod:`repro.telemetry` internals; safe to import from
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.telemetry.text import Table


@dataclass
class CausalChain:
    """All exported events tagged with one cause id, in time order."""

    cause: str
    events: List[Dict] = field(default_factory=list)

    @property
    def kinds(self) -> List[str]:
        return [event.get("kind", "?") for event in self.events]

    @property
    def start(self) -> float:
        return self.events[0]["t"] if self.events else 0.0

    @property
    def end(self) -> float:
        return self.events[-1]["t"] if self.events else 0.0

    def first(self, *kinds: str) -> Optional[Dict]:
        """The earliest event whose kind starts with any of ``kinds``."""
        for event in self.events:
            if str(event.get("kind", "")).startswith(tuple(kinds)):
                return event
        return None

    def all(self, *kinds: str) -> List[Dict]:
        return [
            event for event in self.events
            if str(event.get("kind", "")).startswith(tuple(kinds))
        ]


class TraceGraph:
    """Cause-indexed view of an exported run.

    Nodes are the exported event records; edges are implicit — events
    sharing a ``cause`` field belong to one :class:`CausalChain`,
    ordered by virtual time (ties keep file order, which is emission
    order).
    """

    def __init__(self, events: Sequence[Dict]) -> None:
        self._chains: Dict[str, CausalChain] = {}
        for record in events:
            cause = record.get("cause")
            if cause:
                chain = self._chains.get(cause)
                if chain is None:
                    chain = self._chains[cause] = CausalChain(cause)
                chain.events.append(record)

    def chains(self) -> List[CausalChain]:
        """Every causal chain, ordered by first event time."""
        return sorted(self._chains.values(), key=lambda c: (c.start, c.cause))

    def chain(self, cause: str) -> Optional[CausalChain]:
        return self._chains.get(cause)

    def causes(self) -> List[str]:
        return [chain.cause for chain in self.chains()]


@dataclass
class FailoverBreakdown:
    """Critical-path decomposition of one take-over.

    ``detect_s + agree_s + redistribute_s == total_s`` (the take-over
    span duration) by construction: the three segments partition the
    span at the first suspicion and the first subsequent view install.
    ``resume_s`` is the client-visible tail *after* the span — take-over
    admit to the first frame the client accepted from its new server —
    and is ``None`` when the export holds no ``client.resume`` (e.g. the
    run ended first).
    """

    cause: str
    client: str
    crash_t: float
    detect_s: float
    agree_s: float
    redistribute_s: float
    total_s: float
    resume_s: Optional[float] = None
    abandoned: bool = False

    def segments(self) -> List[tuple]:
        return [
            ("detect", self.detect_s),
            ("agree", self.agree_s),
            ("redistribute", self.redistribute_s),
        ]


def critical_path(chain: CausalChain) -> List[Dict]:
    """The failover critical path within ``chain``, in time order.

    One representative event per stage: the initiating fault/crash, the
    first suspicion, the first view install after it, the take-over span
    close (``span.end``/``span.abandoned`` with ``span == takeover`` or
    ``rebalance``), the adopting ``server.session.start`` and the
    client's ``client.resume``.  Stages the export lacks are skipped.
    """

    path: List[Dict] = []
    # The fault record is the chain's true origin even though the
    # injector emits it after its handler (so the crash it caused sits
    # earlier in file order at the same timestamp).
    origin = chain.first("fault.") or chain.first(
        "server.crash", "server.shutdown"
    )
    if origin is not None:
        path.append(origin)
    suspect = chain.first("gcs.fd.suspect")
    if suspect is not None:
        path.append(suspect)
    install = None
    for event in chain.all("gcs.view.install"):
        if suspect is None or event["t"] >= suspect["t"]:
            install = event
            break
    if install is not None:
        path.append(install)
    for event in chain.events:
        if event.get("kind") in ("span.end", "span.abandoned") and event.get(
            "span"
        ) in ("takeover", "rebalance"):
            path.append(event)
            break
    for kind in ("server.session.start", "client.resume"):
        for event in chain.events:
            if event.get("kind") == kind:
                path.append(event)
                break
    return path


def failover_breakdowns(graph: TraceGraph) -> List[FailoverBreakdown]:
    """Extract one :class:`FailoverBreakdown` per closed handoff span.

    Walks every causal chain holding a ``takeover``/``rebalance`` span
    close, partitions the span at the chain's first suspicion and first
    view install, and attaches the client-visible resume tail.
    Boundary events missing from the chain (a forced suspicion with no
    crash, a rebalance with no suspicion) collapse their segment to the
    neighbouring boundary rather than failing.
    """
    out: List[FailoverBreakdown] = []
    for chain in graph.chains():
        closes = [
            event for event in chain.events
            if event.get("kind") in ("span.end", "span.abandoned")
            and event.get("span") in ("takeover", "rebalance")
        ]
        for close in closes:
            start = float(close.get("start", chain.start))
            end_t = float(close["t"])
            client = str(close.get("key", ""))

            suspect = chain.first("gcs.fd.suspect")
            suspect_t = (
                min(max(float(suspect["t"]), start), end_t)
                if suspect is not None else start
            )
            install_t = suspect_t
            for event in chain.all("gcs.view.install"):
                t = float(event["t"])
                if suspect_t <= t <= end_t:
                    install_t = t
                    break

            resume_s = None
            for event in chain.events:
                if event.get("kind") != "client.resume":
                    continue
                t = float(event["t"])
                if t >= end_t:
                    resume_s = t - end_t
                    break

            out.append(FailoverBreakdown(
                cause=chain.cause,
                client=client,
                crash_t=start,
                detect_s=suspect_t - start,
                agree_s=install_t - suspect_t,
                redistribute_s=end_t - install_t,
                total_s=float(close.get("duration_s", end_t - start)),
                resume_s=resume_s,
                abandoned=close.get("kind") == "span.abandoned",
            ))
    return out


def render_breakdowns(breakdowns: List[FailoverBreakdown]) -> str:
    """A text table of failover decompositions (``repro-vod report``)."""
    table = Table(
        "Failover critical path (detect + agree + redistribute = take-over)",
        ["cause", "client", "at (s)", "detect (s)", "agree (s)",
         "redistribute (s)", "total (s)", "resume (s)"],
    )
    for item in breakdowns:
        table.add_row(
            item.cause,
            item.client,
            f"{item.crash_t:.3f}",
            f"{item.detect_s:.3f}",
            f"{item.agree_s:.3f}",
            f"{item.redistribute_s:.3f}",
            f"{item.total_s:.3f}" + (" (abandoned)" if item.abandoned else ""),
            "-" if item.resume_s is None else f"{item.resume_s:.3f}",
        )
    return table.render()
