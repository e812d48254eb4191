"""Service control: admission gating and scheduled scenario events.

:class:`AdmissionQueue` defers client admission while a movie group's
membership is still settling; :class:`ScenarioController` turns
experiment descriptions ("approximately 38 seconds after the movie
began, the server transmitting this movie was terminated...") into
simulator events and keeps a log for annotating the resulting series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.deployment import Deployment
    from repro.service.protocol import ConnectRequest


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
    placement rule is order-sensitive, so draining by arrival order
    would make replicas disagree about who serves whom.  Sorted order
    makes every replica run the identical admission sequence.
    """

    def __init__(self, server: Any) -> None:
        self._server = server
        self._sim = server.sim
        # title -> {client: request}, insertion-ordered (drain order).
        self._pending: Dict[str, Dict[Any, "ConnectRequest"]] = {}
        self._drain_handles: Dict[str, Any] = {}
        self.deferred_total = 0

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def defer(self, title: str, request: "ConnectRequest") -> bool:
        """Queue ``request`` if the movie group is still settling.

        Returns True when the request was absorbed (the caller must not
        admit it now); False when admission can proceed immediately.
        """
        if not self._settling(title):
            return False
        queue = self._pending.setdefault(title, {})
        # A retry replaces the original but keeps its queue position.
        queue[request.client] = request
        self.deferred_total += 1
        self._arm_drain(title)
        return True

    def _settling(self, title: str) -> bool:
        server = self._server
        view = server._movie_views.get(title)
        if view is None:
            return True  # no view committed yet: the group is forming
        settle_until = server._assignment_settle_until.get(title, 0.0)
        return bool(view.joined) and self._sim.now < settle_until

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def _arm_drain(self, title: str) -> None:
        if title in self._drain_handles:
            return
        settle_until = self._server._assignment_settle_until.get(title)
        if settle_until is None or settle_until <= self._sim.now:
            # No settle window yet (still waiting for the first view):
            # poll at the server's sync cadence until one exists.
            settle_until = (
                self._sim.now + self._server.config.sync_interval_s
            )
        self._drain_handles[title] = self._sim.call_at(
            settle_until, self._drain, title
        )

    def _drain(self, title: str) -> None:
        self._drain_handles.pop(title, None)
        if not self._server.running:
            self._pending.pop(title, None)
            return
        if self._settling(title):
            self._arm_drain(title)  # a newer view re-opened the window
            return
        queue = self._pending.pop(title, None)
        if not queue:
            return
        tel = self._sim.telemetry
        if tel.active:
            tel.emit(
                "server.admission.drain",
                server=self._server.name,
                movie=title,
                queued=len(queue),
            )
        # Admit in sorted client order (identical at every replica)
        # without the per-admission sync storm; one state share at the
        # end propagates the whole batch.
        for client in sorted(queue):
            self._server._on_connect(queue[client], sync=False)
        self._server._sync_movie(title)

    def pending(self, title: str) -> int:
        queue = self._pending.get(title)
        return len(queue) if queue else 0

    def close(self) -> None:
        for handle in self._drain_handles.values():
            handle.cancel()
        self._drain_handles.clear()
        self._pending.clear()


@dataclass(frozen=True)
class ScenarioEvent:
    """One scheduled scenario event, recorded when it fires."""

    time: float
    kind: str
    detail: str


class ScenarioController:
    """Schedules crashes, detaches, server bring-ups and partitions."""

    def __init__(self, deployment: "Deployment") -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.events: List[ScenarioEvent] = []

    # ------------------------------------------------------------------
    # Server lifecycle
    # ------------------------------------------------------------------
    def crash_server_at(self, time: float, name: str) -> None:
        """Fail-stop the named server (and its node) at ``time``."""

        def fire() -> None:
            self.deployment.server(name).crash()
            self._log("crash", name)

        self.sim.call_at(time, fire)

    def detach_server_at(self, time: float, name: str) -> None:
        """Gracefully shut the named server down at ``time``."""

        def fire() -> None:
            self.deployment.server(name).shutdown()
            self._log("detach", name)

        self.sim.call_at(time, fire)

    def start_server_at(
        self,
        time: float,
        host_index: int,
        name: Optional[str] = None,
    ) -> None:
        """Bring a new server up on the fly at ``time``."""

        def fire() -> None:
            server = self.deployment.add_server(host_index, name)
            self._log("server-up", server.name)

        self.sim.call_at(time, fire)

    # ------------------------------------------------------------------
    # Network faults
    # ------------------------------------------------------------------
    def partition_at(
        self, time: float, side_a: Iterable[int], side_b: Iterable[int]
    ) -> None:
        side_a, side_b = list(side_a), list(side_b)

        def fire() -> None:
            self.deployment.network.partition(side_a, side_b)
            self._log("partition", f"{side_a} | {side_b}")

        self.sim.call_at(time, fire)

    def heal_at(self, time: float) -> None:
        def fire() -> None:
            self.deployment.network.heal()
            self._log("heal", "all links up")

        self.sim.call_at(time, fire)

    def link_state_at(
        self, time: float, node_a: int, node_b: int, up: bool
    ) -> None:
        def fire() -> None:
            self.deployment.network.set_link_state(node_a, node_b, up)
            self._log("link", f"({node_a},{node_b}) {'up' if up else 'down'}")

        self.sim.call_at(time, fire)

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def _log(self, kind: str, detail: str) -> None:
        self.events.append(ScenarioEvent(self.sim.now, kind, detail))

    def events_of(self, kind: str) -> List[ScenarioEvent]:
        return [event for event in self.events if event.kind == kind]
