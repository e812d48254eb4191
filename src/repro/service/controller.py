"""Service control: scheduled scenario events.

:class:`ScenarioController` turns experiment descriptions
("approximately 38 seconds after the movie began, the server
transmitting this movie was terminated...") into simulator events and
keeps a log for annotating the resulting series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.deployment import Deployment


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
