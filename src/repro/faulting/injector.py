"""The fault injector: applies a :class:`FaultPlan` to a deployment.

The injector is the single place where the declarative plan meets the
running system.  It schedules every action at its virtual time, makes
each firing a causal root (``fault.<Class>#n``), and records what
actually fired so experiments can report crash/recovery times without
re-deriving them.  What an action *does* lives on the action
(:meth:`~repro.faulting.plan.FaultAction.fire`); the injector lends it
target resolution ("the server serving client0", "the host of the
crashed server") and the two steps every crash and every server-up
share, :meth:`FaultInjector.crash` and :meth:`FaultInjector.start_server`.

Every host index a plan names is checked against the topology when the
injector is built, before any event runs.

Determinism: the injector draws no random numbers of its own; every
action fires as a deterministic function of the deployment state at
fire time, so a (plan, seed) pair replays byte-for-byte.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import FaultError
from repro.faulting.plan import FaultAction, FaultPlan


class FaultInjector:
    """Schedules and executes a :class:`FaultPlan` against a Deployment.

    Parameters
    ----------
    deployment:
        The :class:`~repro.service.deployment.Deployment` under test.
    plan:
        The fault plan; call :meth:`start` (before or during the run) to
        schedule it.
    client:
        Default victim-resolution client for :class:`CrashServing`
        actions without an explicit client name.  Defaults to the first
        attached client at fire time.
    """

    def __init__(
        self,
        deployment: Any,
        plan: FaultPlan,
        client: Optional[Any] = None,
    ) -> None:
        plan.validate()
        self.deployment = deployment
        self.plan = plan
        self.sim = deployment.sim
        self.topology = deployment.topology
        self.network = deployment.network
        n_hosts = len(self.topology.hosts)
        for action in plan.actions:
            for host in action.hosts():
                if host >= n_hosts:
                    raise FaultError(
                        f"{type(action).__name__} at t={action.at} "
                        f"({action.describe()}) names host {host}, but the "
                        f"topology has {n_hosts} hosts"
                    )
        self._default_client = client
        self._started = False
        # What actually happened, for reports and assertions.
        self.fired: List[Tuple[float, str]] = []
        self.crash_times: List[float] = []
        self.server_up_times: List[float] = []
        # Host slots vacated by crashes/stops, FIFO — ServerUp(host=None)
        # refills the earliest vacancy before claiming fresh hosts.
        self._vacant_hosts: List[int] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def start(self) -> "FaultInjector":
        """Schedule every plan action on the simulator (idempotent)."""
        if self._started:
            return self
        self._started = True
        for action in self.plan.sorted_actions():
            at = max(action.at, self.sim.now)
            self.sim.call_at(at, self._fire, action)
        return self

    def _fire(self, action: FaultAction) -> None:
        tel = self.sim.telemetry
        cause = None
        if tel.active:
            # Every fault episode is a causal root: the ambient cause is
            # set while the action fires (synchronously) so server.crash,
            # the takeover spans it opens, etc. all tag themselves with
            # it, and crashes and server-ups additionally attribute the
            # node / orphaned clients so asynchronous consequences
            # (suspicion, the client's resume) can look the cause back up.
            cause = tel.new_cause(f"fault.{type(action).__name__}")
            tel.cause = cause
        try:
            note = action.fire(self)
        finally:
            if cause is not None:
                tel.cause = None
        self.fired.append((self.sim.now, note))
        if tel.active:
            tel.emit(
                "fault.fired", action=type(action).__name__, note=note,
                cause=cause,
            )
            tel.count("faults.fired")

    # ------------------------------------------------------------------
    # What crashes and server-ups share
    # ------------------------------------------------------------------
    def crash(self, server: Any) -> None:
        """Fail-stop ``server``: its host becomes vacant and the crash
        time is logged."""
        self._note_down(server)
        server.crash()
        self.crash_times.append(self.sim.now)

    def start_server(self, host: int, suffix: str = "") -> str:
        """Start a server on host index ``host`` (claiming it if vacant)
        and return the fire note, ``suffix`` appended.  A host whose node
        already runs a server or client keeps it: nothing is started and
        the note names the occupant."""
        node_id = self.topology.host(host)
        for process in (
            *self.deployment.live_servers(),
            *self.deployment.clients.values(),
        ):
            if process.node_id == node_id:
                return f"host {host} already runs {process.name}; nothing started"
        if host in self._vacant_hosts:
            self._vacant_hosts.remove(host)
        server = self.deployment.add_server(host)
        self.server_up_times.append(self.sim.now)
        tel = self.sim.telemetry
        if tel.active and tel.cause is not None:
            # The join-triggered view change (and any rebalance it causes)
            # happens asynchronously; park the cause on the new node.
            tel.attribute(f"node:{server.node_id}", tel.cause)
        return f"started {server.name} on host {host}{suffix}"

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _client(self, name: Optional[str]) -> Any:
        if name is not None:
            return self.deployment.client(name)
        if self._default_client is not None:
            return self._default_client
        clients = self.deployment.clients
        if not clients:
            raise FaultError("CrashServing fired but no client is attached")
        return next(iter(clients.values()))

    def _host_of_server(self, server: Any) -> int:
        try:
            return self.topology.hosts.index(server.node_id)
        except ValueError:
            raise FaultError(
                f"server {server.name} runs on a non-host node"
            ) from None

    def _note_down(self, server: Any) -> None:
        host = self._host_of_server(server)
        if host not in self._vacant_hosts:
            self._vacant_hosts.append(host)

    def _next_host_slot(self) -> int:
        if self._vacant_hosts:
            return self._vacant_hosts.pop(0)
        # Fresh slot: the first host index no server (live or dead)
        # occupies.  Host indices used by clients are skipped too.
        used = {
            self._host_of_server(server)
            for server in self.deployment.servers.values()
        }
        used |= {
            self.topology.hosts.index(client.node_id)
            for client in self.deployment.clients.values()
            if client.node_id in self.topology.hosts
        }
        for index in range(len(self.topology.hosts)):
            if index not in used:
                return index
        raise FaultError("no free host slot for a new server")
