"""The fault injector: applies a :class:`FaultPlan` to a deployment.

The injector is the single place where the declarative plan meets the
running system.  It schedules every action at its virtual time, resolves
symbolic targets at fire time ("the server serving client0", "the host
of the crashed server"), and records what actually fired so experiments
can report crash/recovery times without re-deriving them.

Determinism: the injector draws no random numbers of its own; every
handler is a deterministic function of the deployment state at fire
time, so a (plan, seed) pair replays byte-for-byte.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import FaultError
from repro.faulting.plan import (
    ClearImpairments,
    CrashMostLoaded,
    CrashServer,
    CrashServing,
    FalseSuspicion,
    FaultAction,
    FaultPlan,
    HealAll,
    HealHost,
    ImpairHost,
    ImpairLink,
    IsolateHost,
    Partition,
    RestartServer,
    ServerUp,
    StopServer,
    _CrashHost,
)
from repro.testing import crash_serving_server


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
        handler = self._HANDLERS.get(type(action))
        if handler is None:
            raise FaultError(f"no handler for {type(action).__name__}")
        tel = self.sim.telemetry
        cause = None
        if tel.active:
            # Every fault episode is a causal root: the ambient cause is
            # set for the (synchronous) handler so server.crash, the
            # takeover spans it opens, etc. all tag themselves with it,
            # and crash handlers additionally attribute the dead node /
            # orphaned clients so asynchronous consequences (suspicion,
            # the client's resume) can look the cause back up.
            cause = tel.new_cause(f"fault.{type(action).__name__}")
            tel.cause = cause
        try:
            detail = handler(self, action)
        finally:
            if cause is not None:
                tel.cause = None
        note = action.describe() if detail is None else detail
        self.fired.append((self.sim.now, note))
        if tel.active:
            tel.emit(
                "fault.fired", action=type(action).__name__, note=note,
                cause=cause,
            )
            tel.count("faults.fired")

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

    def _note_down(self, server: Optional[Any]) -> None:
        if server is None:
            return
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

    # ------------------------------------------------------------------
    # Handlers (deterministic; no RNG draws)
    # ------------------------------------------------------------------
    def _do_crash_serving(self, action: CrashServing) -> str:
        client = self._client(action.client)
        server = crash_serving_server(self.deployment, client)
        self._note_down(server)
        if server is not None:
            self.crash_times.append(self.sim.now)
            return f"crashed {server.name} (serving {client.name})"
        return f"no server serving {client.name}; nothing crashed"

    def _do_crash_most_loaded(self, action: CrashMostLoaded) -> str:
        server = self.deployment.busiest_server()
        if server is None:
            return "no live server; nothing crashed"
        self._note_down(server)
        load = server.n_clients
        server.crash()
        self.crash_times.append(self.sim.now)
        return f"crashed {server.name} (most loaded, {load} clients)"

    def _do_crash_server(self, action: CrashServer) -> str:
        server = self.deployment.server(action.server)
        if server.running:
            self._note_down(server)
            server.crash()
            self.crash_times.append(self.sim.now)
            return f"crashed {server.name}"
        return f"{server.name} already down"

    def _do_crash_host(self, action: _CrashHost) -> str:
        node_id = self.topology.host(action.host)
        for server in self.deployment.live_servers():
            if server.node_id == node_id:
                self._note_down(server)
                server.crash()
                self.crash_times.append(self.sim.now)
                return f"crashed {server.name} on host {action.host}"
        return f"no live server on host {action.host}"

    def _do_stop_server(self, action: StopServer) -> str:
        server = self.deployment.server(action.server)
        if server.running:
            self._note_down(server)
            server.shutdown()
            return f"stopped {server.name}"
        return f"{server.name} already down"

    def _do_server_up(self, action: ServerUp) -> str:
        host = action.host if action.host is not None else self._next_host_slot()
        if host in self._vacant_hosts:
            self._vacant_hosts.remove(host)
        server = self.deployment.add_server(host)
        self.server_up_times.append(self.sim.now)
        tel = self.sim.telemetry
        if tel.active and tel.cause is not None:
            # The join-triggered view change (and any rebalance it causes)
            # happens asynchronously; park the cause on the new node.
            tel.attribute(f"node:{server.node_id}", tel.cause)
        return f"started {server.name} on host {host}"

    def _do_restart_server(self, action: RestartServer) -> str:
        old = self.deployment.server(action.server)
        host = self._host_of_server(old)
        if host in self._vacant_hosts:
            self._vacant_hosts.remove(host)
        server = self.deployment.add_server(host)
        self.server_up_times.append(self.sim.now)
        tel = self.sim.telemetry
        if tel.active and tel.cause is not None:
            tel.attribute(f"node:{server.node_id}", tel.cause)
        return f"started {server.name} on host {host} (was {old.name})"

    def _do_partition(self, action: Partition) -> str:
        side_a = [self.topology.host(index) for index in action.side_a]
        side_b = [self.topology.host(index) for index in action.side_b]
        self.network.partition(side_a, side_b)
        return action.describe()

    def _do_isolate(self, action: IsolateHost) -> str:
        self.network.partition_node(self.topology.host(action.host))
        return action.describe()

    def _do_heal_host(self, action: HealHost) -> str:
        self.network.heal_node(self.topology.host(action.host))
        return action.describe()

    def _do_heal_all(self, action: HealAll) -> str:
        self.network.heal()
        return action.describe()

    def _do_impair_link(self, action: ImpairLink) -> str:
        self.network.set_link_fault(
            self.topology.host(action.host_a),
            self.topology.host(action.host_b),
            action.fault,
        )
        return action.describe()

    def _do_impair_host(self, action: ImpairHost) -> str:
        self.network.set_node_fault(
            self.topology.host(action.host), action.fault
        )
        return action.describe()

    def _do_clear_impairments(self, action: ClearImpairments) -> str:
        self.network.clear_link_faults()
        return action.describe()

    def _do_false_suspicion(self, action: FalseSuspicion) -> str:
        victim = self.topology.host(action.host)
        domain = self.deployment.domain
        accusers = 0
        for node_id in domain.daemon_nodes():
            if node_id == victim:
                continue
            endpoint = domain.endpoint(node_id)
            if endpoint.closed:
                continue
            if endpoint.fd.force_suspect(victim, mute_for_s=action.mute_for_s):
                accusers += 1
        return (
            f"falsely suspected daemon {victim} at {accusers} peers "
            f"(muted {action.mute_for_s:.2f}s)"
        )

    _HANDLERS = {
        CrashServing: _do_crash_serving,
        CrashMostLoaded: _do_crash_most_loaded,
        CrashServer: _do_crash_server,
        _CrashHost: _do_crash_host,
        StopServer: _do_stop_server,
        ServerUp: _do_server_up,
        RestartServer: _do_restart_server,
        Partition: _do_partition,
        IsolateHost: _do_isolate,
        HealHost: _do_heal_host,
        HealAll: _do_heal_all,
        ImpairLink: _do_impair_link,
        ImpairHost: _do_impair_host,
        ClearImpairments: _do_clear_impairments,
        FalseSuspicion: _do_false_suspicion,
    }
