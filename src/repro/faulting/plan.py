"""The fault-plan DSL: declarative, deterministic fault schedules.

A :class:`FaultPlan` is an immutable description of *what goes wrong and
when*: server crashes and restarts, network partitions and merges, host
impairments (drop / delay / duplication via
:class:`~repro.net.link.LinkFault`) and false failure-detector
suspicions.  Building a plan touches no simulator, so the same plan can
be printed, compared, replayed against different deployments, or
regenerated bit-for-bit from a seed.

Two ways to build a plan:

* the fluent builder API (each call returns a new plan)::

      plan = (FaultPlan(name="figure5")
              .server_up(at=25.0)
              .crash_serving(at=47.0))

* :meth:`FaultPlan.random` — a seeded generator that composes a
  recoverable chaos schedule (every crash is followed by a replacement
  server, every partition heals, the plan ends with a settle window), so
  the service-level invariants are expected to hold for *every* seed.

Each action is one frozen class: its fields, ``validate``, ``describe``
and ``fire(injector)``, which applies it at its virtual time and returns
the fire-log note (a no-op note when there is nothing to act on).
Adding an action is one class here and one builder method on
:class:`FaultPlan`.

All node-valued fields hold **host indices** into ``Topology.hosts`` —
not raw node ids — so plans stay meaningful across topologies of the
same shape.  A negative index is refused when the plan is built, one
past the topology when the injector is built; targets named otherwise
(a server, "the server serving client0") resolve at fire time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import FaultError
from repro.net.link import LinkFault
from repro.testing import serving_server

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faulting.injector import FaultInjector

#: :meth:`FaultPlan.random`: no disturbance before this time (s) ...
START_S = 20.0
#: ... and the last recovery at least this long before the run ends.
SETTLE_S = 20.0


# ======================================================================
# Actions
# ======================================================================
@dataclass(frozen=True)
class FaultAction:
    """One scheduled action; ``at`` is virtual time in seconds."""

    at: float

    def validate(self) -> None:
        if not isinstance(self.at, (int, float)) or not self.at >= 0.0:
            raise FaultError(f"action time must be >= 0, got {self.at!r}")
        for host in self.hosts():
            if host < 0:
                raise FaultError(
                    f"{type(self).__name__} needs host indices >= 0, "
                    f"got {host!r}"
                )

    def hosts(self) -> Tuple[int, ...]:
        """The host indices this action names."""
        return ()

    def describe(self) -> str:
        return f"{type(self).__name__}"

    def fire(self, injector: "FaultInjector") -> str:
        """Apply the action now (deterministically, drawing no random
        number); returns the fire-log note."""
        raise FaultError(f"{type(self).__name__} cannot fire")


@dataclass(frozen=True)
class _ServerAction(FaultAction):
    """An action on one named server."""

    server: str = ""

    def validate(self) -> None:
        super().validate()
        if not self.server:
            raise FaultError(f"{type(self).__name__} needs a server name")


@dataclass(frozen=True)
class _HostAction(FaultAction):
    """An action on one host index."""

    host: int = 0

    def hosts(self) -> Tuple[int, ...]:
        return (self.host,)


@dataclass(frozen=True)
class CrashServing(FaultAction):
    """Crash whichever live server currently serves ``client``.

    ``client`` is a client name from the deployment; None means the
    injector's default client (the first one attached)."""

    client: Optional[str] = None

    def describe(self) -> str:
        target = self.client or "<default client>"
        return f"crash server serving {target}"

    def fire(self, injector: "FaultInjector") -> str:
        client = injector._client(self.client)
        server = serving_server(injector.deployment, client)
        if server is None:
            return f"no server serving {client.name}; nothing crashed"
        injector.crash(server)
        return f"crashed {server.name} (serving {client.name})"


@dataclass(frozen=True)
class CrashMostLoaded(FaultAction):
    """Crash the live server with the most clients at fire time (the
    first in the deployment's server order on a tie) — the scale rig's
    mid-run fault."""

    def describe(self) -> str:
        return "crash the most-loaded server"

    def fire(self, injector: "FaultInjector") -> str:
        server = injector.deployment.busiest_server()
        if server is None:
            return "no live server; nothing crashed"
        load = server.n_clients
        injector.crash(server)
        return f"crashed {server.name} (most loaded, {load} clients)"


@dataclass(frozen=True)
class CrashServer(_ServerAction):
    """Fail-stop a named server together with its host node."""

    def describe(self) -> str:
        return f"crash {self.server}"

    def fire(self, injector: "FaultInjector") -> str:
        server = injector.deployment.server(self.server)
        if not server.running:
            return f"{server.name} already down"
        injector.crash(server)
        return f"crashed {server.name}"


@dataclass(frozen=True)
class StopServer(_ServerAction):
    """Gracefully shut a named server down (it leaves its groups)."""

    def describe(self) -> str:
        return f"shutdown {self.server}"

    def fire(self, injector: "FaultInjector") -> str:
        server = injector.deployment.server(self.server)
        if not server.running:
            return f"{server.name} already down"
        injector._note_down(server)
        server.shutdown()
        return f"stopped {server.name}"


@dataclass(frozen=True)
class ServerUp(FaultAction):
    """Start a new server.

    ``host`` is a host index; None lets the injector pick — the host of
    the earliest crashed/stopped server that has no live replacement
    yet, else a fresh host slot."""

    host: Optional[int] = None

    def hosts(self) -> Tuple[int, ...]:
        return () if self.host is None else (self.host,)

    def describe(self) -> str:
        where = "auto host" if self.host is None else f"host {self.host}"
        return f"server up on {where}"

    def fire(self, injector: "FaultInjector") -> str:
        host = injector._next_host_slot() if self.host is None else self.host
        return injector.start_server(host)


@dataclass(frozen=True)
class RestartServer(_ServerAction):
    """Bring a server back up on the host where ``server`` ran."""

    def describe(self) -> str:
        return f"restart host of {self.server}"

    def fire(self, injector: "FaultInjector") -> str:
        old = injector.deployment.server(self.server)
        return injector.start_server(
            injector._host_of_server(old), f" (was {old.name})"
        )


@dataclass(frozen=True)
class Partition(FaultAction):
    """Cut every direct link between two sets of hosts."""

    side_a: Tuple[int, ...] = ()
    side_b: Tuple[int, ...] = ()

    def validate(self) -> None:
        super().validate()
        if not self.side_a or not self.side_b:
            raise FaultError("Partition needs two non-empty sides")
        if set(self.side_a) & set(self.side_b):
            raise FaultError("Partition sides overlap")

    def hosts(self) -> Tuple[int, ...]:
        return self.side_a + self.side_b

    def describe(self) -> str:
        return f"partition {list(self.side_a)} | {list(self.side_b)}"

    def fire(self, injector: "FaultInjector") -> str:
        node = injector.topology.host
        injector.network.partition(
            [node(index) for index in self.side_a],
            [node(index) for index in self.side_b],
        )
        return self.describe()


@dataclass(frozen=True)
class IsolateHost(_HostAction):
    """Take down every link terminating at one host (NIC dies)."""

    def describe(self) -> str:
        return f"isolate host {self.host}"

    def fire(self, injector: "FaultInjector") -> str:
        injector.network.partition_node(injector.topology.host(self.host))
        return self.describe()


@dataclass(frozen=True)
class HealHost(_HostAction):
    """Undo :class:`IsolateHost`: restore the host's links."""

    def describe(self) -> str:
        return f"heal host {self.host}"

    def fire(self, injector: "FaultInjector") -> str:
        injector.network.heal_node(injector.topology.host(self.host))
        return self.describe()


@dataclass(frozen=True)
class HealAll(FaultAction):
    """Merge all partitions: every link back up."""

    def describe(self) -> str:
        return "heal all partitions"

    def fire(self, injector: "FaultInjector") -> str:
        injector.network.heal()
        return self.describe()


@dataclass(frozen=True)
class ImpairHost(_HostAction):
    """Install a :class:`LinkFault` on every link of one host — a flaky
    NIC or a congested access link (None clears them)."""

    fault: Optional[LinkFault] = None

    def validate(self) -> None:
        super().validate()
        if self.fault is not None:
            self.fault.validate()

    def describe(self) -> str:
        what = "clear" if self.fault is None else repr(self.fault)
        return f"impair host {self.host}: {what}"

    def fire(self, injector: "FaultInjector") -> str:
        injector.network.set_node_fault(
            injector.topology.host(self.host), self.fault
        )
        return self.describe()


@dataclass(frozen=True)
class FalseSuspicion(_HostAction):
    """Make every other daemon wrongly suspect the daemon on ``host``
    (and ignore its heartbeats for ``mute_for_s``), exercising the
    remove-then-rejoin path without any real failure."""

    mute_for_s: float = 0.5

    def validate(self) -> None:
        super().validate()
        if self.mute_for_s < 0.0:
            raise FaultError("mute_for_s must be >= 0")

    def describe(self) -> str:
        return f"falsely suspect host {self.host} (mute {self.mute_for_s}s)"

    def fire(self, injector: "FaultInjector") -> str:
        victim = injector.topology.host(self.host)
        domain = injector.deployment.domain
        accusers = 0
        for node_id in domain.daemon_nodes():
            if node_id == victim:
                continue
            endpoint = domain.endpoint(node_id)
            if endpoint.closed:
                continue
            if endpoint.fd.force_suspect(victim, mute_for_s=self.mute_for_s):
                accusers += 1
        return (
            f"falsely suspected daemon {victim} at {accusers} peers "
            f"(muted {self.mute_for_s:.2f}s)"
        )


@dataclass(frozen=True)
class _CrashHost(_HostAction):
    """Crash whichever live server runs on host index ``host`` (no-op if
    the host has no live server).  Used by random plans, which know
    hosts but not server names."""

    def describe(self) -> str:
        return f"crash server on host {self.host}"

    def fire(self, injector: "FaultInjector") -> str:
        node_id = injector.topology.host(self.host)
        for server in injector.deployment.live_servers():
            if server.node_id == node_id:
                injector.crash(server)
                return f"crashed {server.name} on host {self.host}"
        return f"no live server on host {self.host}"


# ======================================================================
# The plan
# ======================================================================
@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered schedule of :class:`FaultAction` objects."""

    name: str = "plan"
    seed: Optional[int] = None
    actions: Tuple[FaultAction, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------
    # Builder API (each method returns a new plan)
    # ------------------------------------------------------------------
    def _with(self, action: FaultAction) -> "FaultPlan":
        action.validate()
        return replace(self, actions=self.actions + (action,))

    def crash_serving(self, at: float, client: Optional[str] = None) -> "FaultPlan":
        return self._with(CrashServing(at, client=client))

    def crash_most_loaded(self, at: float) -> "FaultPlan":
        return self._with(CrashMostLoaded(at))

    def crash(self, at: float, server: str) -> "FaultPlan":
        return self._with(CrashServer(at, server=server))

    def stop(self, at: float, server: str) -> "FaultPlan":
        return self._with(StopServer(at, server=server))

    def server_up(self, at: float, host: Optional[int] = None) -> "FaultPlan":
        return self._with(ServerUp(at, host=host))

    def restart(self, at: float, server: str) -> "FaultPlan":
        return self._with(RestartServer(at, server=server))

    def partition(
        self, at: float, side_a: Sequence[int], side_b: Sequence[int]
    ) -> "FaultPlan":
        return self._with(
            Partition(at, side_a=tuple(side_a), side_b=tuple(side_b))
        )

    def isolate(self, at: float, host: int) -> "FaultPlan":
        return self._with(IsolateHost(at, host=host))

    def heal_host(self, at: float, host: int) -> "FaultPlan":
        return self._with(HealHost(at, host=host))

    def heal_all(self, at: float) -> "FaultPlan":
        return self._with(HealAll(at))

    def impair_host(
        self, at: float, host: int, fault: Optional[LinkFault]
    ) -> "FaultPlan":
        return self._with(ImpairHost(at, host=host, fault=fault))

    def false_suspicion(
        self, at: float, host: int, mute_for_s: float = 0.5
    ) -> "FaultPlan":
        return self._with(FalseSuspicion(at, host=host, mute_for_s=mute_for_s))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sorted_actions(self) -> List[FaultAction]:
        """Actions in firing order (stable for equal times)."""
        return sorted(self.actions, key=lambda action: action.at)

    @property
    def horizon(self) -> float:
        """Time of the last scheduled action (0 for an empty plan)."""
        return max((action.at for action in self.actions), default=0.0)

    def validate(self) -> None:
        for action in self.actions:
            action.validate()

    def describe(self) -> List[str]:
        return [
            f"t={action.at:7.2f}s  {action.describe()}"
            for action in self.sorted_actions()
        ]

    def __len__(self) -> int:
        return len(self.actions)

    # ------------------------------------------------------------------
    # Random plans
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        duration_s: float,
        server_hosts: Sequence[int],
        client_host: int,
    ) -> "FaultPlan":
        """A seeded random chaos plan that the service should survive.

        Disturbances are drawn one after another on a non-overlapping
        timeline (so at most one is in flight), every crash is paired
        with a replacement ``server_up`` a few seconds later, every
        isolation heals within seconds, and the last recovery lands at
        least :data:`SETTLE_S` before ``duration_s`` — giving takeover and
        rebalancing time to converge.  Identical arguments always yield
        an identical plan.
        """
        if duration_s <= START_S + SETTLE_S:
            raise FaultError(
                f"duration {duration_s}s leaves no room between start "
                f"{START_S}s and settle window {SETTLE_S}s"
            )
        if not server_hosts:
            raise FaultError("need at least one server host")
        rng = random.Random(seed)
        plan = cls(name=f"chaos-{seed}", seed=seed)
        deadline = duration_s - SETTLE_S
        t = START_S

        kinds = [
            "crash-serving",
            "crash-any",
            "isolate-client",
            "isolate-server",
            "impair-client",
            "impair-server",
            "false-suspicion",
        ]
        while True:
            t += rng.uniform(4.0, 10.0)
            kind = rng.choice(kinds)
            if kind == "crash-serving":
                # Crash the serving server, then bring a replacement up
                # on the vacated host a few seconds later.
                up_at = t + rng.uniform(5.0, 10.0)
                if up_at > deadline:
                    break
                plan = plan.crash_serving(t).server_up(up_at)
                t = up_at
            elif kind == "crash-any":
                # Crash a random *non-serving* host by index; the
                # injector resolves the server living there (if it is
                # the serving one, fine too — takeover handles it).
                host = rng.choice(list(server_hosts))
                up_at = t + rng.uniform(5.0, 10.0)
                if up_at > deadline:
                    break
                plan = plan._with(_CrashHost(t, host=host)).server_up(up_at)
                t = up_at
            elif kind in ("isolate-client", "isolate-server"):
                host = (
                    client_host
                    if kind == "isolate-client"
                    else rng.choice(list(server_hosts))
                )
                heal_at = t + rng.uniform(0.5, 2.5)
                if heal_at > deadline:
                    break
                plan = plan.isolate(t, host).heal_host(heal_at, host)
                t = heal_at
            elif kind in ("impair-client", "impair-server"):
                host = (
                    client_host
                    if kind == "impair-client"
                    else rng.choice(list(server_hosts))
                )
                fault = LinkFault(
                    drop_prob=rng.uniform(0.02, 0.20),
                    extra_delay_s=rng.uniform(0.0, 0.010),
                    jitter_s=rng.uniform(0.0, 0.015),
                    duplicate_prob=rng.uniform(0.0, 0.05),
                )
                clear_at = t + rng.uniform(4.0, 10.0)
                if clear_at > deadline:
                    break
                plan = plan.impair_host(t, host, fault).impair_host(
                    clear_at, host, None
                )
                t = clear_at
            else:  # false-suspicion
                host = rng.choice(list(server_hosts))
                if t > deadline:
                    break
                plan = plan.false_suspicion(
                    t, host, mute_for_s=rng.uniform(0.3, 1.0)
                )
        return plan

