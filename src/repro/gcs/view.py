"""Process identities and group views."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, NamedTuple, Tuple

from repro.net.address import NodeId


class ProcessId(NamedTuple):
    """A process registered with the GCS: (node, local name).

    Ordering is total (node id, then name), which the membership protocol
    uses to pick coordinators deterministically and which the VoD layer
    uses for deterministic client re-distribution.

    Process ids key most GCS and session dicts and are sorted at every
    re-distribution, so the type is a tuple: hash, ``==`` and ordering
    run in C, with the values (and so every set/dict iteration order) of
    the bare ``(node, name)`` pair, which a process id also equals.
    """

    node: NodeId
    name: str

    def __str__(self) -> str:
        return f"{self.name}@{self.node}"


@dataclass(frozen=True)
class ViewId:
    """Totally ordered view identifier: (epoch counter, proposer)."""

    counter: int
    proposer: ProcessId

    def __lt__(self, other: "ViewId") -> bool:
        return (self.counter, self.proposer) < (other.counter, other.proposer)

    def __le__(self, other: "ViewId") -> bool:
        return self == other or self < other

    def next(self, proposer: ProcessId) -> "ViewId":
        return ViewId(self.counter + 1, proposer)

    def __str__(self) -> str:
        return f"v{self.counter}/{self.proposer}"


@dataclass(frozen=True)
class View:
    """An installed membership view of one group.

    ``members`` is sorted, so all members that install the view see the
    identical sequence — the basis for deterministic takeover decisions.
    ``prior`` is the proposer's membership before this change; since the
    commit carries it, every member (including fresh joiners) derives
    the *same* joined/departed sets, which the VoD layer needs to decide
    between orphan takeover and even re-distribution.

    Derived membership state (``member_set``, ``joined``, ``departed``)
    is computed once at construction: views are consulted on every
    connect, sync receipt and heartbeat vector, and recomputing set
    differences per lookup is what made membership bookkeeping O(n)
    in the hot path.
    """

    group: str
    view_id: ViewId
    members: Tuple[ProcessId, ...]
    prior: Tuple[ProcessId, ...] = ()

    if TYPE_CHECKING:  # derived attributes, set in __post_init__ —
        member_set: FrozenSet[ProcessId]  # annotating them here keeps
        joined: Tuple[ProcessId, ...]  # them out of the dataclass
        departed: Tuple[ProcessId, ...]  # field list (init/eq/repr).

    def __post_init__(self) -> None:
        members = tuple(sorted(self.members))
        prior = tuple(sorted(self.prior))
        member_set = frozenset(members)
        prior_set = frozenset(prior)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "member_set", member_set)
        object.__setattr__(
            self, "joined", tuple(m for m in members if m not in prior_set)
        )
        object.__setattr__(
            self, "departed", tuple(m for m in prior if m not in member_set)
        )

    @property
    def coordinator(self) -> ProcessId:
        """The deterministic leader of this view (smallest member)."""
        return self.members[0]

    def __contains__(self, process: ProcessId) -> bool:
        return process in self.member_set

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        names = ", ".join(str(member) for member in self.members)
        return f"View({self.group} {self.view_id} [{names}])"
