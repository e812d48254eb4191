"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch everything from this package with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event kernel (e.g. scheduling in the past)."""


class NetworkError(ReproError):
    """Network-substrate errors (unknown node, closed socket, bad route)."""


class AddressInUseError(NetworkError):
    """A socket bind collided with an existing binding on the node."""


class SocketClosedError(NetworkError):
    """An operation was attempted on a closed socket."""


class GroupError(ReproError):
    """Group-communication errors (not a member, endpoint down, ...)."""


class NotMemberError(GroupError):
    """A multicast or leave was attempted on a group the caller is not in."""


class MediaError(ReproError):
    """Media-model errors (unknown movie, bad frame index, ...)."""


class UnknownMovieError(MediaError):
    """A movie title was requested that the catalog does not hold."""


class FaultError(ReproError):
    """Fault-injection errors (malformed plan, unresolvable target, ...)."""


class ServiceError(ReproError):
    """VoD service-layer errors (no server for movie, bad session, ...)."""


class SessionError(ServiceError):
    """A client/session protocol violation (e.g. request before connect)."""
