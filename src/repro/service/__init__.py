"""Service layer: deployments and the client/server protocol.

A :class:`Deployment` wires the whole system together on a simulated
topology — GCS domain, servers with replicated movies, clients.  The
events the paper's evaluation schedules against it (server crashes,
graceful detaches, bringing servers up on the fly, network partitions)
are a :class:`~repro.faulting.plan.FaultPlan` run by a
:class:`~repro.faulting.injector.FaultInjector`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".deployment": ("Deployment",),
    ".protocol": (
        "SERVER_GROUP",
        "ClientRecord",
        "ConnectRequest",
        "EmergencyLevel",
        "FlowControlMsg",
        "FlowKind",
        "FramePacket",
        "StateSync",
        "VcrCommand",
        "VcrOp",
        "movie_group",
        "session_group",
    ),
})
