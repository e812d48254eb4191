"""Service layer: deployments and scenario orchestration.

A :class:`Deployment` wires the whole system together on a simulated
topology — GCS domain, servers with replicated movies, clients — and a
:class:`ScenarioController` schedules the events the paper's evaluation
uses: server crashes, graceful detaches, bringing servers up on the fly,
and network partitions.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".controller": ("ScenarioController", "ScenarioEvent"),
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
