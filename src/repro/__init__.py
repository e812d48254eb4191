"""repro — a reproduction of *Fault Tolerant Video on Demand Services*
(Tal Anker, Danny Dolev, Idit Keidar; ICDCS 1999).

A fault-tolerant, distributed video-on-demand service built on a group
communication substrate, running on a deterministic discrete-event
network simulator.  Quickstart::

    from repro import Simulator, build_lan, Movie, MovieCatalog, Deployment

    sim = Simulator(seed=1)
    topology = build_lan(sim, n_hosts=5)
    catalog = MovieCatalog([Movie.synthetic("clip", duration_s=120)])
    deploy = Deployment(topology, catalog, server_nodes=[0, 1])
    client = deploy.attach_client(4)
    client.request_movie("clip")
    deploy.controller.crash_server_at(40.0, "server0")
    sim.run_until(130.0)
    print(client.skipped_total, client.late_total)

Observability flows through :mod:`repro.telemetry` — subscribe to
``sim.telemetry`` (or attach a
:class:`~repro.telemetry.export.JsonlExporter`) before the run to watch
every layer's typed events.  See DESIGN.md for the architecture,
docs/TELEMETRY.md for the event taxonomy, and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.client.player": ("ClientConfig", "ClientStats", "VoDClient"),
    "repro.gcs.domain": ("GcsDomain",),
    "repro.gcs.endpoint": ("GcsEndpoint", "GroupHandle", "GroupListener"),
    "repro.gcs.view": ("ProcessId", "View"),
    "repro.media.catalog": ("MovieCatalog",),
    "repro.media.movie": ("Movie",),
    "repro.net.qos": ("QosManager",),
    "repro.net.topologies": ("Topology", "build_lan", "build_wan"),
    "repro.server.server": ("ServerConfig", "VoDServer"),
    "repro.service.controller": ("ScenarioController",),
    "repro.service.deployment": ("Deployment",),
    "repro.sim.core": ("Simulator",),
    "repro.telemetry.bus": ("Telemetry",),
    "repro.telemetry.series": ("probe",),
    "repro.telemetry.spans": ("Span",),
})
__all__.append("__version__")
