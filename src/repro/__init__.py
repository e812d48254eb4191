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

from repro.client.player import ClientConfig, ClientStats, VoDClient
from repro.gcs.domain import GcsDomain
from repro.gcs.endpoint import GcsEndpoint, GroupHandle, GroupListener
from repro.gcs.view import ProcessId, View
from repro.media.catalog import MovieCatalog
from repro.media.movie import Movie
from repro.net.qos import QosManager
from repro.net.topologies import Topology, build_lan, build_wan
from repro.server.server import ServerConfig, VoDServer
from repro.service.controller import ScenarioController
from repro.service.deployment import Deployment
from repro.sim.core import Simulator
from repro.telemetry import Span, Telemetry, probe

__version__ = "1.0.0"

__all__ = [
    "ClientConfig",
    "ClientStats",
    "Deployment",
    "GcsDomain",
    "GcsEndpoint",
    "GroupHandle",
    "GroupListener",
    "Movie",
    "MovieCatalog",
    "ProcessId",
    "QosManager",
    "ScenarioController",
    "ServerConfig",
    "Simulator",
    "Span",
    "Telemetry",
    "Topology",
    "View",
    "VoDClient",
    "VoDServer",
    "__version__",
    "build_lan",
    "build_wan",
    "probe",
]
