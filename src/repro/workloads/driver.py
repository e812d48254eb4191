"""Drive a generated population against a deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.client.player import VoDClient
from repro.errors import ServiceError
from repro.service.deployment import Deployment
from repro.workloads.popularity import ZipfCatalogSampler
from repro.workloads.viewer import ViewerProfile


@dataclass
class PopulationStats:
    """Population-level quality-of-experience summary."""

    n_viewers: int = 0
    n_abandoned: int = 0
    total_displayed: int = 0
    total_skipped: int = 0
    total_stall_s: float = 0.0
    worst_stall_s: float = 0.0
    viewers_with_visible_stall: int = 0
    requests_per_title: Dict[str, int] = field(default_factory=dict)

    @property
    def skip_fraction(self) -> float:
        shown = self.total_displayed + self.total_skipped
        return self.total_skipped / max(1, shown)


class WorkloadDriver:
    """Attach arriving viewers (with behaviours) to a deployment.

    Hosts are taken round-robin from ``client_hosts``; at most one
    active client per host at a time (a departed viewer frees its
    host for a later arrival).
    """

    def __init__(
        self,
        deployment: Deployment,
        client_hosts: Sequence[int],
        sampler: ZipfCatalogSampler,
        profile: Optional[ViewerProfile] = None,
        workload_seed: int = 0,
    ) -> None:
        if not client_hosts:
            raise ServiceError("need at least one client host")
        self.deployment = deployment
        self.sim = deployment.sim
        self.sampler = sampler
        self.profile = profile or ViewerProfile()
        self.rng = deployment.sim.rng(f"workload.{workload_seed}")
        self._free_hosts: List[int] = list(client_hosts)
        self.clients: List[VoDClient] = []
        self.requests_per_title: Dict[str, int] = {}
        self.skipped_arrivals = 0
        self._counter = 0

    # ------------------------------------------------------------------
    # Population construction
    # ------------------------------------------------------------------
    def schedule_arrivals(self, arrival_times: Sequence[float]) -> None:
        for at in arrival_times:
            self.sim.call_at(at, self._arrive)

    def _arrive(self) -> None:
        if not self._free_hosts:
            self.skipped_arrivals += 1  # busy signal: no set-top box free
            return
        host = self._free_hosts.pop(0)
        self._counter += 1
        name = f"viewer{self._counter}"
        title = self.sampler.sample(self.rng)
        self.requests_per_title[title] = (
            self.requests_per_title.get(title, 0) + 1
        )
        client = self.deployment.attach_client(host, name)
        client.request_movie(title)
        self.clients.append(client)
        self._schedule_script(client, host, title)

    def _schedule_script(self, client: VoDClient, host: int, title: str) -> None:
        movie = self.deployment.catalog.movie(title)
        script = self.profile.script(self.rng, movie.duration_s)
        t = self.sim.now
        for delay, op, argument in script:
            t += delay
            self.sim.call_at(t, self._apply, client, host, op, argument)

    def _apply(self, client: VoDClient, host: int, op: str, argument: float) -> None:
        if client.finished or client.video_socket.closed:
            return
        try:
            if op == "pause":
                client.pause()
            elif op == "resume":
                client.resume()
            elif op == "seek":
                client.seek(argument)
            elif op == "stop":
                client.stop()
                client.abandoned = True
                self._release_host(client, host)
        except Exception:
            raise

    def _release_host(self, client: VoDClient, host: int) -> None:
        self._free_hosts.append(host)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> PopulationStats:
        stats = PopulationStats(requests_per_title=dict(self.requests_per_title))
        for client in self.clients:
            client.decoder.end_stall(self.sim.now)
            stats.n_viewers += 1
            if getattr(client, "abandoned", False):
                stats.n_abandoned += 1
                continue
            stats.total_displayed += client.displayed_total
            stats.total_skipped += client.skipped_total
            stall = client.decoder.stats.stall_time_s
            stats.total_stall_s += stall
            stats.worst_stall_s = max(stats.worst_stall_s, stall)
            if stall > 1.0:
                stats.viewers_with_visible_stall += 1
        return stats
